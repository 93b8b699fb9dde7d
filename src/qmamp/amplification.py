"""Amplification cascade: copy the probe label across N tensor legs.

The cascade applies the coupling unitary on (system, probe 1) and then the
copy unitary on successive probe pairs, turning xi x |trivial>^N into
sum_gamma c_gamma xi_gamma x |gamma>^N.  Probabilities read off the cascade
output agree with the single-probe instrument for every N; the chain of copy
unitaries intertwines a translation on the first probe leg with the diagonal
translation on all legs.

States are plain arrays: a cascade state is a tensor of shape
`CascadeConfig.shape`, (system dim, |G|, ..., |G|) with N probe legs.  The
copy stages and translations are permutations and run as integer index
maps.  `cascade_apply` works stage-wise on that tensor and never
materializes the cascade unitary: the first stage (UtildeV, not a
permutation) is a small dense contraction, and each copy stage is a gather
through the index map of V.  `intertwiner_chain_check` composes the stage
maps exactly on basis indices.  `cascade_unitary` builds the full dense
matrix with `hilbert.embed` on leg positions, from the dense 0/1 matrix of
V, and serves as the test oracle, as does `heisenberg_T`, which conjugates
by it.  DEFAULT_MEMORY_BUDGET bounds both the cascade state and that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Character, FiniteAbelianGroup, _perm_matrix
from .hilbert import embed
from .ktops import _kron_perm, _perm_product, _perm_residual, build_UtildeV, build_V
from .measurement import (
    InstrumentResult,
    Outcome,
    SpectralRepresentation,
    _check_state,
    instrument,
)


class CascadeError(ValueError):
    pass


DEFAULT_MEMORY_BUDGET = 1 << 22  # amplitudes
# The cascade state is a tensor with one system and N probe axes, and numpy
# arrays have at most 64 axes; a trivial group never reaches the budget.
MAX_COPIES = 63


@dataclass(frozen=True)
class CascadeConfig:
    rep: SpectralRepresentation
    n_copies: int

    def __post_init__(self):
        if self.n_copies < 1:
            raise CascadeError("need at least one probe copy")
        if self.n_copies > MAX_COPIES:
            raise CascadeError(
                f"{self.n_copies} probe copies exceed the {MAX_COPIES} that a tensor of"
                " at most 64 axes holds"
            )
        if self.state_dim > DEFAULT_MEMORY_BUDGET:
            raise CascadeError(
                f"state dimension {self.state_dim} exceeds memory budget {DEFAULT_MEMORY_BUDGET}"
            )

    @property
    def state_dim(self) -> int:
        return self.rep.system_dim * self.rep.group.size**self.n_copies

    @property
    def shape(self) -> tuple[int, ...]:
        """Tensor shape of a cascade state: the system leg, then N probe legs."""
        return (self.rep.system_dim,) + (self.rep.group.size,) * self.n_copies


def _adjacent_view(tensor: np.ndarray, axis: int) -> np.ndarray:
    """(pre, pair, post) view of a tensor with axes (axis, axis + 1) flattened."""
    pre = int(np.prod(tensor.shape[:axis], initial=1))
    return tensor.reshape(pre, tensor.shape[axis] * tensor.shape[axis + 1], -1)


def _apply_on_adjacent(tensor: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    """Apply a two-leg operator on tensor axes (axis, axis + 1)."""
    return np.einsum("ab,xby->xay", op, _adjacent_view(tensor, axis)).reshape(tensor.shape)


def _gather_on_adjacent(tensor: np.ndarray, src: np.ndarray, axis: int) -> np.ndarray:
    """Pair entry q of the output is pair entry src[q] of the input, on axes (axis, axis + 1)."""
    return _adjacent_view(tensor, axis)[:, src, :].reshape(tensor.shape)


def cascade_apply(cfg: CascadeConfig, xi, inverse: bool = False) -> np.ndarray:
    """Stage-wise cascade output, a tensor of shape cfg.shape, for a normalized
    system state.

    Probe legs start in the trivial character.  With `inverse=True`, xi is a
    cascade state of cfg.state_dim entries (flat or a tensor), and the adjoint
    stages are applied to it in reverse, recovering the decoupled state.
    """
    g = cfg.rep.group.size
    n = cfg.n_copies
    if inverse:
        if np.size(xi) != cfg.state_dim:
            raise CascadeError(
                f"cascade state has {np.size(xi)} entries, expected {cfg.state_dim}"
            )
        tensor = np.asarray(xi, dtype=complex).reshape(cfg.shape)
    else:
        xi = _check_state(cfg.rep, xi)
        tensor = xi.reshape(cfg.rep.system_dim, *(1,) * n) * _iota_block(g, n)

    utv = build_UtildeV(cfg.rep)
    vp = build_V(cfg.rep.group)
    # V e_q = e_{vp[q]}: (V psi)[vp[q]] = psi[q] and (V* psi)[q] = psi[vp[q]]
    if inverse:
        for k in range(n - 1, 0, -1):
            tensor = _gather_on_adjacent(tensor, vp, k)
        tensor = _apply_on_adjacent(tensor, utv.conj().T, 0)
    else:
        tensor = _apply_on_adjacent(tensor, utv, 0)
        src = np.argsort(vp)
        for k in range(1, n):
            tensor = _gather_on_adjacent(tensor, src, k)
    return tensor


def _iota_block(g: int, n: int) -> np.ndarray:
    block = np.zeros((1,) + (g,) * n, dtype=complex)
    block[(0,) + (0,) * n] = 1.0
    return block


def cascade_unitary(cfg: CascadeConfig) -> np.ndarray:
    """Materialized cascade matrix V_{N,N+1} ... V_23 UtildeV_12 (oracle path)."""
    if cfg.state_dim**2 > DEFAULT_MEMORY_BUDGET:
        raise CascadeError(
            f"cascade matrix of {cfg.state_dim}**2 entries exceeds memory budget"
            f" {DEFAULT_MEMORY_BUDGET}; use cascade_apply"
        )
    v = _perm_matrix(build_V(cfg.rep.group))
    mat = embed(build_UtildeV(cfg.rep), [0, 1], cfg.shape)
    for k in range(1, cfg.n_copies):
        mat = embed(v, [k, k + 1], cfg.shape) @ mat
    return mat


def amplified_instrument(cfg: CascadeConfig, delta: Outcome, output, b) -> InstrumentResult:
    """Instrument read off a cascade output, `cascade_apply(cfg, xi)`, with the
    outcome indicator on every probe leg; one output serves every outcome."""
    b = np.asarray(b, dtype=complex)
    m = cfg.rep.system_dim
    if b.shape != (m, m):
        raise CascadeError(f"observable shape {b.shape} vs system dim {m}")
    if np.shape(output) != cfg.shape:
        raise CascadeError(f"cascade output shape {np.shape(output)} vs {cfg.shape}")
    indicator = np.zeros(cfg.rep.group.size)
    for chi in delta.characters:
        indicator[chi.index] = 1.0
    projected = output
    for axis in range(1, cfg.n_copies + 1):
        shape = [1] * projected.ndim
        shape[axis] = -1
        projected = projected * indicator.reshape(shape)

    mmat = projected.reshape(m, -1)
    rho = mmat @ mmat.conj().T
    prob = float(np.trace(rho).real)
    cond = complex(np.trace(b @ rho))
    post = rho / prob if prob > 1e-300 else None
    return InstrumentResult(
        probability=prob if post is not None else 0.0,
        conditional_expectation=cond,
        post_state=post,
    )


def check_instrument_equality(
    cfg: CascadeConfig, delta: Outcome, xi, b, amplified: InstrumentResult
) -> float:
    """|single-probe instrument - `amplified`| on the observable, where
    `amplified` is the amplified instrument of the same delta, xi and b."""
    one = instrument(cfg.rep, delta, xi, np.asarray(b, dtype=complex))
    return abs(one.conditional_expectation - amplified.conditional_expectation)


def intertwiner_chain_check(group: FiniteAbelianGroup, gamma: Character, n: int) -> float:
    """Residual of  V_{N,N+1}...V_12 (t_gamma x 1^N) = t_gamma^(N+1) V_{N,N+1}...V_12.

    All factors are permutations, so both sides are composed exactly on basis
    indices; the residual is the Frobenius norm of the difference.
    """
    if gamma.group != group:
        raise CascadeError("character belongs to a different group")
    g = group.size
    legs = n + 1
    vp = build_V(group)

    chain = np.arange(g**legs)
    # operator product V_{N,N+1} ... V_12: rightmost factor acts first
    for k in range(n):  # pairs (k, k+1), applied in increasing k
        stage = _kron_perm(np.arange(g**k), vp, np.arange(g ** (n - k - 1)))
        chain = stage[chain]

    t = group.add_indices(gamma.index, np.arange(g))
    lam_first = _kron_perm(t, np.arange(g**n))
    lam_all = _kron_perm(*[t] * legs)

    lhs = _perm_product(chain, lam_first)
    rhs = _perm_product(lam_all, chain)
    return _perm_residual(lhs, rhs)


def heisenberg_T(cfg: CascadeConfig, a, fs) -> np.ndarray:
    """Heisenberg-picture map conjugating A x f_2 x ... x f_{N+1} by the
    cascade stages; each f is a diagonal (character-basis) probe function."""
    a = np.asarray(a, dtype=complex)
    m, g, n = cfg.rep.system_dim, cfg.rep.group.size, cfg.n_copies
    if a.shape != (m, m):
        raise CascadeError(f"system operator shape {a.shape} vs system dim {m}")
    if len(fs) != n:
        raise CascadeError(f"need {n} probe functions, got {len(fs)}")
    diags = []
    for f in fs:
        f = np.asarray(f, dtype=complex)
        if f.shape == (g, g):
            if np.linalg.norm(f - np.diag(np.diag(f))) > 1e-12:
                raise CascadeError("probe operators must be diagonal in the character basis")
            f = np.diag(f)
        if f.shape != (g,):
            raise CascadeError(f"probe function shape {f.shape} vs group size {g}")
        diags.append(f)

    big = a
    for f in diags:
        big = np.kron(big, np.diag(f))
    u = cascade_unitary(cfg)
    return u.conj().T @ big @ u
