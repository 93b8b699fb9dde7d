"""Amplification cascade: copy the probe label across N tensor legs.

The cascade applies the coupling unitary on (system, probe 1) and then the
copy unitary on successive probe pairs, turning xi x |trivial>^N into
sum_gamma c_gamma xi_gamma x |gamma>^N.  Probabilities read off the cascade
output agree with the single-probe instrument for every N; the chain of copy
unitaries intertwines a translation on the first probe leg with the diagonal
translation on all legs.

The copy stages and translations are permutations and run as integer index
maps.  `cascade_apply` works stage-wise on the state tensor and never
materializes the cascade unitary: the first stage (UtildeV, not a
permutation) is a small dense contraction, and each copy stage is a gather
through the index map of V.  `intertwiner_chain_check` composes the stage
maps exactly on basis indices.  `cascade_unitary` builds the full dense
matrix for small leg counts and serves as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Character, FiniteAbelianGroup
from .hilbert import DenseOperator, LegSpace, StateVector, embed, leg_space
from .ktops import _kron_perm, _perm_product, _perm_residual, _v_pair_map, build_UtildeV, build_V
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


@dataclass(frozen=True)
class CascadeConfig:
    rep: SpectralRepresentation
    n_copies: int
    lazy_threshold: int = 4  # legs; above this the cascade matrix is never built
    memory_budget: int = DEFAULT_MEMORY_BUDGET

    def __post_init__(self):
        if self.n_copies < 1:
            raise CascadeError("need at least one probe copy")
        if self.state_dim > self.memory_budget:
            raise CascadeError(
                f"state dimension {self.state_dim} exceeds memory budget {self.memory_budget}"
            )

    @property
    def state_dim(self) -> int:
        return self.rep.system_dim * self.rep.group.size**self.n_copies

    @property
    def space(self) -> LegSpace:
        g = self.rep.group.size
        legs = [("sys", self.rep.system_dim)]
        legs += [(f"probe{i}", g) for i in range(1, self.n_copies + 1)]
        return leg_space(*legs)


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


def cascade_apply(cfg: CascadeConfig, xi, inverse: bool = False) -> StateVector:
    """Stage-wise cascade output for a normalized system state.

    Probe legs start in the trivial character.  With `inverse=True` the adjoint
    stages are applied in reverse to a cascade output, recovering the
    decoupled state.
    """
    g = cfg.rep.group.size
    n = cfg.n_copies
    if isinstance(xi, StateVector):
        if xi.space != cfg.space:
            raise CascadeError("state space does not match cascade configuration")
        tensor = xi.as_tensor().copy()
    else:
        xi = _check_state(cfg.rep, xi)
        tensor = xi.reshape(cfg.rep.system_dim, *(1,) * n) * _iota_block(g, n)

    utv = build_UtildeV(cfg.rep).matrix
    vp = _v_pair_map(cfg.rep.group)
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
    return StateVector(cfg.space, tensor.reshape(-1))


def _iota_block(g: int, n: int) -> np.ndarray:
    block = np.zeros((1,) + (g,) * n, dtype=complex)
    block[(0,) + (0,) * n] = 1.0
    return block


def cascade_unitary(cfg: CascadeConfig, force: bool = False) -> DenseOperator:
    """Materialized cascade matrix V_{N,N+1} ... V_23 UtildeV_12 (oracle path)."""
    if cfg.state_dim**2 > cfg.memory_budget:
        raise CascadeError("cascade matrix would exceed the memory budget")
    if not force and cfg.n_copies + 1 > cfg.lazy_threshold:
        raise CascadeError(
            f"{cfg.n_copies + 1} legs exceed the lazy threshold {cfg.lazy_threshold};"
            " use cascade_apply"
        )
    space = cfg.space
    utv = build_UtildeV(cfg.rep)
    v = build_V(cfg.rep.group)
    mat = embed(utv, ["sys", "probe1"], space).matrix
    for k in range(1, cfg.n_copies):
        mat = embed(v, [f"probe{k}", f"probe{k + 1}"], space).matrix @ mat
    return DenseOperator(space, mat)


def amplified_instrument(cfg: CascadeConfig, delta: Outcome, xi, b) -> InstrumentResult:
    """Instrument read off the cascade output with the outcome indicator on
    every probe leg."""
    b = np.asarray(b, dtype=complex)
    m = cfg.rep.system_dim
    if b.shape != (m, m):
        raise CascadeError(f"observable shape {b.shape} vs system dim {m}")
    out = cascade_apply(cfg, xi).as_tensor()

    indicator = np.zeros(cfg.rep.group.size)
    for chi in delta.characters:
        indicator[chi.index] = 1.0
    projected = out.copy()
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


def check_instrument_equality(cfg: CascadeConfig, delta: Outcome, xi, b) -> float:
    """|single-probe instrument - amplified instrument| on the observable."""
    one = instrument(cfg.rep, delta, xi, np.asarray(b, dtype=complex))
    many = amplified_instrument(cfg, delta, xi, b)
    return abs(one.conditional_expectation - many.conditional_expectation)


def intertwiner_chain_check(group: FiniteAbelianGroup, gamma: Character, n: int) -> float:
    """Residual of  V_{N,N+1}...V_12 (t_gamma x 1^N) = t_gamma^(N+1) V_{N,N+1}...V_12.

    All factors are permutations, so both sides are composed exactly on basis
    indices; the residual is the Frobenius norm of the difference.
    """
    if gamma.group != group:
        raise CascadeError("character belongs to a different group")
    g = group.size
    legs = n + 1
    vp = _v_pair_map(group)

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


def heisenberg_T(cfg: CascadeConfig, a, fs) -> DenseOperator:
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
    u = cascade_unitary(cfg, force=True).matrix
    return DenseOperator(cfg.space, u.conj().T @ big @ u)
