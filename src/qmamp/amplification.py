"""Amplification cascade: copy the probe label across N tensor legs.

The cascade applies the coupling unitary on (system, probe 1) and then the
copy unitary on successive probe pairs, turning xi x |trivial>^N into
sum_gamma E(gamma) xi x |gamma>^N.  Probabilities read off the cascade
output agree with the single-probe instrument for every N; the chain of copy
unitaries intertwines a translation on the first probe leg with the diagonal
translation on all legs.

The cascade output is a redundant record with at most |G| nonzero probe
tuples, so `cascade_apply` holds it on that support: a (k, N) array of probe
labels and an (m, k) array of system amplitudes, never the m |G|^N tensor.
The first stage (UtildeV, not a permutation) is applied to the trivial label
columns only; each copy stage V is a permutation and moves the labels
through its integer index map.  `amplified_instrument` keeps the columns
whose labels all lie in the outcome.  `intertwiner_chain_check` composes the
stage maps exactly on all g^(N+1) basis indices, and reuses the copy chain,
which does not depend on gamma, across the characters at one N.
`cascade_unitary` builds the full dense matrix with `hilbert.embed` on leg
positions, from the dense 0/1 matrix of V; `heisenberg_T`, the
Heisenberg-picture map, conjugates by it.
"""

from __future__ import annotations

import functools
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


# Bounds on N, kept from the dense cascade state that the amplify path no
# longer holds (its support has at most m |G| amplitudes).  The budget bounds
# m |G|^N, the size of that state, so the chain check's |G|^(N+1) basis
# indices stay within |G| times it; `cascade_unitary` squares it.  MAX_COPIES
# bounds the N + 1 tensor legs of the dense state and of `cascade_unitary`
# (numpy arrays have at most 64 axes) and is the only bound for a trivial group.
DEFAULT_MEMORY_BUDGET = 1 << 22  # amplitudes
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
        """Tensor shape of a dense cascade state: the system leg, then N probe legs."""
        return (self.rep.system_dim,) + (self.rep.group.size,) * self.n_copies


def cascade_apply(cfg: CascadeConfig, xi) -> tuple[np.ndarray, np.ndarray]:
    """Cascade output on its support, (tuples, amps), for a normalized system
    state: the output is sum_j amps[:, j] x |tuples[j]>, with tuples a (k, N)
    array of probe labels and amps an (m, k) array, k <= |G|.

    Probe legs start in the trivial character.  Stage one applies the trivial
    label columns of UtildeV to xi and keeps the labels whose column is
    nonzero; each copy stage maps the label pair on its two legs through the
    index map of V and leaves the amplitudes alone.
    """
    xi = _check_state(cfg.rep, xi)
    m, g = cfg.rep.system_dim, cfg.rep.group.size
    iota = cfg.rep.group.trivial_character.index
    amps = (build_UtildeV(cfg.rep)[:, iota::g] @ xi).reshape(m, g)
    labels = np.flatnonzero(amps.any(axis=0))
    tuples = np.full((len(labels), cfg.n_copies), iota, dtype=np.intp)
    tuples[:, 0] = labels
    vp = build_V(cfg.rep.group)
    for k in range(1, cfg.n_copies):
        tuples[:, k - 1], tuples[:, k] = np.divmod(vp[tuples[:, k - 1] * g + tuples[:, k]], g)
    return tuples, amps[:, labels]


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
    m, g = cfg.rep.system_dim, cfg.rep.group.size
    if b.shape != (m, m):
        raise CascadeError(f"observable shape {b.shape} vs system dim {m}")
    tuples, amps = _check_support(cfg, output)
    indicator = np.zeros(g, dtype=bool)
    indicator[[chi.index for chi in delta.characters]] = True
    kept = amps[:, indicator[tuples].all(axis=1)]
    rho = kept @ kept.conj().T
    prob = float(np.trace(rho).real)
    cond = complex(np.trace(b @ rho))
    post = rho / prob if prob > 1e-300 else None
    return InstrumentResult(
        probability=prob if post is not None else 0.0,
        conditional_expectation=cond,
        post_state=post,
    )


def _check_support(cfg: CascadeConfig, output) -> tuple[np.ndarray, np.ndarray]:
    """(tuples, amps) of a cascade output, if it is a support of cfg's shape."""
    try:
        tuples, amps = output
    except (TypeError, ValueError):
        raise CascadeError("cascade output must be a (tuples, amps) pair") from None
    tuples, amps = np.asarray(tuples), np.asarray(amps)
    g = cfg.rep.group.size
    if tuples.ndim != 2 or tuples.shape[1] != cfg.n_copies:
        raise CascadeError(
            f"cascade output tuples have shape {tuples.shape}, expected (k, {cfg.n_copies})"
        )
    if not np.issubdtype(tuples.dtype, np.integer) or not np.all((0 <= tuples) & (tuples < g)):
        raise CascadeError(f"cascade output labels must be integers in range({g})")
    if amps.shape != (cfg.rep.system_dim, len(tuples)):
        raise CascadeError(
            f"cascade output amplitudes have shape {amps.shape},"
            f" expected ({cfg.rep.system_dim}, {len(tuples)})"
        )
    return tuples, amps


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
    chain = _copy_chain(group, n)
    t = group.add_indices(gamma.index, np.arange(g))
    lam_first = _kron_perm(t, np.arange(g**n))
    lam_all = _kron_perm(*[t] * legs)

    lhs = _perm_product(chain, lam_first)
    rhs = _perm_product(lam_all, chain)
    return _perm_residual(lhs, rhs)


@functools.lru_cache(maxsize=1)
def _copy_chain(group: FiniteAbelianGroup, n: int) -> np.ndarray:
    """Read-only basis map of V_{N,N+1} ... V_12 on N + 1 legs; it does not
    depend on gamma, so a loop over the characters at one N builds it once."""
    g = group.size
    vp = build_V(group)
    chain = np.arange(g ** (n + 1))
    # operator product V_{N,N+1} ... V_12: rightmost factor acts first
    for k in range(n):  # pairs (k, k+1), applied in increasing k
        stage = _kron_perm(np.arange(g**k), vp, np.arange(g ** (n - k - 1)))
        chain = stage[chain]
    chain.setflags(write=False)
    return chain


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
