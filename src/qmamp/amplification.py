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
The first stage (UtildeV, not a permutation) is applied through its trivial
label columns, which hold E(chi) at label chi, so no dense coupling matrix
is built; each copy stage V is a permutation and moves the labels by the
group law.  `amplified_instrument` keeps the columns whose labels all lie in
the outcome.  `intertwiner_chain_check` composes the stage maps exactly on
all g^(N+1) basis indices, one first-leg value at a time, and reuses the
copy chain, which does not depend on gamma, across the characters at one N.
The chain is built one leg at a time by appending V on the last leg pair,
so building and checking it hold about three g^(N+1)-entry index arrays.
The dense cascade matrix and the Heisenberg-picture map are test oracles
(`tests/dense_oracle.py`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .groups import Character, FiniteAbelianGroup
from .ktops import _kron_perm, build_V
from .measurement import (
    InstrumentResult,
    Outcome,
    SpectralRepresentation,
    _check_state,
    instrument,
)


class CascadeError(ValueError):
    pass


# Bounds on N.  The cascade output has at most m |G| amplitudes at any N, so
# these bound the intertwiner chain check: the budget bounds m |G|^N, which
# keeps the chain check's |G|^(N+1)-entry index arrays within |G| times it
# (the check holds about three of them, 96 MiB for sigma_z at N = 21), and
# MAX_COPIES keeps N finite for the trivial group, whose chain check is a
# single index at every N.
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
                f"{self.n_copies} probe copies exceed the bound of {MAX_COPIES}"
            )
        if self.state_dim > DEFAULT_MEMORY_BUDGET:
            raise CascadeError(
                f"state dimension {self.state_dim} exceeds memory budget {DEFAULT_MEMORY_BUDGET}"
            )

    @property
    def state_dim(self) -> int:
        return self.rep.system_dim * self.rep.group.size**self.n_copies


def cascade_apply(cfg: CascadeConfig, xi) -> tuple[np.ndarray, np.ndarray]:
    """Cascade output on its support, (tuples, amps), for a normalized system
    state: the output is sum_j amps[:, j] x |tuples[j]>, with tuples a (k, N)
    array of probe labels and amps an (m, k) array, k <= |G|.

    Probe legs start in the trivial character.  Stage one applies the trivial
    label columns of UtildeV, the (m, |G|, m) array holding E(chi) at label
    chi, to xi and keeps the labels whose column is nonzero; each copy stage
    maps the label pair (a, b) on its two legs to (a, a + b), as V does, and
    leaves the amplitudes alone.
    """
    xi = _check_state(cfg.rep, xi)
    m, group = cfg.rep.system_dim, cfg.rep.group
    cols = np.zeros((m, group.size, m), dtype=complex)
    for chi, proj in cfg.rep.projections.items():
        cols[:, chi.index, :] = proj
    # einsum, not a BLAS product, so the amplitudes equal those of the dense
    # stage-one contraction bit for bit
    amps = np.einsum("rcs,s->rc", cols, xi)
    labels = np.flatnonzero(amps.any(axis=0))
    tuples = np.full((len(labels), cfg.n_copies), group.trivial_character.index, dtype=np.intp)
    tuples[:, 0] = labels
    for k in range(1, cfg.n_copies):
        tuples[:, k] = group.add_indices(tuples[:, k - 1], tuples[:, k])
    return tuples, amps[:, labels]


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
    indices, one first-leg value a at a time: t_gamma x 1 moves only the first
    leg, so the left side on block a is the chain's contiguous block t[a],
    and the right side applies t to the first leg and t^(x N) to the other
    legs of the chain's block a.  The residual is the Frobenius norm of the
    difference.
    """
    if gamma.group != group:
        raise CascadeError("character belongs to a different group")
    g = group.size
    block = g**n
    chain = _copy_chain(group, n)
    t = group.add_indices(gamma.index, np.arange(g))
    t_first, t_rest = t * block, _kron_perm(*[t] * n)
    mismatches = 0
    for a in range(g):
        lhs = chain[t[a] * block : (t[a] + 1) * block]
        image = chain[a * block : (a + 1) * block]
        rhs = t_rest[image % block]
        rhs += t_first[image // block]
        mismatches += np.count_nonzero(lhs != rhs)
    return float(np.sqrt(2.0 * mismatches))


@functools.lru_cache(maxsize=1)
def _copy_chain(group: FiniteAbelianGroup, n: int) -> np.ndarray:
    """Read-only basis map of V_{N,N+1} ... V_12 on N + 1 legs, built one leg
    at a time; it does not depend on gamma, so a loop over the characters at
    one N builds it once."""
    chain = build_V(group)  # V_12 on two legs
    pair_map = chain.reshape(group.size, group.size)
    for _ in range(n - 1):
        chain = _extend_chain(chain, pair_map)
    chain.setflags(write=False)
    return chain


def _extend_chain(chain: np.ndarray, pair_map: np.ndarray) -> np.ndarray:
    """Basis map of V_{k+1,k+2} (chain x 1) for a chain on k + 1 legs, where
    pair_map[p, q] is V's image of the leg pair (p, q).

    chain x 1 sends (x, q) to y = chain[x] g + q, whose last two legs are
    y % g^2 = (chain[x] % g, q); V replaces them and keeps y - y % g^2.
    """
    g = len(pair_map)
    last = chain % g
    out = pair_map[last]
    out += ((chain - last) * g)[:, None]
    return out.reshape(-1)
