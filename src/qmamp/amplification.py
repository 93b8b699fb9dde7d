"""Amplification cascade: copy the probe label across N tensor legs.

The cascade applies the coupling unitary on (system, probe 1) and then the
copy unitary on successive probe pairs, turning xi x |trivial>^N into
sum_gamma E(gamma) xi x |gamma>^N.  Probabilities read off the cascade
output agree with the single-probe instrument for every N (`scenarios.amplify`
reports the gap on every row); the chain of copy unitaries intertwines a
translation on the first probe leg with the diagonal translation on all legs.

The cascade output is a redundant record with at most |G| nonzero probe
tuples, so `cascade_apply` returns it on that support as one value, a
`CascadeOutput`: its config, a (k, N) array of probe labels and an (m, k)
array of system amplitudes, never the m |G|^N tensor.
The first stage (UtildeV, not a permutation) is `measurement.couple`, which
applies its trivial label columns, E(chi) at label chi, so no dense
coupling matrix is built.  The copy stages V_{N-1,N} ... V_12 each map the
label pair (a, b) on their legs to (a, a + b), so together they are a
prefix sum along the legs in the group law, `copy_scan`: one cumulative sum
per cyclic factor, with no loop over the legs.  `amplified_instrument`
reads the output whole, its config included, and keeps the columns whose
labels all lie in the outcome.

`intertwiner_chain_check` takes its group from the character gamma.  It
composes V's index map exactly on all g^(N+1) basis indices while that is
small (`chain_samples`): it forms t_gamma^(N+1) once, by squaring, and
compares the two sides over chunks of first-leg blocks, one gather each.
The copy chain does not depend on gamma, so it is cached for the characters
at one N, and the chain of N is the cached chain of N - 1 with V appended on
its last leg pair, so ascending N build one leg each; V's index map is built
once per group.  Every index it composes is below CHAIN_WORK = 2^27, so its
index maps are int32.  It holds the chain, t_gamma^(N+1) and a gather, or
the build's temporaries beside the last N's chain, about
4 g^N max(g + 5, 2g + 2) bytes.  Above that it checks the same identity
through `copy_scan` on a sample of basis tuples hashed by `ktops._splitmix`,
as `ktops.verify_pentagonal` samples its triples.

The characters whose identity holds on a chain C form a subgroup:
gamma -> t_gamma is a homomorphism, t_(gamma + gamma') = t_gamma t_gamma',
so the identity for gamma and gamma' composes to the one for
gamma + gamma', and t_0 is the identity, for any map C.  So the trivial
character's residual is 0.0 without a check, on both paths, and an
exhaustive check that finds no mismatch proves the subgroup that gamma
generates with the characters already proven on that chain object: a later
character of that subgroup returns 0.0 without composing anything.  Both
are exact, not estimates.  A check that finds mismatches proves nothing, so
a faulty chain has each of its other characters composed, and every
residual equals the one a full composition gives.  A sample proves nothing
beyond its own tuples, so the sampled path composes every nontrivial
character.
The dense cascade matrix and the Heisenberg-picture map are test oracles
(`tests/dense_oracle.py`).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .groups import Character, FiniteAbelianGroup
from .ktops import _kron_power, _splitmix, build_V
from .measurement import InstrumentResult, Outcome, SpectralRepresentation, couple


class CascadeError(ValueError):
    pass


# Sizes of the chain check at one N.  It composes V's index map on every
# basis index while its |G| characters take at most CHAIN_WORK index
# operations, |G|^(N+2), so every index it builds, and the build's
# high * |G|, fits in int32; it holds at most CHAIN_BYTES = 192 MiB
# (`_exhaustive_chain_bytes`), and its one-leg-at-a-time build recurses over
# fewer than 64 legs.  It compares the two sides at least CHAIN_GATHER
# entries per gather: a block that large alone, as a view, and smaller ones
# several to a copied gather.  (At 1 << 16 the z3 clock's 59,049-entry
# blocks at N = 10 were copied two at a time, and in a fresh process the
# checks of N = 1..10 took 40% longer, mostly in page faults on the copies.)
# Above that each character scans the same sample of basis tuples, hashed
# from ktops.CHECK_SEED, sized so that the |G| characters scan about
# CHAIN_SAMPLE_WORK labels, at least one tuple.
CHAIN_WORK = 1 << 27
CHAIN_BYTES = 3 << 26
CHAIN_SAMPLE_WORK = 1 << 21
CHAIN_GATHER = 1 << 14


@dataclass(frozen=True)
class CascadeConfig:
    rep: SpectralRepresentation
    n_copies: int

    def __post_init__(self):
        if self.n_copies < 1:
            raise CascadeError("need at least one probe copy")

    @property
    def state_dim(self) -> int:
        """Dimension of the dense cascade state, m |G|^N, which nothing in
        qmamp allocates (the dense test oracle does)."""
        return self.rep.system_dim * self.rep.group.size**self.n_copies


def copy_scan(group: FiniteAbelianGroup, tuples: np.ndarray) -> np.ndarray:
    """Labels of the (k, L) label tuples after V_{L-1,L} ... V_12: leg j
    gets the group sum of legs 0..j, one cumulative sum per cyclic factor.
    It holds about four (k, L) index arrays, input and output included."""
    out = np.zeros_like(tuples)
    for n, stride in group._strides():
        if n > 1:  # a trivial factor adds nothing
            out += np.cumsum(tuples // stride % n, axis=1) % n * stride
    return out


@dataclass(frozen=True, eq=False)
class CascadeOutput:
    """The cascade output of `cascade_apply(cfg, xi)` on its support:
    sum_j amps[:, j] x |tuples[j]>, with tuples a (k, N) array of probe
    labels and amps an (m, k) array, k <= |G|.  Only `cascade_apply` builds
    one, so it checks nothing itself."""

    cfg: CascadeConfig
    tuples: np.ndarray
    amps: np.ndarray


def cascade_apply(cfg: CascadeConfig, xi) -> CascadeOutput:
    """Cascade output of a normalized system state, on its support.

    Probe legs start in the trivial character.  Stage one is `couple`, and
    the labels whose column is nonzero are kept; the copy stages are
    `copy_scan`, and leave the amplitudes alone.
    """
    amps = couple(cfg.rep, xi)
    labels = np.flatnonzero(amps.any(axis=0))
    tuples = np.zeros((len(labels), cfg.n_copies), dtype=np.intp)  # index 0 is trivial
    tuples[:, 0] = labels
    return CascadeOutput(cfg, copy_scan(cfg.rep.group, tuples), amps[:, labels])


def amplified_instrument(output: CascadeOutput, delta: Outcome, b) -> InstrumentResult:
    """Instrument read off a cascade output with the outcome indicator on
    every probe leg; one output serves every outcome.  With `kept` the k
    support columns whose labels all lie in Delta, the probability is
    ||kept||_F^2 and the expectation <kept, B kept>, k d^2 multiply-adds,
    with no d x d state formed; probability at most 1e-300 reads 0.0, as in
    `measurement.instrument`."""
    if not isinstance(output, CascadeOutput):
        raise CascadeError("cascade output must be the CascadeOutput that cascade_apply returns")
    rep = output.cfg.rep
    b = np.asarray(b, dtype=complex)
    if b.shape != (rep.system_dim, rep.system_dim):
        raise CascadeError(f"observable shape {b.shape} vs system dim {rep.system_dim}")
    indicator = np.zeros(rep.group.size, dtype=bool)
    indicator[[chi.index for chi in delta.characters]] = True
    kept = output.amps[:, indicator[output.tuples].all(axis=1)]
    prob = float(np.vdot(kept, kept).real)
    return InstrumentResult(prob if prob > 1e-300 else 0.0, complex(np.vdot(kept, b @ kept)))


def chain_samples(group: FiniteAbelianGroup, n: int) -> int:
    """Basis tuples of N + 1 labels that `intertwiner_chain_check` samples at
    N = n, or 0 where it checks every basis index."""
    g = group.size
    if n < 64 and g ** (n + 2) <= CHAIN_WORK and _exhaustive_chain_bytes(g, n) <= CHAIN_BYTES:
        return 0
    return max(1, CHAIN_SAMPLE_WORK // (g * (n + 1)))


def label_bytes(group: FiniteAbelianGroup, m: int, n: int) -> int:
    """Bytes of label arrays that `cascade_apply`, its instruments and the
    chain checks hold at N = n for a representation of `group` with m
    projections, estimated from tracemalloc peaks: 32 per label of the
    (k, N) support, k at most the m assigned characters (the scan's four
    arrays), plus `_exhaustive_chain_bytes` for an exhaustive chain check or
    40 per label of a sampled one."""
    samples = chain_samples(group, n)
    chain = 40 * samples * (n + 1) if samples else _exhaustive_chain_bytes(group.size, n)
    return 32 * m * n + chain


def _exhaustive_chain_bytes(g: int, n: int) -> int:
    """Bytes an exhaustive chain check holds at |G| = g and N = n, 4 g^N
    max(g + 5, 2g + 2), as tracemalloc peaks show: 4 bytes per int32 index,
    where the build holds the last N's cached chain beside the chain and its
    temporaries, and the check holds the chain, t_gamma^(N+1), one gathered
    block and its comparison (numpy widens a gather's int32 indices to intp,
    one block at a time).  Where a block holds under CHAIN_GATHER entries, a
    gather spans several blocks and adds up to about 0.5 MiB."""
    return 4 * g**n * max(g + 5, 2 * g + 2)


def intertwiner_chain_check(gamma: Character, n: int) -> float:
    """Residual of  V_{N,N+1}...V_12 (t_gamma x 1^N) = t_gamma^(N+1) V_{N,N+1}...V_12.

    All factors are permutations, so both sides are composed exactly on basis
    indices.  With the chain's rows[a] its block of first-leg value a,
    t_gamma x 1 moves only the first leg, so the left side on block a is
    rows[t[a]], and the right side is t_gamma^(N+1), formed once, gathered
    through rows[a]; the blocks are compared in chunks of at least
    CHAIN_GATHER entries.  The residual is sqrt(2 x the basis indices whose
    images differ), the Frobenius norm of the difference.  Where
    `chain_samples` is s > 0, both sides are evaluated through `copy_scan` on
    s basis tuples instead, the same at every call, their labels hashed from
    counters 0, 1, ... by `ktops._splitmix`; the residual is sqrt(2 x the
    tuples whose images differ).

    The residual of the trivial character is 0.0 at once: t_0 is the
    identity, so both sides are the same map.  An exhaustive check with no
    mismatch proves its subgroup on the chain object it read
    (`_prove_subgroup`), and a character of a proven subgroup returns 0.0
    without composing anything: the identity for gamma and gamma' gives it
    for gamma + gamma', as t_(gamma + gamma') = t_gamma t_gamma'.  Both
    results are the ones a composition gives, exactly.
    """
    if n < 1:
        raise CascadeError("need at least one probe copy")
    if gamma.index == 0:
        return 0.0
    group = gamma.group
    samples = chain_samples(group, n)
    if samples:
        x = _splitmix(np.arange(samples * (n + 1), dtype=np.uint64)) % np.uint64(group.size)
        x = x.astype(np.intp).reshape(samples, n + 1)
        rhs = group.add_indices(gamma.index, copy_scan(group, x))
        x[:, 0] = group.add_indices(gamma.index, x[:, 0])
        mismatches = np.count_nonzero((copy_scan(group, x) != rhs).any(axis=1))
        return float(np.sqrt(2.0 * mismatches))
    g = group.size
    # the chain first: a build would otherwise hold t_all beside its own peak
    chain = _copy_chain(group, n)
    if _proof[0]() is not chain:  # no proof is held for this chain object yet
        _proof[:] = [weakref.ref(chain), np.arange(g) == 0]
    proven = _proof[1]
    if proven[gamma.index]:
        return 0.0
    rows = chain.reshape(g, -1)
    t = group.add_indices(gamma.index, np.arange(g)).astype(np.int32)
    t_all = _kron_power(t, n + 1)
    step = -(-CHAIN_GATHER // rows.shape[1])  # first-leg blocks per gather
    mismatches = 0
    for a in range(0, g, step):
        a = a if step == 1 else slice(a, a + step)  # one block stays a view
        mismatches += np.count_nonzero(rows[t[a]] != t_all[rows[a]])
    if mismatches == 0:
        _prove_subgroup(group, proven, gamma.index)
    return float(np.sqrt(2.0 * mismatches))


# The characters whose chain identity is proven on one chain object: a weak
# reference to that chain, so that a proof keeps no chain alive and dies with
# it, and a mask over the character indices, a subgroup that starts as the
# trivial character alone.
_proof = [lambda: None, None]


def _prove_subgroup(group: FiniteAbelianGroup, proven: np.ndarray, index: int) -> None:
    """Mark in `proven`, the mask of a subgroup H of the characters, the
    subgroup H + <gamma> for gamma at `index`: the cosets H + k gamma for
    k = 1, 2, ... until one is H again."""
    coset = np.flatnonzero(proven)  # H, from the trivial character
    while True:
        coset = group.add_indices(index, coset)
        if proven[coset[0]]:  # k gamma lies in H
            return
        proven[coset] = True


@functools.lru_cache(maxsize=1)
def _copy_chain(group: FiniteAbelianGroup, n: int) -> np.ndarray:
    """Read-only int32 basis map of V_{N,N+1} ... V_12 on N + 1 legs.  It does
    not depend on gamma, so a loop over the characters at one N builds it
    once, and it extends the chain of N - 1 by one leg, which the cache holds
    after a loop at N - 1 (else that chain is built first, from V_12 up)."""
    v = _pair_map(group)  # V_12 on two legs
    if n == 1:
        return v
    chain = _extend_chain(_copy_chain(group, n - 1), v.reshape(group.size, group.size))
    chain.setflags(write=False)
    return chain


@functools.lru_cache(maxsize=1)
def _pair_map(group: FiniteAbelianGroup) -> np.ndarray:
    """Read-only int32 index map of V, built once for the chains of a group."""
    v = build_V(group).astype(np.int32)
    v.setflags(write=False)
    return v


def _extend_chain(chain: np.ndarray, pair_map: np.ndarray) -> np.ndarray:
    """Basis map of V_{k+1,k+2} (chain x 1) for a chain on k + 1 legs, where
    pair_map[p, q] is V's image of the leg pair (p, q).

    chain x 1 sends (x, q) to y = chain[x] g + q, whose last two legs are
    y % g^2 = (chain[x] % g, q); V replaces them and keeps y - y % g^2.
    """
    g = len(pair_map)
    # chain % g in one buffer: a floor division and a multiply-subtract take
    # about a quarter of the time of numpy's integer remainder
    last = chain // g
    last *= g
    np.subtract(chain, last, out=last)
    out = np.take(pair_map, last, axis=0)  # pair_map[last] copies row by row, 13x slower
    high = chain - last
    high *= g
    out += high[:, None]
    return out.reshape(-1)
