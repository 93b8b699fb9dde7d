"""Measurement coupling unitaries on two tensor legs and their defining relations.

`build_W` acts on functions of two group arguments by (a, b) -> (a + b, b);
`build_V` is its Fourier conjugate on the dual side, acting by (a, b) -> (a, a + b),
i.e. it copies the first label onto a trivial second slot.  `build_UtildeV`
is the coupling on system x dual-group probe that correlates system sectors
with probe labels, the Fourier transform of W represented on the system
space through a spectral family.

W, V and the group translations are permutations of basis indices, and they
are represented only as integer index maps p (e_j -> e_{p[j]}), built by
vectorised index arithmetic.  Relation checks return Frobenius-norm
residuals.  The pentagonal check composes the index maps on every basis
triple of three legs, up to PENTAGONAL_BYTES, and on a seeded sample of
triples above it.  The intertwining check composes them for one generator
translation per nontrivial cyclic factor, which proves the relation for
every translation, in one (|G|^2) gather each.  Where they compare whole
maps the residual sqrt(2 * #mismatched columns) equals the dense Frobenius
norm exactly.  The Fourier conjugation residual is estimated on seeded
probes, to which F x F is applied as F X F with the dense |G| x |G| DFT
matrix on small groups and as one FFT over both legs' factor axes on
large ones, O(|G|^2 log |G|) per probe; F x F (|G|^4 entries) is never
built.
`relation_bytes` and `relation_work` model what checking one group holds
and costs, for the bounds of a relations run.
`build_UtildeV` is not a permutation; it returns a plain dense matrix on
system x group, the system leg most significant, with each E(chi) written
at the probe index pairs of lambda_chi, and is the reference the coupled
picture of `measurement` is checked against.  The represented W and
the represented relations, like the exact Fourier residual, are dense test
oracles (`tests/dense_oracle.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, _fft_shape


class KTError(ValueError):
    pass


# The Fourier conjugation check applies its difference to FOURIER_PROBES
# probes hashed from CHECK_SEED.  Up to order FOURIER_DENSE it transforms
# them all at once by products with the dense DFT matrix, which cost less
# than numpy's FFT calls, one per factor axis (Z_2^4: 0.08 ms against
# 1.2 ms).  Above it, the FFT's O(|G|^2 log |G|) per probe beats the dense
# product's O(|G|^3), and one probe at a time holds a quarter of a batch's
# memory.  `verify_pentagonal` composes every basis triple while it holds
# at most PENTAGONAL_BYTES (`pentagonal_samples`), and PENTAGONAL_SAMPLES
# triples hashed from CHECK_SEED above that.  RELATION_GROUP_WORK is the
# fixed part of `relation_work`: about 0.5 ms of numpy calls that checking
# any group makes, whatever its order.
FOURIER_PROBES = 4
FOURIER_DENSE = 64
PENTAGONAL_BYTES = 1 << 27
PENTAGONAL_SAMPLES = 1 << 16
RELATION_GROUP_WORK = 1 << 14
CHECK_SEED = 20240817


def build_W(group: FiniteAbelianGroup) -> np.ndarray:
    """Index map of W on flattened pairs: basis pair (a, b) -> (a + b, b)."""
    n = group.size
    a, b = np.arange(n)[:, None], np.arange(n)
    return (group.add_indices(a, b) * n + b).reshape(-1)


def build_V(group: FiniteAbelianGroup) -> np.ndarray:
    """Index map of V on flattened dual pairs: basis pair (a, b) -> (a, a + b).

    In particular |gamma> x |trivial> -> |gamma> x |gamma>: the copy action
    that drives the amplification cascade.
    """
    n = group.size
    a, b = np.arange(n)[:, None], np.arange(n)
    return (a * n + group.add_indices(a, b)).reshape(-1)


@dataclass(frozen=True)
class KTOperatorPair:
    group: FiniteAbelianGroup
    W: np.ndarray
    V: np.ndarray

    def fourier_conjugation_residual(self) -> float:
        """|| V - (F x F) W* (F x F)^-1 ||, estimated on FOURIER_PROBES probes.

        F x F is unitary, so this is the Frobenius norm of the difference
        D = V (F x F) - (F x F) W*.  For probes x with mean 0 and E[x x*] = 1
        the mean of ||D x||^2 is ||D||^2 (Hutchinson), and as their law is
        continuous a nonzero D gives a nonzero D x with probability 1
        (Freivalds).  `_dft_both_legs` applies F x F; V scatters its output
        through V's index map, and W* x, x gathered through W's, is hashed
        from the gathered counters.  The result is the root of the mean of
        ||D x||^2, summed by einsum rather than a BLAS dot product, whose
        sum order would follow its thread count.
        """
        n = self.group.size
        f = _dft_matrix(self.group) if n <= FOURIER_DENSE else None
        batch = FOURIER_PROBES if f is not None else 1
        total = 0.0
        for first in range(0, FOURIER_PROBES, batch):
            rows = np.arange(first, first + batch, dtype=np.uint64)
            rows = rows[:, None] * np.uint64(n * n)  # probe p's entry j is counter p |G|^2 + j
            diff = np.empty((batch, n * n), dtype=complex)
            x = _probes(rows + np.arange(n * n, dtype=np.uint64))
            diff[:, self.V] = _dft_both_legs(self.group, x, f)
            x = _probes(rows + self.W.astype(np.uint64))  # x gathered through W
            diff -= _dft_both_legs(self.group, x, f)
            total += np.einsum("ij,ij->", diff.view(float), diff.view(float))
        return math.sqrt(total / FOURIER_PROBES)


def _fourier_bytes(group: FiniteAbelianGroup) -> int:
    """Bytes that `fourier_conjugation_residual` holds beside W and V, as
    tracemalloc peaks show: the difference, the probes and the transform's
    input and output, 64 bytes per probe entry of a batch, the dense DFT
    matrix where there is one, and 16 KiB for the small arrays around them."""
    n = group.size
    if n <= FOURIER_DENSE:
        return 64 * FOURIER_PROBES * n * n + 16 * n * n + (1 << 14)
    return 64 * n * n + (1 << 14)


def _splitmix(counters: np.ndarray) -> np.ndarray:
    """splitmix64 of CHECK_SEED + each uint64 counter: seeded values drawn
    without numpy.random, whose import alone takes longer than a small
    group's whole check."""
    z = counters + np.uint64(CHECK_SEED)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z


def _probes(counters: np.ndarray) -> np.ndarray:
    """One complex probe entry per uint64 counter: the real and imaginary
    parts are its hash's two 32-bit halves, uniform on [-sqrt(3/2),
    sqrt(3/2)), so each entry has mean 0 and E|x|^2 = 1."""
    parts = _splitmix(counters).view(np.uint32).astype(float)
    parts *= math.sqrt(6) / 2**32
    parts -= math.sqrt(1.5)
    return parts.view(complex)


def _dft_matrix(group: FiniteAbelianGroup) -> np.ndarray:
    """The unitary DFT matrix F[gamma, u] = conj(gamma(u)) / sqrt(|G|), the
    Kronecker product of its nontrivial factors' DFT matrices, leftmost most
    significant as the index order is.  It is symmetric."""
    f = np.ones((1, 1))
    for n in _fft_shape(group):
        k = np.arange(n)
        f = np.kron(f, np.exp(-2j * np.pi / n * (np.outer(k, k) % n)) / math.sqrt(n))
    return f


def _dft_both_legs(group: FiniteAbelianGroup, x: np.ndarray, f: np.ndarray | None) -> np.ndarray:
    """(F x F) applied to each row of the (b, |G|^2) array x: F X F for each
    row as a |G| x |G| matrix X where the DFT matrix f is given, else one
    FFT over both legs' nontrivial factor axes."""
    b, n = len(x), group.size
    if f is not None:
        return (f @ x.reshape(b, n, n) @ f).reshape(b, -1)
    shape = _fft_shape(group)
    axes = tuple(range(1, 2 * len(shape) + 1))
    return np.fft.fftn(x.reshape(b, *shape, *shape), axes=axes, norm="ortho").reshape(b, -1)


def kt_pair(group: FiniteAbelianGroup) -> KTOperatorPair:
    return KTOperatorPair(group, build_W(group), build_V(group))


def _check_pair_map(perm, d: int) -> np.ndarray:
    """perm as an index array, if it is a permutation of range(d**2)."""
    perm = np.asarray(perm)
    if (
        d < 1
        or perm.shape != (d * d,)
        or not np.issubdtype(perm.dtype, np.integer)
        or not np.array_equal(np.sort(perm), np.arange(d * d))
    ):
        raise KTError(
            f"operator must be an index map permuting range({d}**2),"
            f" got shape {perm.shape} and dtype {perm.dtype}"
        )
    return perm.astype(np.intp, copy=False)


def _kron_perm(*maps: np.ndarray) -> np.ndarray:
    """Index map of the tensor product of basis maps, leftmost leg most significant."""
    out = maps[0]
    for p in maps[1:]:
        out = (out[:, None] * len(p) + p).reshape(-1)
    return out


def _kron_power(p: np.ndarray, k: int) -> np.ndarray:
    """Index map of p^(x k), k >= 1, by squaring: about log2(k) krons, the
    largest of which writes the g^k-entry result."""
    out, power = None, p
    while True:
        if k & 1:
            out = power if out is None else _kron_perm(out, power)
        k >>= 1
        if not k:
            return out
        power = _kron_perm(power, power)


def _perm_product(*perms: np.ndarray) -> np.ndarray:
    """Composite basis map of the operator product perms[0] @ perms[1] @ ..."""
    out = perms[-1]
    for p in reversed(perms[:-1]):
        out = p[out]
    return out


def _perm_residual(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sqrt(2.0 * np.count_nonzero(p != q)))


def pentagonal_samples(d: int) -> int:
    """Basis triples that `verify_pentagonal` samples for a two-leg map of
    dimension d, or 0 where it composes every triple, which takes 56 bytes
    per triple, as tracemalloc peaks show."""
    return 0 if 56 * d**3 <= PENTAGONAL_BYTES else PENTAGONAL_SAMPLES


def verify_pentagonal(perm, orientation: str) -> float:
    """Three-leg consistency residual for the index map of a two-leg unitary.

    orientation "w": op_12 op_23 = op_23 op_13 op_12
    orientation "v": op_23 op_12 = op_12 op_13 op_23

    Both sides are composed on every basis triple, as index maps on three
    legs, while that holds at most PENTAGONAL_BYTES; the residual is then
    sqrt(2 x the triples whose images differ), the dense Frobenius norm.
    Above that, both sides map PENTAGONAL_SAMPLES basis triples hashed from
    CHECK_SEED one leg pair at a time, and the residual is sqrt(2 x the
    sampled triples whose images differ).
    """
    if orientation not in ("w", "v"):
        raise KTError(f"orientation must be 'w' or 'v', got {orientation!r}")
    d = math.isqrt(np.size(perm))
    perm = _check_pair_map(perm, d)
    samples = pentagonal_samples(d)
    if samples:
        triples = _splitmix(np.arange(3 * samples, dtype=np.uint64))
        triples = (triples % np.uint64(d)).astype(np.intp).reshape(3, -1)
        # a product of operators acts right to left: the rightmost leg pair first
        lhs, rhs = ((1, 2), (0, 1)), ((0, 1), (0, 2), (1, 2))
        if orientation == "v":
            lhs, rhs = ((0, 1), (1, 2)), ((1, 2), (0, 2), (0, 1))
        differ = [a != b for a, b in zip(_on_triples(perm, triples, lhs),
                                          _on_triples(perm, triples, rhs))]
        return float(np.sqrt(2.0 * np.count_nonzero(differ[0] | differ[1] | differ[2])))
    ident = np.arange(d)
    e12, e23 = _kron_perm(perm, ident), _kron_perm(ident, perm)
    swap23 = _kron_perm(ident, np.arange(d * d).reshape(d, d).T.reshape(-1))
    e13 = _perm_product(swap23, e12, swap23)
    if orientation == "w":
        return _perm_residual(_perm_product(e12, e23), _perm_product(e23, e13, e12))
    return _perm_residual(_perm_product(e23, e12), _perm_product(e12, e13, e23))


def _on_triples(perm: np.ndarray, triples: np.ndarray, pairs) -> list[np.ndarray]:
    """Legs of the images of basis triples (a (3, s) index array) under the
    two-leg map `perm` applied on each leg pair (i, j) of `pairs` in turn."""
    d = math.isqrt(len(perm))
    legs = list(triples)
    for i, j in pairs:
        legs[i], legs[j] = np.divmod(perm[legs[i] * d + legs[j]], d)
    return legs


def verify_intertwining(perm, group: FiniteAbelianGroup, orientation: str) -> float:
    """Max residual over the group's generators of the translation
    intertwining relation.

    orientation "w": op (1 x t_u) = (t_u x t_u) op  for translations t_u on the group
    orientation "v": op (t_g x 1) = (t_g x t_g) op  for translations on the dual

    The translations for which the relation holds form a subgroup (t_u t_v
    = t_(u+v)), so checking one generator per nontrivial cyclic factor
    proves it for every translation, and a relation that fails for some
    translation fails for some generator.  Each generator's sides are
    composed in one (|G|^2) gather each; the residual is sqrt(2 x the most
    columns in which one generator's sides differ), 0 for a group without a
    nontrivial factor.
    """
    if orientation not in ("w", "v"):
        raise KTError(f"orientation must be 'w' or 'v', got {orientation!r}")
    d = group.size
    perm = _check_pair_map(perm, d)
    ident = np.arange(d)
    first, second = np.divmod(perm, d)
    worst = 0
    for n, stride in group._factor_strides():
        t = group.add_indices(stride, ident)  # the map of the generator at index stride
        moved = ident[:, None] * d + t if orientation == "w" else t[:, None] * d + ident
        lhs = perm[moved.reshape(-1)]  # op (1 x t_u) or op (t_u x 1)
        rhs = t[first]  # (t_u x t_u) op: t_u on both legs of op's image
        rhs *= d
        rhs += t[second]
        worst = max(worst, np.count_nonzero(lhs != rhs))
    return float(np.sqrt(2.0 * worst))


def relation_bytes(group: FiniteAbelianGroup) -> int:
    """Bytes that checking the relations of `group` holds, W and V included,
    as tracemalloc peaks show: 16 per entry of |G|^2 for W and V, and the
    larger of the pentagonal check (56 per composed triple, or 96 per
    sampled triple) and `_fourier_bytes`, each with 16 KiB for the
    small arrays around it.  The builds, the intertwining check and the
    validation of each map hold less."""
    d = group.size
    samples = pentagonal_samples(d)
    pentagonal = 96 * samples if samples else 56 * d**3
    return 16 * d * d + max(pentagonal + (1 << 14), _fourier_bytes(group))


def relation_work(group: FiniteAbelianGroup) -> int:
    """Passes over single array entries that checking the relations of
    `group` makes, about 20-45 ns each on one core: for each of the m
    nontrivial cyclic factors, 20 per entry of |G|^2 (16 of them the Fourier
    check's two FFTs of FOURIER_PROBES probes over both legs' factor axes,
    an overestimate up to FOURIER_DENSE, the rest the builds' and the
    intertwining check's index arithmetic), 8 more per entry to hash and
    compare the probes, 5 per composed pentagonal triple and
    RELATION_GROUP_WORK for the calls around them."""
    d, m = group.size, sum(n > 1 for n in group.orders)
    return (20 * m + 8) * d * d + 5 * (pentagonal_samples(d) or d**3) + RELATION_GROUP_WORK


def build_UtildeV(rep) -> np.ndarray:
    """Coupling sum_chi E(chi) x lambda_chi on system x dual-group probe.

    lambda_chi translates the probe label b to chi + b, so E(chi) is written
    straight into the (system, probe, system, probe) array at the probe index
    pairs (chi + b, b); no translation matrix is built.
    """
    m, n = rep.system_dim, rep.group.size
    mat = np.zeros((m, n, m, n), dtype=complex)
    b = np.arange(n)
    for chi, proj in rep.projections.items():
        mat[:, rep.group.add_indices(chi, b), :, b] += proj
    return mat.reshape(m * n, m * n)
