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
residuals: the pentagonal and intertwining relations compose index maps, the
intertwining relation for all |G| translations at once in (|G|, |G|^2)
index arrays, and the residual sqrt(2 * #mismatched columns) equals the
dense Frobenius norm exactly.  The Fourier conjugation residual gathers rows
of F x F through the inverse maps of V and W and sums its square over the
|G| first-leg row blocks, |G|^3 entries each, so F x F itself (|G|^4
entries) is never built.
`build_UtildeV` is not a permutation; it returns a plain dense matrix on
system x group, the system leg most significant, with each E(chi) written
at the probe index pairs of lambda_chi, and is the reference the coupled
picture of `measurement` is checked against.  The represented W and
the represented relations are dense test oracles (`tests/dense_oracle.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, fourier_matrix


class KTError(ValueError):
    pass


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
        """|| V - (F x F) W* (F x F)^-1 ||.

        F x F is unitary, so this is || V (F x F) - (F x F) W* ||, whose terms
        are F x F with its rows (columns) gathered through the inverse of V (W).
        Row (i, j) of F x F is kron(F[i], F[j]), so the squared norm is summed
        over the |G| row blocks (a, .), each |G|^3 entries; F x F is never built.
        Column (c, d) of kron(F[a], F[b]) is F[a, c] F[b, d], so the W side of
        block a is F[a] and F gathered through the two legs of W's inverse.
        """
        f = fourier_matrix(self.group)
        n = self.group.size
        v_rows = np.divmod(np.argsort(self.V), n)
        w_first, w_second = np.divmod(np.argsort(self.W), n)
        f_second = f[:, w_second]  # F[b, d] at each gathered column, for every b
        # two buffers that every block reuses: fresh per-block arrays cost page faults
        diff, w_side = np.empty((2, n, n * n), dtype=complex)
        total = 0.0
        for a in range(n):
            i, j = (rows[a * n : (a + 1) * n] for rows in v_rows)
            np.multiply(f[i][:, :, None], f[j][:, None, :], out=diff.reshape(n, n, n))
            np.multiply(f_second, f[a, w_first], out=w_side)
            diff -= w_side
            # summed without BLAS, whose sum order would follow its thread count
            total += np.einsum("ij,ij->", diff.view(float), diff.view(float))
        return math.sqrt(total)


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


def verify_pentagonal(perm, orientation: str) -> float:
    """Three-leg consistency residual for the index map of a two-leg unitary.

    orientation "w": op_12 op_23 = op_23 op_13 op_12
    orientation "v": op_23 op_12 = op_12 op_13 op_23
    """
    if orientation not in ("w", "v"):
        raise KTError(f"orientation must be 'w' or 'v', got {orientation!r}")
    d = math.isqrt(np.size(perm))
    perm = _check_pair_map(perm, d)
    ident = np.arange(d)
    e12, e23 = _kron_perm(perm, ident), _kron_perm(ident, perm)
    swap23 = _kron_perm(ident, np.arange(d * d).reshape(d, d).T.reshape(-1))
    e13 = _perm_product(swap23, e12, swap23)
    if orientation == "w":
        return _perm_residual(_perm_product(e12, e23), _perm_product(e23, e13, e12))
    return _perm_residual(_perm_product(e23, e12), _perm_product(e12, e13, e23))


def verify_intertwining(perm, group: FiniteAbelianGroup, orientation: str) -> float:
    """Max residual over the group of the translation intertwining relation.

    orientation "w": op (1 x t_u) = (t_u x t_u) op  for translations t_u on the group
    orientation "v": op (t_g x 1) = (t_g x t_g) op  for translations on the dual

    Row u of the (|G|, |G|^2) index arrays is translation u, so both sides of
    every relation are composed in one gather each; the residual is
    sqrt(2 x the most columns in which one translation's sides differ).
    """
    if orientation not in ("w", "v"):
        raise KTError(f"orientation must be 'w' or 'v', got {orientation!r}")
    d = group.size
    perm = _check_pair_map(perm, d)
    ident = np.arange(d)
    t = group.add_indices(ident[:, None], ident)  # t[u] is the map of t_u
    if orientation == "w":
        moved = ident[:, None] * d + t[:, None, :]  # 1 x t_u
    else:
        moved = t[:, :, None] * d + ident  # t_u x 1
    lhs = perm[moved.reshape(d, d * d)]
    first, second = np.divmod(perm, d)
    rhs = t[:, first]  # (t_u x t_u) op: t_u on both legs of op's image
    rhs *= d
    rhs += t[:, second]
    return float(np.sqrt(2.0 * np.count_nonzero(lhs != rhs, axis=1).max()))


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
        mat[:, rep.group.add_indices(chi.index, b), :, b] += proj
    return mat.reshape(m * n, m * n)
