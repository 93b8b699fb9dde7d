"""Measurement coupling unitaries on two tensor legs and their defining relations.

`build_W` acts on functions of two group arguments by (a, b) -> (a + b, b);
`build_V` is its Fourier conjugate on the dual side, acting by (a, b) -> (a, a + b),
i.e. it copies the first label onto a trivial second slot.  `build_UW` represents
the first on the system space through a spectral family, and `build_UtildeV` is
its Fourier transform, the coupling that correlates system sectors with probe
labels.

W, V and the group translations are permutations of basis indices, and they
are represented only as integer index maps p (e_j -> e_{p[j]}), built by
vectorised index arithmetic.  Relation checks return Frobenius-norm
residuals: the pentagonal and intertwining relations compose index maps, and
the residual sqrt(2 * #mismatched columns) equals the dense Frobenius norm
exactly.  `build_UW`, `build_UtildeV` and `heisenberg_embed` are not
permutations; they return plain dense matrices on system x group, the
system leg most significant.  The represented (system-space) relations are
checked with explicit matrix products, the three-leg one through
`hilbert.embed` on leg positions; `groups._perm_matrix` gives the dense 0/1
matrix of a map where an operator is used densely, as there and in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, _perm_matrix, fourier_matrix, regular_representation
from .hilbert import embed


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
        """
        f = fourier_matrix(self.group)
        ff = np.kron(f, f)
        diff = ff[np.argsort(self.V)]
        diff -= ff[:, np.argsort(self.W)]
        return float(np.linalg.norm(diff))


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
    """
    if orientation not in ("w", "v"):
        raise KTError(f"orientation must be 'w' or 'v', got {orientation!r}")
    d = group.size
    perm = _check_pair_map(perm, d)
    ident = np.arange(d)
    worst = 0.0
    for u in range(d):
        t = group.add_indices(u, ident)
        moved = _kron_perm(ident, t) if orientation == "w" else _kron_perm(t, ident)
        res = _perm_residual(_perm_product(perm, moved), _perm_product(_kron_perm(t, t), perm))
        worst = max(worst, res)
    return worst


def build_UW(rep) -> np.ndarray:
    """Block-diagonal coupling on system x group with blocks
    U_u = sum_chi conj(chi(u)) E(chi)."""
    group = rep.group
    m, n = rep.system_dim, group.size
    mat = np.zeros((m * n, m * n), dtype=complex)
    for j, u in enumerate(group.elements()):
        mat[j::n, j::n] = rep.unitary(u)
    return mat


def build_UtildeV(rep) -> np.ndarray:
    """Coupling sum_chi E(chi) x lambda_chi on system x dual-group probe."""
    m, n = rep.system_dim, rep.group.size
    mat = np.zeros((m * n, m * n), dtype=complex)
    for chi, proj in rep.projections.items():
        mat += np.kron(proj, regular_representation(chi))
    return mat


def uw_fourier_conjugation_residual(rep) -> float:
    """|| UtildeV - (id x F) UW* (id x F)^-1 ||."""
    f = fourier_matrix(rep.group)
    idf = np.kron(np.eye(rep.system_dim), f)
    lhs = build_UtildeV(rep)
    rhs = idf @ build_UW(rep).conj().T @ idf.conj().T
    return float(np.linalg.norm(lhs - rhs))


def verify_represented_pentagonal(rep) -> float:
    """Residual of UW_12 W_23 = W_23 UW_13 UW_12 on system x group x group."""
    n = rep.group.size
    dims = (rep.system_dim, n, n)
    uw = build_UW(rep)
    uw12, uw13 = embed(uw, [0, 1], dims), embed(uw, [0, 2], dims)
    w23 = embed(_perm_matrix(build_W(rep.group)), [1, 2], dims)
    return float(np.linalg.norm(uw12 @ w23 - w23 @ uw13 @ uw12))


def verify_represented_intertwining(rep) -> float:
    """Max residual over u of UW (1 x t_u) = (U_u x t_u) UW."""
    group = rep.group
    m = rep.system_dim
    uw = build_UW(rep)
    eye = np.eye(m)
    worst = 0.0
    for j, u in enumerate(group.elements()):
        t = _perm_matrix(group.add_indices(j, np.arange(group.size)))
        res = np.linalg.norm(uw @ np.kron(eye, t) - np.kron(rep.unitary(u), t) @ uw)
        worst = max(worst, float(res))
    return worst


def heisenberg_embed(m_op: np.ndarray, rep) -> np.ndarray:
    """Ad(UW*) of (M x 1): the system observable dressed by the coupling."""
    m_op = np.asarray(m_op, dtype=complex)
    if m_op.shape != (rep.system_dim, rep.system_dim):
        raise KTError(
            f"observable shape {m_op.shape} does not match system dim {rep.system_dim}"
        )
    uw = build_UW(rep)
    big = np.kron(m_op, np.eye(rep.group.size))
    return uw.conj().T @ big @ uw
