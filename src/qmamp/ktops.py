"""Measurement coupling unitaries on two tensor legs and their defining relations.

`build_W` acts on functions of two group arguments by (a, b) -> (a + b, b);
`build_V` is its Fourier conjugate on the dual side, acting by (a, b) -> (a, a + b),
i.e. it copies the first label onto a trivial second slot.  `build_UW` represents
the first on the system space through a spectral family, and `build_UtildeV` is
its Fourier transform, the coupling that correlates system sectors with probe
labels.

W, V and the group translations are permutations of basis indices.  Each is
built once as an integer index map p (e_j -> e_{p[j]}) by vectorised index
arithmetic; `build_W`/`build_V` return the dense 0/1 matrix of that map.
Relation checks return Frobenius-norm residuals.  When the operator is a
permutation, the pentagonal and intertwining relations are checked by
composing index maps, and the residual sqrt(2 * #mismatched columns) equals
the dense Frobenius norm exactly.  Generic dense operators, and the
represented (system-space) relations, fall back to explicit matrix products,
which the tests also use as the oracle for the index-map paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    Character,
    FiniteAbelianGroup,
    _perm_matrix,
    fourier_matrix,
    regular_representation,
    translation_matrix,
)
from .hilbert import DenseOperator, LegSpace, embed, leg_space


class KTError(ValueError):
    pass


def _pair_space(d1: int, d2: int, labels=("1", "2")) -> LegSpace:
    return leg_space((labels[0], d1), (labels[1], d2))


def _w_pair_map(group: FiniteAbelianGroup) -> np.ndarray:
    """Index map of W on flattened pairs: (a, b) -> (a + b, b)."""
    n = group.size
    a, b = np.arange(n)[:, None], np.arange(n)
    return (group.add_indices(a, b) * n + b).reshape(-1)


def _v_pair_map(group: FiniteAbelianGroup) -> np.ndarray:
    """Index map of V on flattened dual pairs: (a, b) -> (a, a + b)."""
    n = group.size
    a, b = np.arange(n)[:, None], np.arange(n)
    return (a * n + group.add_indices(a, b)).reshape(-1)


def build_W(group: FiniteAbelianGroup) -> DenseOperator:
    """Permutation unitary sending basis pair (a, b) to (a + b, b)."""
    n = group.size
    return DenseOperator(_pair_space(n, n, ("g1", "g2")), _perm_matrix(_w_pair_map(group)))


def build_V(group: FiniteAbelianGroup) -> DenseOperator:
    """Permutation unitary sending dual basis pair (a, b) to (a, a + b).

    In particular |gamma> x |trivial> -> |gamma> x |gamma>: the copy action
    that drives the amplification cascade.
    """
    n = group.size
    return DenseOperator(_pair_space(n, n, ("c1", "c2")), _perm_matrix(_v_pair_map(group)))


@dataclass(frozen=True)
class KTOperatorPair:
    group: FiniteAbelianGroup
    W: DenseOperator
    V: DenseOperator

    def fourier_conjugation_residual(self) -> float:
        """|| V - (F x F) W* (F x F)^-1 ||."""
        f = fourier_matrix(self.group)
        ff = np.kron(f, f)
        return float(np.linalg.norm(self.V.matrix - ff @ self.W.matrix.conj().T @ ff.conj().T))


def kt_pair(group: FiniteAbelianGroup) -> KTOperatorPair:
    return KTOperatorPair(group, build_W(group), build_V(group))


def _as_permutation(mat: np.ndarray) -> np.ndarray | None:
    """Return p with mat e_j = e_{p[j]} if mat is a 0/1 permutation, else None."""
    d = mat.shape[0]
    rows = np.argmax(np.abs(mat) > 0.5, axis=0)
    ok = np.zeros_like(mat)
    ok[rows, np.arange(d)] = 1.0
    if np.array_equal(mat, ok) and len(set(rows.tolist())) == d:
        return rows
    return None


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


def verify_pentagonal(op: DenseOperator, orientation: str) -> float:
    """Three-leg consistency residual for a two-leg unitary.

    orientation "w": op_12 op_23 = op_23 op_13 op_12
    orientation "v": op_23 op_12 = op_12 op_13 op_23
    """
    if orientation not in ("w", "v"):
        raise KTError(f"orientation must be 'w' or 'v', got {orientation!r}")
    dims = op.space.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise KTError("pentagonal check needs a two-leg operator with equal legs")
    d = dims[0]

    perm = _as_permutation(op.matrix)
    if perm is not None:
        ident = np.arange(d)
        e12, e23 = _kron_perm(perm, ident), _kron_perm(ident, perm)
        swap23 = _kron_perm(ident, np.arange(d * d).reshape(d, d).T.reshape(-1))
        e13 = _perm_product(swap23, e12, swap23)
        if orientation == "w":
            lhs = _perm_product(e12, e23)
            rhs = _perm_product(e23, e13, e12)
        else:
            lhs = _perm_product(e23, e12)
            rhs = _perm_product(e12, e13, e23)
        return _perm_residual(lhs, rhs)

    space3 = leg_space(("1", d), ("2", d), ("3", d))
    o12 = embed(op, ["1", "2"], space3).matrix
    o23 = embed(op, ["2", "3"], space3).matrix
    o13 = embed(op, ["1", "3"], space3).matrix
    if orientation == "w":
        lhs, rhs = o12 @ o23, o23 @ o13 @ o12
    else:
        lhs, rhs = o23 @ o12, o12 @ o13 @ o23
    return float(np.linalg.norm(lhs - rhs))


def verify_intertwining(op: DenseOperator, group: FiniteAbelianGroup, orientation: str) -> float:
    """Max residual over the group of the translation intertwining relation.

    orientation "w": op (1 x t_u) = (t_u x t_u) op  for translations t_u on the group
    orientation "v": op (t_g x 1) = (t_g x t_g) op  for translations on the dual
    """
    if orientation not in ("w", "v"):
        raise KTError(f"orientation must be 'w' or 'v', got {orientation!r}")
    d = group.size
    if op.space.dims != (d, d):
        raise KTError("operator legs do not match the group size")
    m = op.matrix
    perm = _as_permutation(m)
    ident, eye = np.arange(d), np.eye(d)
    worst = 0.0
    for u in range(d):
        if perm is not None:
            t = group.add_indices(u, ident)
            moved = _kron_perm(ident, t) if orientation == "w" else _kron_perm(t, ident)
            res = _perm_residual(_perm_product(perm, moved), _perm_product(_kron_perm(t, t), perm))
        else:
            t = translation_matrix(group, group.element(u))
            moved = np.kron(eye, t) if orientation == "w" else np.kron(t, eye)
            res = float(np.linalg.norm(m @ moved - np.kron(t, t) @ m))
        worst = max(worst, res)
    return worst


def build_UW(rep) -> DenseOperator:
    """Block-diagonal coupling on system x group with blocks
    U_u = sum_chi conj(chi(u)) E(chi)."""
    group = rep.group
    m, n = rep.system_dim, group.size
    space = leg_space(("sys", m), ("g", n))
    mat = np.zeros((m * n, m * n), dtype=complex)
    for j, u in enumerate(group.elements()):
        uu = rep.unitary(u)
        mat[j::n, j::n] = uu
    return DenseOperator(space, mat)


def build_UtildeV(rep) -> DenseOperator:
    """Coupling sum_chi E(chi) x lambda_chi on system x dual-group probe."""
    group = rep.group
    m, n = rep.system_dim, group.size
    space = leg_space(("sys", m), ("probe", n))
    mat = np.zeros((m * n, m * n), dtype=complex)
    for chi, proj in rep.projections.items():
        mat += np.kron(proj, regular_representation(chi))
    return DenseOperator(space, mat)


def uw_fourier_conjugation_residual(rep) -> float:
    """|| UtildeV - (id x F) UW* (id x F)^-1 ||."""
    f = fourier_matrix(rep.group)
    idf = np.kron(np.eye(rep.system_dim), f)
    lhs = build_UtildeV(rep).matrix
    rhs = idf @ build_UW(rep).matrix.conj().T @ idf.conj().T
    return float(np.linalg.norm(lhs - rhs))


def verify_represented_pentagonal(rep) -> float:
    """Residual of UW_12 W_23 = W_23 UW_13 UW_12 on system x group x group."""
    group = rep.group
    m, n = rep.system_dim, group.size
    space = leg_space(("sys", m), ("g1", n), ("g2", n))
    uw = build_UW(rep)
    w = build_W(group)
    uw12 = embed(uw, ["sys", "g1"], space).matrix
    uw13 = embed(uw, ["sys", "g2"], space).matrix
    w23 = embed(w, ["g1", "g2"], space).matrix
    return float(np.linalg.norm(uw12 @ w23 - w23 @ uw13 @ uw12))


def verify_represented_intertwining(rep) -> float:
    """Max residual over u of UW (1 x t_u) = (U_u x t_u) UW."""
    group = rep.group
    m = rep.system_dim
    uw = build_UW(rep).matrix
    eye = np.eye(m)
    worst = 0.0
    for u in group.elements():
        t = translation_matrix(group, u)
        res = np.linalg.norm(uw @ np.kron(eye, t) - np.kron(rep.unitary(u), t) @ uw)
        worst = max(worst, float(res))
    return worst


def heisenberg_embed(m_op: np.ndarray, rep) -> DenseOperator:
    """Ad(UW*) of (M x 1): the system observable dressed by the coupling."""
    m_op = np.asarray(m_op, dtype=complex)
    if m_op.shape != (rep.system_dim, rep.system_dim):
        raise KTError(
            f"observable shape {m_op.shape} does not match system dim {rep.system_dim}"
        )
    uw = build_UW(rep)
    big = np.kron(m_op, np.eye(rep.group.size))
    return DenseOperator(uw.space, uw.matrix.conj().T @ big @ uw.matrix)
