"""Dense test oracles: the dense matrices that qmamp's index-map and support
code paths are checked against.  Nothing in qmamp imports this module.

Cascade.  A cascade state here is the full tensor of shape `shape(cfg)`, the
system leg then N probe legs.  `tensor_cascade` applies the stages to it one
at a time (UtildeV as a dense contraction, each copy stage V as a gather
through its index map), forward on xi x |trivial>^N or, with `inverse=True`,
adjoint and in reverse on any cascade state.  `scatter` writes the
`CascadeOutput` of `amplification.cascade_apply` into that tensor, and
`tensor_instrument` reads an outcome off the tensor with the indicator on
every probe leg.  `cascade_unitary` materializes the stage product, built by
`stage_product` as `hilbert.embed` of each stage on its leg pair;
`heisenberg_T`, the Heisenberg-picture map, conjugates by it, and
`dense_chain_residual` composes the copy chain the same way.
`block_chain_residual` checks the chain identity on a copy chain's index
map one first-leg block at a time, with t^(x N) from N - 1 krons.

Groups.  `fourier_matrix` is the unitary DFT matrix in qmamp's convention,
numpy's fftn over the group's nontrivial factor axes (`groups._fft_shape`),
as qmamp's probe check applies it on large groups (on small ones it builds
the matrix as a Kronecker product of the factors' DFTs).  Closed forms from
exponent tuples, computed without qmamp's index arithmetic (`add_indices`)
or that DFT: `exponent_table`
enumerates the tuples with itertools.product, `character_table` holds
chi(u) = exp(2 pi i sum_j m_j u_j / n_j) for every (chi, u), and
`addition_table` the index of u + v, added as exponent rows mod the orders.
`perm_matrix` is the 0/1 matrix of an index map, `translation` that of t_u
from the addition table, and `represented_unitary` is
U_u = sum_chi conj(chi(u)) E(chi) of a spectral family.

Couplings and relations.  `build_UW` is the coupling W represented on the
system space; `uw_fourier_conjugation_residual`, `heisenberg_embed` and the
represented relations use it.  `dense_pentagonal` and `dense_intertwining`
check a two-leg operator on three legs and against `translation`; the
represented relations are the same checks with UW in place of the operator.
`dense_fourier_residual` is the Fourier conjugation of W and V as a triple
product of dense matrices, and `block_fourier_residual` the same norm summed
exactly one |G|^3-entry block at a time, for orders whose dense F x F would
not fit; it is the exact value that qmamp's probe estimate is checked
against.
"""

import itertools

import numpy as np

from qmamp.amplification import CascadeConfig, CascadeError, CascadeOutput
from qmamp.groups import _fft_shape
from qmamp.hilbert import embed
from qmamp.ktops import KTError, _kron_perm, build_UtildeV, build_V, build_W
from qmamp.measurement import InstrumentResult, _check_state


# Largest cascade matrix, in entries, that `cascade_unitary` builds (64 MiB
# of complex): a 2048 x 2048 matrix, sigma_z at N = 10.
ORACLE_MATRIX_ENTRIES = 1 << 22


def fourier_matrix(group) -> np.ndarray:
    """Unitary DFT matrix F[gamma, u] = conj(gamma(u)) / sqrt(|G|)."""
    n = group.size
    shape = _fft_shape(group)
    eye = np.eye(n, dtype=complex).reshape(shape + (n,))
    return np.fft.fftn(eye, axes=tuple(range(len(shape))), norm="ortho").reshape(n, n)


def exponent_table(group) -> np.ndarray:
    """(|G|, k) array of the exponent tuples in index order, leftmost most significant."""
    rows = list(itertools.product(*(range(n) for n in group.orders)))
    return np.array(rows, dtype=np.intp).reshape(group.size, len(group.orders))


def character_table(group) -> np.ndarray:
    """chi(u) = exp(2 pi i sum_j m_j u_j / n_j) at [chi, u]."""
    e = exponent_table(group)
    phase = (e[:, None, :] * e[None, :, :] / np.array(group.orders)).sum(axis=-1)
    return np.exp(2j * np.pi * phase)


def addition_table(group) -> np.ndarray:
    """Index of u + v at [u, v]: the exponent rows added mod the orders, looked
    up in the enumeration."""
    e = exponent_table(group)
    index = {tuple(row): i for i, row in enumerate(e.tolist())}
    sums = (e[:, None, :] + e[None, :, :]) % np.array(group.orders)
    return np.array([[index[tuple(s)] for s in row] for row in sums.tolist()], dtype=np.intp)


def perm_matrix(p) -> np.ndarray:
    """0/1 matrix of the basis map e_j -> e_{p[j]}."""
    n = len(p)
    m = np.zeros((n, n), dtype=complex)
    m[p, np.arange(n)] = 1.0
    return m


def translation(group, u) -> np.ndarray:
    """Matrix of the translation t_u by the element at index u."""
    return perm_matrix(addition_table(group)[u])


def represented_unitary(rep, u) -> np.ndarray:
    """U_u = sum_chi conj(chi(u)) E(chi) for the element at index u."""
    values = character_table(rep.group)[:, u]
    out = np.zeros((rep.system_dim, rep.system_dim), dtype=complex)
    for chi, p in rep.projections.items():
        out += np.conj(values[chi]) * p
    return out


def shape(cfg: CascadeConfig) -> tuple[int, ...]:
    """Tensor shape of a dense cascade state: the system leg, then N probe legs."""
    return (cfg.rep.system_dim,) + (cfg.rep.group.size,) * cfg.n_copies


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


def _iota_block(g: int, n: int) -> np.ndarray:
    block = np.zeros((1,) + (g,) * n, dtype=complex)
    block[(0,) + (0,) * n] = 1.0
    return block


def tensor_cascade(cfg: CascadeConfig, xi, inverse: bool = False) -> np.ndarray:
    """Stage-wise cascade output, a tensor of shape shape(cfg), for a normalized
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
        tensor = np.asarray(xi, dtype=complex).reshape(shape(cfg))
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


def scatter(output: CascadeOutput) -> np.ndarray:
    """Dense tensor of shape shape(output.cfg) holding a cascade output."""
    tensor = np.zeros(shape(output.cfg), dtype=complex)
    for labels, column in zip(output.tuples, output.amps.T):
        tensor[(slice(None), *labels)] += column
    return tensor


def tensor_instrument(cfg: CascadeConfig, delta, tensor, b) -> InstrumentResult:
    """Instrument read off a dense cascade tensor with the outcome indicator on
    every probe leg."""
    m = cfg.rep.system_dim
    indicator = np.zeros(cfg.rep.group.size)
    for chi in delta:
        indicator[chi] = 1.0
    projected = tensor
    for axis in range(1, cfg.n_copies + 1):
        shape = [1] * projected.ndim
        shape[axis] = -1
        projected = projected * indicator.reshape(shape)

    mmat = projected.reshape(m, -1)
    rho = mmat @ mmat.conj().T
    prob = float(np.trace(rho).real)
    cond = complex(np.trace(np.asarray(b, dtype=complex) @ rho))
    return InstrumentResult(prob if prob > 1e-300 else 0.0, cond)


def stage_product(stages, dims) -> np.ndarray:
    """Dense product stages[-1] ... stages[0], with stages[k] on legs (k, k + 1) of dims."""
    mat = embed(stages[0], [0, 1], dims)
    for k, op in enumerate(stages[1:], 1):
        mat = embed(op, [k, k + 1], dims) @ mat
    return mat


def cascade_unitary(cfg: CascadeConfig) -> np.ndarray:
    """Materialized cascade matrix V_{N,N+1} ... V_23 UtildeV_12 (oracle path)."""
    if cfg.state_dim**2 > ORACLE_MATRIX_ENTRIES:
        raise CascadeError(
            f"cascade matrix of {cfg.state_dim}**2 entries exceeds the oracle's memory budget"
            f" of {ORACLE_MATRIX_ENTRIES} entries; use cascade_apply"
        )
    v = perm_matrix(build_V(cfg.rep.group))
    return stage_product([build_UtildeV(cfg.rep)] + [v] * (cfg.n_copies - 1), shape(cfg))


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


def dense_chain_residual(g, gamma, stages) -> float:
    """|| V_{N,N+1} ... V_12 (t_gamma x 1^N) - t_gamma^(N+1) V_{N,N+1} ... V_12 ||,
    with stages[k] the two-leg operator on legs (k, k+1)."""
    dims = (g.size,) * (len(stages) + 1)
    chain = stage_product(stages, dims)
    t = translation(g, gamma)
    lam_first = embed(t, [0], dims)
    lam_all = t
    for _ in stages:
        lam_all = np.kron(lam_all, t)
    return float(np.linalg.norm(chain @ lam_first - lam_all @ chain))


def block_chain_residual(group, gamma, n, chain) -> float:
    """The chain residual of `amplification.intertwiner_chain_check` at N = n
    on the index map `chain` of a copy chain on n + 1 legs, composed one
    first-leg value a at a time: t_gamma x 1 moves only the first leg, so the
    left side on block a is the chain's block t[a], and the right side
    applies t to the first leg and t^(x N) to the other legs of the chain's
    block a."""
    g = group.size
    block = g**n
    t = group.add_indices(gamma, np.arange(g))
    t_first, t_rest = t * block, _kron_perm(*[t] * n)
    mismatches = 0
    for a in range(g):
        lhs = chain[t[a] * block : (t[a] + 1) * block]
        image = chain[a * block : (a + 1) * block]
        rhs = t_rest[image % block]
        rhs += t_first[image // block]
        mismatches += np.count_nonzero(lhs != rhs)
    return float(np.sqrt(2.0 * mismatches))


def dense_pentagonal(op, op23, dims, orientation) -> float:
    """Pentagonal residual of op on legs (0, 1) and (0, 2) and op23 on legs
    (1, 2) of three legs of dimensions dims; op23 = op checks a single
    two-leg operator.

    orientation "w": op_12 op23_23 = op23_23 op_13 op_12
    orientation "v": op23_23 op_12 = op_12 op_13 op23_23
    """
    o12, o13 = embed(op, [0, 1], dims), embed(op, [0, 2], dims)
    o23 = embed(op23, [1, 2], dims)
    if orientation == "w":
        return float(np.linalg.norm(o12 @ o23 - o23 @ o13 @ o12))
    return float(np.linalg.norm(o23 @ o12 - o12 @ o13 @ o23))


def dense_intertwining(op, group, orientation, unitary=None) -> float:
    """Max residual over u of the translation intertwining relation of op.

    orientation "w": op (1 x t_u) = (t_u x t_u) op
    orientation "v": op (t_u x 1) = (t_u x t_u) op
    With `unitary`, unitary(u) takes the place of the first t_u on the right
    and the identity spans the len(op) / |G| system dimensions: the represented
    relation op (1 x t_u) = (U_u x t_u) op.
    """
    eye = np.eye(len(op) // group.size)
    worst = 0.0
    for u in range(group.size):
        t = translation(group, u)
        moved = np.kron(eye, t) if orientation == "w" else np.kron(t, eye)
        first = t if unitary is None else unitary(u)
        worst = max(worst, float(np.linalg.norm(op @ moved - np.kron(first, t) @ op)))
    return worst


def dense_fourier_residual(g, w, v) -> float:
    """|| V - (F x F) W* (F x F)^-1 || as a triple product of dense matrices."""
    ff = np.kron(fourier_matrix(g), fourier_matrix(g))
    return float(np.linalg.norm(perm_matrix(v) - ff @ perm_matrix(w).conj().T @ ff.conj().T))


def block_fourier_residual(g, w, v, f_w=None) -> float:
    """|| V (F x F) - (f_w x f_w) W* ||, exactly; f_w is F unless given.

    With f_w = F, F x F is unitary, so this is || V - (F x F) W* (F x F)^-1 ||;
    the terms are F x F with its rows (columns) gathered through the inverse
    of V (W).  Row (i, j) of F x F is kron(F[i], F[j]), so the squared norm
    is summed over the |G| row blocks (a, .), each |G|^3 entries; F x F is
    never built.  Column (c, d) of kron(F[a], F[b]) is F[a, c] F[b, d], so
    the W side of block a is f_w[a] and f_w gathered through the two legs of
    W's inverse.
    """
    f = fourier_matrix(g)
    f_w = f if f_w is None else f_w
    n = g.size
    v_rows = np.divmod(np.argsort(v), n)
    w_first, w_second = np.divmod(np.argsort(w), n)
    f_second = f_w[:, w_second]  # f_w[b, d] at each gathered column, for every b
    diff, w_side = np.empty((2, n, n * n), dtype=complex)
    total = 0.0
    for a in range(n):
        i, j = (rows[a * n : (a + 1) * n] for rows in v_rows)
        np.multiply(f[i][:, :, None], f[j][:, None, :], out=diff.reshape(n, n, n))
        np.multiply(f_second, f_w[a, w_first], out=w_side)
        diff -= w_side
        total += np.einsum("ij,ij->", diff.view(float), diff.view(float))
    return float(np.sqrt(total))


def build_UW(rep) -> np.ndarray:
    """Block-diagonal coupling on system x group with blocks
    U_u = sum_chi conj(chi(u)) E(chi)."""
    group = rep.group
    m, n = rep.system_dim, group.size
    mat = np.zeros((m * n, m * n), dtype=complex)
    for u in range(n):
        mat[u::n, u::n] = represented_unitary(rep, u)
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
    return dense_pentagonal(build_UW(rep), perm_matrix(build_W(rep.group)), dims, "w")


def verify_represented_intertwining(rep) -> float:
    """Max residual over u of UW (1 x t_u) = (U_u x t_u) UW."""
    return dense_intertwining(
        build_UW(rep), rep.group, "w", lambda u: represented_unitary(rep, u)
    )


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
