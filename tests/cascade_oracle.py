"""Dense-tensor oracle of the amplification cascade.

A cascade state here is the full tensor of shape `CascadeConfig.shape`, the
system leg then N probe legs.  `tensor_cascade` applies the stages to it one
at a time (UtildeV as a dense contraction, each copy stage V as a gather
through its index map), forward on xi x |trivial>^N or, with `inverse=True`,
adjoint and in reverse on any cascade state.  `scatter` writes the support
form returned by `amplification.cascade_apply` into that tensor, and
`tensor_instrument` reads an outcome off the tensor with the indicator on
every probe leg.
"""

import numpy as np

from qmamp.amplification import CascadeConfig, CascadeError
from qmamp.ktops import build_UtildeV, build_V
from qmamp.measurement import InstrumentResult, Outcome, _check_state


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


def scatter(cfg: CascadeConfig, output) -> np.ndarray:
    """Dense tensor of shape cfg.shape holding a (tuples, amps) cascade output."""
    tuples, amps = output
    tensor = np.zeros(cfg.shape, dtype=complex)
    for labels, column in zip(tuples, amps.T):
        tensor[(slice(None), *labels)] += column
    return tensor


def tensor_instrument(cfg: CascadeConfig, delta: Outcome, tensor, b) -> InstrumentResult:
    """Instrument read off a dense cascade tensor with the outcome indicator on
    every probe leg."""
    m = cfg.rep.system_dim
    indicator = np.zeros(cfg.rep.group.size)
    for chi in delta.characters:
        indicator[chi.index] = 1.0
    projected = tensor
    for axis in range(1, cfg.n_copies + 1):
        shape = [1] * projected.ndim
        shape[axis] = -1
        projected = projected * indicator.reshape(shape)

    mmat = projected.reshape(m, -1)
    rho = mmat @ mmat.conj().T
    prob = float(np.trace(rho).real)
    cond = complex(np.trace(np.asarray(b, dtype=complex) @ rho))
    post = rho / prob if prob > 1e-300 else None
    return InstrumentResult(
        probability=prob if post is not None else 0.0,
        conditional_expectation=cond,
        post_state=post,
    )
