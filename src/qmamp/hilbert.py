"""Dense-oracle embedding of an operator on given tensor legs.

States and operators are plain numpy arrays.  Flattening is row-major with
the leftmost leg most significant, matching the group enumeration in
:mod:`qmamp.groups`.  `embed` builds the dense matrix of an operator acting on
some legs of a tensor product and as the identity on the others.  Only the
dense test oracle (`tests/dense_oracle.py`) uses it; no qmamp module imports
this one.
"""

from __future__ import annotations

from math import prod

import numpy as np


class HilbertError(ValueError):
    pass


def embed(op, axes, dims) -> np.ndarray:
    """Matrix of op acting on the legs at positions `axes` (in that order) of a
    space with leg dimensions `dims`, and as the identity on the other legs."""
    axes, dims = [int(a) for a in axes], [int(d) for d in dims]
    if len(set(axes)) != len(axes) or not all(0 <= a < len(dims) for a in axes):
        raise HilbertError(f"legs {axes} must be distinct positions in range({len(dims)})")
    rest = [a for a in range(len(dims)) if a not in axes]
    op = np.asarray(op, dtype=complex)
    t_dims, r_dims = [dims[a] for a in axes], [dims[a] for a in rest]
    if op.shape != (prod(t_dims),) * 2:
        raise HilbertError(f"operator shape {op.shape} does not match target legs {t_dims}")
    # legs of kron(op, 1) are (axes, rest) for both row and column indices
    full = np.kron(op, np.eye(prod(r_dims))).reshape(2 * (t_dims + r_dims))
    order = list(np.argsort(axes + rest))
    return full.transpose(order + [len(dims) + i for i in order]).reshape(2 * (prod(dims),))
