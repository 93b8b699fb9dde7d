"""Finite-dimensional quantum measurement couplings, amplification cascades,
and a Stern-Gerlach wavepacket simulator.

A qmamp process runs numpy's BLAS on one thread, and `qmamp sweep --jobs`
runs parallel work as processes.  Validating a large explicit rep's
projections is BLAS-bound and runs faster with a preset thread count (see
the README's CLI section).  If the environment sets none of the
thread-count variables below, each is set to 1 while numpy loads and removed
again once it has: OpenBLAS reads them only when it loads, so the
environment of the importing program and of the processes it starts is left
as it was.  If the environment sets any of them, none is changed.  A program
that imported numpy before qmamp keeps its own thread count.  A BLAS that
reads the variables later than its load (MKL, an OpenMP runtime) is not held
to one thread.
"""

import os

_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# the variables this import sets, and removes once numpy's BLAS has loaded
_set_here = () if any(name in os.environ for name in _BLAS_THREAD_VARS) else _BLAS_THREAD_VARS
os.environ.update(dict.fromkeys(_set_here, "1"))
try:
    import numpy as _numpy  # noqa: F401
finally:
    for name in _set_here:
        os.environ.pop(name, None)

from .groups import Character, FiniteAbelianGroup, make_group  # noqa: E402
from .measurement import SpectralRepresentation, instrument, make_spectral_rep  # noqa: E402

__all__ = [
    "Character",
    "FiniteAbelianGroup",
    "make_group",
    "SpectralRepresentation",
    "instrument",
    "make_spectral_rep",
]

__version__ = "0.1.0"
