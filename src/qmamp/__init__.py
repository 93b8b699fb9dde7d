"""Finite-dimensional quantum measurement couplings, amplification cascades,
and a Stern-Gerlach wavepacket simulator."""

from .groups import Character, FiniteAbelianGroup, make_group
from .measurement import SpectralRepresentation, instrument, make_spectral_rep

__all__ = [
    "Character",
    "FiniteAbelianGroup",
    "make_group",
    "SpectralRepresentation",
    "instrument",
    "make_spectral_rep",
]

__version__ = "0.1.0"
