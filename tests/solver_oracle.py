"""Closed-form solutions that the Stern-Gerlach solver is checked against.

With b2 = 0 the field has no B_x on the line x = 0, so each spin component
moves in its own linear potential +-mu (b0 + b1 z): the up component feels the
force -mu b1, the down component +mu b1.  Strang splitting of p^2/2m + F z is
exact up to a global phase for every dt (Strang, SIAM J. Numer. Anal. 5
(1968) 506): its error terms [T, [T, V]] are proportional to [p^2, p] = 0, and
[V, [V, T]] is a constant.  So at every record each branch's means follow
Newton's law exactly,

    <z>(t)   = z0 + p0 t / m -+ mu b1 t^2 / (2 m),
    <p_z>(t) = p0 -+ mu b1 t,

the upper sign for up.  On the grid they hold to rounding while the packet
stays well inside the box and is well resolved.  The force moves a packet
without changing its shape, so each branch's density is the free Gaussian
packet's, of width sigma_t = sigma sqrt(1 + (t / 2 m sigma^2)^2), centred on
that <z>(t).

With b1 = b2 = 0 as well, the field is the uniform b0 along z and
H = p^2/2m + mu b0 sigma_z.  Both spin components carry the same spatial
wavefunction, so a spinor (1, 1)/sqrt(2) precesses about z at the Larmor
frequency 2 mu b0 whatever the packet does:

    <sigma_x>(t) = 2 Re sum conj(psi_up) psi_down dz = cos(2 mu b0 t),
    <sigma_y>(t) = 2 Im sum conj(psi_up) psi_down dz = sin(2 mu b0 t).

Strang splitting is exact here too, as the kinetic and the potential step
commute; <sigma_y> fixes the sense of the rotation, which <sigma_x> alone
does not.
"""

import math

import numpy as np


def linear_potential_means(t, branch, *, center, momentum, mass, mu, b1):
    """(<z>, <p_z>) of spin `branch` ("up" or "down") at the times `t`, for a
    packet starting at `center` with `momentum` in a field with b2 = 0."""
    t = np.asarray(t, dtype=float)
    force = -mu * b1 if branch == "up" else mu * b1
    return center + momentum * t / mass + force * t**2 / (2 * mass), momentum + force * t


def _branch_gaussian(t, branch, sigma, center, momentum, mass, mu, b1):
    """(<z>(t), sigma_t) of spin `branch` for a packet of width `sigma`, b2 = 0."""
    mean, _ = linear_potential_means(
        t, branch, center=center, momentum=momentum, mass=mass, mu=mu, b1=b1
    )
    return mean, sigma * np.sqrt(1 + (t / (2 * mass * sigma**2)) ** 2)


def linear_potential_density(z, t, branch, **packet):
    """Density of spin `branch` over the grid points `z` at time t, per unit
    of the branch's weight, for a packet of width `sigma` in a field with
    b2 = 0 (keywords sigma, center, momentum, mass, mu, b1): the free
    Gaussian of width sigma_t at the branch's <z>(t), normalized so that its
    sum times the grid spacing is 1."""
    mean, sigma_t = _branch_gaussian(t, branch, **packet)
    density = np.exp(-((z - mean) ** 2) / (2 * sigma_t**2))
    return density / (density.sum() * (z[1] - z[0]))


def linear_potential_below(z0, t, branch, **packet):
    """The continuum's fraction of the weight of spin `branch` below z0 at
    time t, Phi((z0 - <z>(t)) / sigma_t); keywords as for the density."""
    mean, sigma_t = _branch_gaussian(t, branch, **packet)
    return 0.5 * math.erfc((mean - z0) / (sigma_t * math.sqrt(2)))


def precession_spin(t, *, b0, mu):
    """(<sigma_x>, <sigma_y>) at the times `t` of the spinor (1, 1)/sqrt(2) in
    the uniform field b0 (b1 = b2 = 0)."""
    angle = 2 * mu * b0 * np.asarray(t, dtype=float)
    return np.cos(angle), np.sin(angle)
