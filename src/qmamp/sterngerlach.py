"""Spin-1/2 wavepacket in an inhomogeneous magnetic field.

Dimensionless units with hbar = 1 and default mass 1; all physical constants
are folded into the single coupling mu.  The Hamiltonian is

    H = p^2 / 2m + mu * (B_x sigma_x + B_z sigma_z),

with the linearized, divergence- and curl-free field

    B_x(x, z) = b2 * z - b1 * x,      B_z(x, z) = b0 + b1 * z + b2 * x.

The packet lives on a 1-D z-grid with the transverse coordinate frozen at
x = 0, so B_x reduces to the gradient approximation b2 * z; the spinor is one
array psi of shape (2, n), psi[0] the up and psi[1] the down component.

Time stepping is second-order Strang splitting: a kinetic half step in
momentum space, a full potential step applied as the exact pointwise 2x2
unitary exp(-i dt mu (B_x sigma_x + B_z sigma_z)), then another kinetic half
step.  The closing half step of one step and the opening half step of the
next merge into one full kinetic step, so the spinor stays in momentum space
between steps and each step costs one FFT pair over the last axis of psi.
A closing half step completes the state only at each check and at the last
step.  Boundaries are periodic; the boundary-mass guard reads the edge
cells of the state that each step's inverse FFT makes, and of each
completed state, and aborts the run before wraparound contaminates
observables.

`evolve` is the module's one stepping loop.  At each check it can hand the
completed state and its spectrum to a callback, and `run_simulation` records
its rows that way, in one `evolve` call with a check at every record: one
dict per record, keyed by COLUMNS, the header of the CSV that a sterngerlach
run writes; <z> from the completed state, <p_z> from the spectrum, with no
FFT of its own.  A run's momentum kicks are read off those rows: `scenarios`
takes each branch's kick as the change of its recorded <p_z> between the
first and the last row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class FieldError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


class BoundaryLeakError(SolverError):
    pass


# Largest probability the outermost grid cells may hold before a run aborts,
# well before periodic wraparound reaches the observables.
BOUNDARY_TOL = 1e-6
# Outermost cells at each end of the grid that the guard sums over.
BOUNDARY_CELLS = 2
# Largest spin rotation angle dt * mu * max|B| of one potential step that
# evolve accepts (accuracy of the potential step).
MAX_STEP_ANGLE = 0.1
# Fewest grid points per sigma of a packet that `gaussian_packet` builds, and
# that the scenario preflight accepts, so that the packet is resolved.
MIN_POINTS_PER_SIGMA = 8
# The keys of each row that run_simulation records, in order: the header of
# the CSV that a sterngerlach run writes.
COLUMNS = ("t", "z_up", "z_down", "pz_up", "pz_down", "flip_prob", "norm")


@dataclass(frozen=True)
class FieldModel:
    b0: float  # uniform z-field
    b1: float  # longitudinal gradient dB_z/dz
    b2: float  # transverse gradient dB_x/dz (= dB_z/dx by curl-freeness)
    mu: float = 1.0
    region_extent: float = 10.0  # length of the field region, used by U_fi

    def __post_init__(self):
        if self.b0 <= 0:
            raise FieldError("b0 must be positive (nondegenerate Larmor frequency)")
        if self.region_extent <= 0:
            raise FieldError(f"region_extent must be positive, got {self.region_extent}")

    def components(self, x, z):
        """(B_x, B_z) on arrays x, z (broadcastable)."""
        bx = self.b2 * z - self.b1 * x
        bz = self.b0 + self.b1 * z + self.b2 * x
        return bx, bz


@dataclass(frozen=True)
class SpinorGrid:
    """Two-component wavefunction on a uniform z-grid."""

    z: np.ndarray
    psi: np.ndarray  # shape (2, len(z)); psi[0] = up
    mass: float = 1.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        object.__setattr__(self, "psi", psi)
        if psi.shape != (2, len(self.z)):
            raise SolverError(f"psi shape {psi.shape} does not match grid")

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def kz(self) -> np.ndarray:
        """Angular wavenumbers of the grid, in np.fft order."""
        return 2 * np.pi * np.fft.fftfreq(len(self.z), d=self.dz)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.psi[0]) ** 2 + np.abs(self.psi[1]) ** 2) * self.dz)

    def branch_weight(self, branch: str) -> float:
        c = _branch_index(branch)
        return float(np.sum(np.abs(self.psi[c]) ** 2) * self.dz)

    def mean_z(self, branch: str) -> float:
        c = _branch_index(branch)
        w = np.abs(self.psi[c]) ** 2
        tot = np.sum(w)
        if tot * self.dz < 1e-12:
            return float("nan")
        return float(np.sum(w * self.z) / tot)

    def mean_pz(self, branch: str) -> float:
        """Spectral <p_z> within one spin branch."""
        return _spectral_mean(np.fft.fft(self.psi[_branch_index(branch)]), self.kz)


def _spectral_mean(spectrum: np.ndarray, kz: np.ndarray) -> float:
    """<p_z> of one spinor component from its spectrum (np.fft order); NaN
    when the component has no weight."""
    weight = np.abs(spectrum) ** 2
    tot = np.sum(weight)
    if tot <= 0:
        return float("nan")
    return float(np.sum(weight * kz) / tot)


def _branch_index(branch: str) -> int:
    if branch == "up":
        return 0
    if branch == "down":
        return 1
    raise SolverError(f"unknown branch {branch!r}")


def gaussian_packet(
    n_points: int,
    extent: float,
    sigma: float = 1.0,
    center: float = 0.0,
    momentum: float = 0.0,
    spinor=(1.0, 0.0),
    mass: float = 1.0,
) -> SpinorGrid:
    """Normalized 1D Gaussian packet with the given spinor weights.

    Requires at least MIN_POINTS_PER_SIGMA grid points per sigma so the
    packet is resolved.
    """
    if n_points < 2:
        raise SolverError(f"need at least 2 grid points, got {n_points}")
    z = grid_z(n_points, extent, np.arange(n_points))
    dz = z[1] - z[0]
    if sigma / dz < MIN_POINTS_PER_SIGMA:
        raise SolverError(
            f"grid spacing {dz:.4g} does not resolve sigma={sigma}"
            f" (need >= {MIN_POINTS_PER_SIGMA} points per sigma)"
        )
    envelope = (2 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -((z - center) ** 2) / (4 * sigma**2) + 1j * momentum * z
    )
    norm = _spinor_norm(spinor)
    if not 0 < norm < np.inf:
        raise SolverError(f"spinor norm {norm} is not finite and > 0 in floating point")
    c = np.asarray(spinor, dtype=complex) / norm
    psi = np.stack([c[0] * envelope, c[1] * envelope])
    grid = SpinorGrid(z=z, psi=psi, mass=mass)
    # discrete renormalization
    psi = psi / np.sqrt(grid.norm_squared())
    return SpinorGrid(z=z, psi=psi, mass=mass)


def _spinor_norm(spinor) -> float:
    """Norm of the spinor amplitudes: 0 where their squares underflow, inf
    where they overflow, with no numpy warning."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(np.asarray(spinor, dtype=complex)))


def grid_z(n_points: int, extent: float, i):
    """z at the indices i of the periodic grid of n_points cells over extent,
    centred on 0, that `gaussian_packet` builds; i may be any subset of the
    indices, so the grid's ends are known without building it."""
    return i * (extent / n_points) - extent / 2


def max_field(field: FieldModel, z_ends) -> float:
    """max |B| on the line x = 0 over a uniform grid with first and last z
    `z_ends`: |B|^2 is convex in z, so one of the ends holds the maximum.
    Computed as `_spin_step` computes |B|, but on Python floats, so a field
    whose square overflows gives inf without a numpy overflow warning."""
    ends = (field.components(0.0, float(z)) for z in z_ends)
    return max(math.sqrt(bx * bx + bz * bz) for bx, bz in ends)


def _spin_step(bx, bz, mu: float, dt: float):
    """Coefficients of the exact pointwise unitary exp(-i dt mu (Bx sx + Bz sz))."""
    mag = np.sqrt(bx**2 + bz**2)
    theta = dt * mu * mag
    cos = np.cos(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(mag > 0, np.sin(theta) / np.where(mag > 0, mag, 1.0), dt * mu)
    uz = -1j * sinc * bz
    ux = -1j * sinc * bx
    return cos, ux, uz


def evolve(
    grid: SpinorGrid,
    field: FieldModel,
    dt: float,
    steps: int,
    check_every: int = 100,
    on_check=None,
) -> SpinorGrid:
    """Strang-split evolution over `steps` time steps; returns a new grid.

    Rejects time steps with dt * mu * max|B| > MAX_STEP_ANGLE (accuracy of
    the potential step) and loop arguments steps < 0 or check_every < 1;
    aborts with a BoundaryLeakError when the boundary mass exceeds
    BOUNDARY_TOL, read at every step on the state between the kinetic and
    the potential step (the potential step keeps the density) and on the
    completed state at each check.  The checks fall at the multiples of
    check_every and at the last step; each calls on_check(step, psi, phi),
    if given, with the completed (2, n) state psi and its spectrum phi (one
    FFT over the last axis); it must not modify them, and phi goes on
    stepping after it.
    """
    if steps < 0:
        raise SolverError(f"steps must be >= 0, got {steps}")
    if check_every < 1:
        raise SolverError(f"check_every must be >= 1, got {check_every}")
    angle = dt * field.mu * max_field(field, grid.z[[0, -1]])
    if not angle <= MAX_STEP_ANGLE:  # a nan angle (0 * inf) is refused too
        raise SolverError(f"dt*mu*max|B| = {angle:.3g} > {MAX_STEP_ANGLE}; reduce dt")
    if steps == 0:
        return replace(grid)
    bx, bz = field.components(0.0, grid.z)
    cos, ux, uz = _spin_step(bx, bz, field.mu, dt)
    a, d = cos + uz, cos - uz
    del bx, bz, cos, uz
    n, b, dz = len(grid.z), BOUNDARY_CELLS, grid.dz
    edges = np.r_[:b, n - b : n + b, 2 * n - b : 2 * n]  # of both components, flattened
    half_kin = np.exp(-0.5j * dt * grid.kz**2 / (2 * grid.mass))
    full_kin = np.exp(-1j * dt * grid.kz**2 / (2 * grid.mass))

    # between steps phi holds the spectrum of psi (one FFT over its last
    # axis), and the kinetic half steps of adjacent steps merge into full_kin
    phi = np.fft.fft(grid.psi)
    phi *= half_kin
    for step in range(1, steps + 1):
        psi = np.fft.ifft(phi)
        _guard(psi, edges, dz, step)
        # the rotation reuses the spent spectrum buffer, and psi is freed before
        # the FFT allocates, so the loop holds at most two spinor arrays
        np.multiply(a, psi[0], out=phi[0])
        phi[0] += ux * psi[1]
        np.multiply(d, psi[1], out=phi[1])
        phi[1] += ux * psi[0]
        del psi
        phi = np.fft.fft(phi)
        if step % check_every and step < steps:
            phi *= full_kin
            continue
        phi *= half_kin  # closes the step: the guard sees the completed state
        psi = np.fft.ifft(phi)
        _guard(psi, edges, dz, step)
        if on_check is not None:
            on_check(step, psi, phi)
        if step < steps:
            del psi
            phi *= half_kin  # reopens the next step
    return replace(grid, psi=psi)


def _guard(psi: np.ndarray, edges: np.ndarray, dz: float, step: int) -> None:
    """Abort when the cells at `edges` of the flattened (2, n) state psi, the
    BOUNDARY_CELLS outermost at each end, hold more than BOUNDARY_TOL
    probability; reads only those cells."""
    cells = psi.ravel().take(edges).view(float)  # real and imaginary parts
    bm = float(cells @ cells) * dz
    if bm > BOUNDARY_TOL:
        raise BoundaryLeakError(
            f"boundary mass {bm:.3g} > {BOUNDARY_TOL:.3g} at step {step}; enlarge the grid extent"
        )


def adiabaticity_parameter(field: FieldModel, v: float, z_scale: float) -> dict:
    """Dimensionless change-rate U_fi = v * z * B2 / (omega * dx * B0),
    with omega = mu * B0 and dx the field-region extent, as the summary keys
    "u_fi" and "larmor_omega".

    The spin-flip suppression condition is B2 << (omega / v) * B0; its margin,
    inf when B2 = 0, is returned alongside as "inequality_margin".
    """
    if v <= 0:
        raise FieldError("beam speed must be positive")
    omega = field.mu * field.b0
    if omega == 0:
        raise FieldError("Larmor frequency mu * b0 is zero")
    u_fi = v * z_scale * field.b2 / (omega * field.region_extent * field.b0)
    margin = (omega / v) * field.b0 / field.b2 if field.b2 != 0 else float("inf")
    return {"u_fi": abs(u_fi), "larmor_omega": omega, "inequality_margin": margin}


def run_simulation(
    grid: SpinorGrid,
    field: FieldModel,
    dt: float,
    steps: int,
    record_every: int = 10,
) -> tuple[list[dict], SpinorGrid]:
    """Evolve while recording the observables, in one `evolve` call that
    checks and records every `record_every` steps and at the last: the rows,
    one per record from step 0 on, each keyed by COLUMNS, and the final grid.

    flip_prob tracks the weight of the minority branch relative to the
    initially dominant spinor component; it is NaN when the initial state is
    not a pure eigenbranch, as are z and p_z of a branch without weight.  The
    CLI writes each NaN as an empty CSV cell and a JSON null.
    """
    if record_every < 1:
        raise SolverError(f"record_every must be >= 1, got {record_every}")
    w_up = grid.branch_weight("up")
    w_down = grid.branch_weight("down")
    # the branch orthogonal to a prepared eigenbranch: its weight is the flip probability
    if w_down < 1e-12:
        flip_branch = "down"
    elif w_up < 1e-12:
        flip_branch = "up"
    else:
        flip_branch = None
    kz = grid.kz
    rows = []

    def record(step, psi, phi):
        now = replace(grid, psi=psi)
        flip = now.branch_weight(flip_branch) if flip_branch else float("nan")
        rows.append(dict(zip(COLUMNS, (
            step * dt,
            now.mean_z("up"),
            now.mean_z("down"),
            _spectral_mean(phi[0], kz),
            _spectral_mean(phi[1], kz),
            flip,
            now.norm_squared(),
        ))))

    record(0, grid.psi, np.fft.fft(grid.psi))
    final = evolve(grid, field, dt, steps, check_every=record_every, on_check=record)
    return rows, final
