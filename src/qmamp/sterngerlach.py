"""Spin-1/2 wavepacket in an inhomogeneous magnetic field.

Dimensionless units with hbar = 1 and default mass 1; all physical constants
are folded into the single coupling mu.  The Hamiltonian is

    H = p^2 / 2m + mu * (B_x sigma_x + B_z sigma_z),

with the linearized, divergence- and curl-free field

    B_x(x, z) = b2 * z - b1 * x,      B_z(x, z) = b0 + b1 * z + b2 * x.

Time stepping is second-order Strang splitting: half-step kinetic propagation
in momentum space (FFT per spinor component), a full potential step applied as
the exact pointwise 2x2 unitary exp(-i dt mu (B_x sigma_x + B_z sigma_z)),
then another kinetic half step.  Boundaries are periodic; a boundary-mass
guard aborts the run before wraparound contaminates observables.

The default geometry is a 1D z-grid (transverse coordinate frozen at x = 0,
so B_x reduces to the gradient approximation b2 * z).  A 2D (x, z) mode uses
the same code path with psi arrays of shape (2, nx, nz).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class FieldError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


class BoundaryLeakError(SolverError):
    pass


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

    def components(self, x, z):
        """(B_x, B_z) on arrays x, z (broadcastable)."""
        bx = self.b2 * z - self.b1 * x
        bz = self.b0 + self.b1 * z + self.b2 * x
        return bx, bz

    @property
    def larmor_omega(self) -> float:
        return self.mu * self.b0


@dataclass(frozen=True)
class SpinorGrid:
    """Two-component wavefunction on a uniform grid; last axis is z."""

    z: np.ndarray
    psi: np.ndarray  # shape (2, nz) or (2, nx, nz); psi[0] = up
    x: np.ndarray | None = None
    mass: float = 1.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        object.__setattr__(self, "psi", psi)
        if self.x is None and psi.shape != (2, len(self.z)):
            raise SolverError(f"psi shape {psi.shape} does not match grid")
        if self.x is not None and psi.shape != (2, len(self.x), len(self.z)):
            raise SolverError(f"psi shape {psi.shape} does not match 2D grid")

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def cell_volume(self) -> float:
        if self.x is None:
            return self.dz
        return self.dz * float(self.x[1] - self.x[0])

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.psi[0]) ** 2 + np.abs(self.psi[1]) ** 2

    def norm_squared(self) -> float:
        return float(np.sum(self.density) * self.cell_volume)

    def boundary_mass(self, cells: int = 2) -> float:
        """Probability in the outermost cells of every spatial axis."""
        d = self.density
        total = 0.0
        for axis in range(d.ndim):
            sl_lo = [slice(None)] * d.ndim
            sl_hi = [slice(None)] * d.ndim
            sl_lo[axis] = slice(0, cells)
            sl_hi[axis] = slice(-cells, None)
            total += float(np.sum(d[tuple(sl_lo)]) + np.sum(d[tuple(sl_hi)]))
        return total * self.cell_volume

    def branch_weight(self, branch: str) -> float:
        c = _branch_index(branch)
        return float(np.sum(np.abs(self.psi[c]) ** 2) * self.cell_volume)

    def mean_z(self, branch: str) -> float:
        c = _branch_index(branch)
        w = np.abs(self.psi[c]) ** 2
        tot = np.sum(w)
        if tot * self.cell_volume < 1e-12:
            return float("nan")
        return float(np.sum(w * self.z) / tot)

    def mean_pz(self, branch: str) -> float:
        """Spectral <p_z> within one spin branch."""
        c = _branch_index(branch)
        comp = self.psi[c]  # z is the last axis in both 1D and 2D mode
        spec = np.fft.fft(comp, axis=-1)
        k = 2 * np.pi * np.fft.fftfreq(len(self.z), d=self.dz)
        weight = np.abs(spec) ** 2
        tot = np.sum(weight)
        if tot <= 0:
            return float("nan")
        return float(np.sum(weight * k) / tot)


def _branch_index(branch: str) -> int:
    if branch in ("up", 0):
        return 0
    if branch in ("down", 1):
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

    Requires at least 8 grid points per sigma so the packet is resolved.
    """
    z = np.linspace(-extent / 2, extent / 2, n_points, endpoint=False)
    dz = z[1] - z[0]
    if sigma / dz < 8:
        raise SolverError(
            f"grid spacing {dz:.4g} does not resolve sigma={sigma} (need >= 8 points per sigma)"
        )
    envelope = (2 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -((z - center) ** 2) / (4 * sigma**2) + 1j * momentum * z
    )
    c = np.asarray(spinor, dtype=complex)
    c = c / np.linalg.norm(c)
    psi = np.stack([c[0] * envelope, c[1] * envelope])
    grid = SpinorGrid(z=z, psi=psi, mass=mass)
    # discrete renormalization
    psi = psi / np.sqrt(grid.norm_squared())
    return SpinorGrid(z=z, psi=psi, mass=mass)


def _field_arrays(grid: SpinorGrid, field: FieldModel):
    if grid.x is None:
        return field.components(0.0, grid.z)
    xx, zz = np.meshgrid(grid.x, grid.z, indexing="ij")
    return field.components(xx, zz)


def _kinetic_phase(grid: SpinorGrid, dt: float) -> np.ndarray:
    kz = 2 * np.pi * np.fft.fftfreq(len(grid.z), d=grid.dz)
    if grid.x is None:
        k2 = kz**2
    else:
        kx = 2 * np.pi * np.fft.fftfreq(len(grid.x), d=float(grid.x[1] - grid.x[0]))
        k2 = kx[:, None] ** 2 + kz[None, :] ** 2
    return np.exp(-0.5j * dt * k2 / (2 * grid.mass))


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
    boundary_tol: float = 1e-6,
    check_every: int = 100,
) -> SpinorGrid:
    """Strang-split evolution over `steps` time steps; returns a new grid.

    Rejects time steps with dt * mu * max|B| > 0.1 (accuracy of the potential
    step); aborts with a diagnostic when boundary mass exceeds `boundary_tol`.
    """
    bx, bz = _field_arrays(grid, field)
    max_b = float(np.max(np.sqrt(bx**2 + bz**2)))
    if dt * field.mu * max_b > 0.1:
        raise SolverError(
            f"dt*mu*max|B| = {dt * field.mu * max_b:.3g} > 0.1; reduce dt"
        )
    half_kin = _kinetic_phase(grid, dt)
    cos, ux, uz = _spin_step(bx, bz, field.mu, dt)
    axes = (-1,) if grid.x is None else (-2, -1)

    def kin(psi):
        return np.fft.ifftn(np.fft.fftn(psi, axes=axes) * half_kin, axes=axes)

    up, down = grid.psi[0].copy(), grid.psi[1].copy()
    current = grid
    for step in range(steps):
        up, down = kin(up), kin(down)
        up, down = (cos + uz) * up + ux * down, ux * up + (cos - uz) * down
        up, down = kin(up), kin(down)
        if (step + 1) % check_every == 0 or step + 1 == steps:
            current = replace(grid, psi=np.stack([up, down]))
            bm = current.boundary_mass()
            if bm > boundary_tol:
                raise BoundaryLeakError(
                    f"boundary mass {bm:.3g} > {boundary_tol:.3g} at step {step + 1};"
                    " enlarge the grid extent"
                )
    return replace(grid, psi=np.stack([up, down]))


def momentum_kick(final: SpinorGrid, initial: SpinorGrid, branch: str) -> float:
    """Change of the branch-restricted <p_z> between two snapshots."""
    if min(final.branch_weight(branch), initial.branch_weight(branch)) < 1e-6:
        raise SolverError(f"branch {branch!r} carries negligible weight")
    return final.mean_pz(branch) - initial.mean_pz(branch)


def spin_flip_probability(final: SpinorGrid, initial_branch: str) -> float:
    """Weight of the spinor component orthogonal to the prepared branch."""
    other = "down" if _branch_index(initial_branch) == 0 else "up"
    return final.branch_weight(other)


@dataclass(frozen=True)
class AdiabaticityReport:
    u_fi: float
    larmor_omega: float
    inequality_margin: float  # (omega / v) * B0 / B2; inf when B2 = 0
    flip_probability: float | None = None
    kick_up: float | None = None
    kick_down: float | None = None


def adiabaticity_parameter(field: FieldModel, v: float, z_scale: float) -> AdiabaticityReport:
    """Dimensionless change-rate U_fi = v * z * B2 / (omega * dx * B0),
    with omega = mu * B0 and dx the field-region extent.

    The spin-flip suppression condition is B2 << (omega / v) * B0; its margin
    is returned alongside.
    """
    if v <= 0:
        raise FieldError("beam speed must be positive")
    omega = field.larmor_omega
    u_fi = v * z_scale * field.b2 / (omega * field.region_extent * field.b0)
    margin = (omega / v) * field.b0 / field.b2 if field.b2 != 0 else float("inf")
    return AdiabaticityReport(u_fi=abs(u_fi), larmor_omega=omega, inequality_margin=margin)


def coupling_factorization_check(field: FieldModel, dt: float, z=None) -> float:
    """Max grid-point residual of the phase/translation factorization of the
    diagonal coupling:

        exp(i dt mu sigma_z B_z(z)) = e^{i sigma_z mu b0 dt} *
                                      diag(e^{i mu b1 z dt}, e^{-i mu b1 z dt}).

    Exact only for b2 = 0 (diagonal coupling); rejected otherwise.
    """
    if field.b2 != 0:
        raise FieldError("factorization is exact only for b2 = 0")
    if z is None:
        z = np.linspace(-field.region_extent / 2, field.region_extent / 2, 101)
    z = np.asarray(z, dtype=float)
    bz = field.b0 + field.b1 * z
    worst = 0.0
    for zi, bzi in zip(z, bz):
        full = np.diag(
            [np.exp(1j * field.mu * bzi * dt), np.exp(-1j * field.mu * bzi * dt)]
        )
        uniform = np.diag(
            [np.exp(1j * field.mu * field.b0 * dt), np.exp(-1j * field.mu * field.b0 * dt)]
        )
        gradient = np.diag(
            [np.exp(1j * field.mu * field.b1 * zi * dt), np.exp(-1j * field.mu * field.b1 * zi * dt)]
        )
        worst = max(worst, float(np.linalg.norm(full - uniform @ gradient)))
    return worst


@dataclass(frozen=True)
class TimeSeries:
    times: np.ndarray
    z_up: np.ndarray
    z_down: np.ndarray
    pz_up: np.ndarray
    pz_down: np.ndarray
    flip_prob: np.ndarray
    norm: np.ndarray


@dataclass(frozen=True)
class RunResult:
    initial: SpinorGrid
    final: SpinorGrid
    series: TimeSeries


def run_simulation(
    grid: SpinorGrid,
    field: FieldModel,
    dt: float,
    steps: int,
    record_every: int = 10,
    boundary_tol: float = 1e-6,
) -> RunResult:
    """Evolve while recording the observables time series.

    flip_prob tracks the weight of the minority branch relative to the
    initially dominant spinor component; NaN when the initial state is not a
    pure eigenbranch.
    """
    if record_every < 1:
        raise SolverError(f"record_every must be >= 1, got {record_every}")
    w_up = grid.branch_weight("up")
    w_down = grid.branch_weight("down")
    if w_down < 1e-12:
        flip_branch = "up"
    elif w_up < 1e-12:
        flip_branch = "down"
    else:
        flip_branch = None

    rows = []
    current = grid
    t = 0.0
    rows.append(_observe(current, t, flip_branch))
    done = 0
    while done < steps:
        chunk = min(record_every, steps - done)
        current = evolve(current, field, dt, chunk, boundary_tol=boundary_tol,
                         check_every=max(chunk, 1))
        done += chunk
        t = done * dt
        rows.append(_observe(current, t, flip_branch))
    cols = list(zip(*rows))
    series = TimeSeries(*(np.array(c) for c in cols))
    return RunResult(initial=grid, final=current, series=series)


def _observe(grid: SpinorGrid, t: float, flip_branch: str | None):
    flip = spin_flip_probability(grid, flip_branch) if flip_branch else float("nan")
    return (
        t,
        grid.mean_z("up"),
        grid.mean_z("down"),
        grid.mean_pz("up"),
        grid.mean_pz("down"),
        flip,
        grid.norm_squared(),
    )
