import json
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from solver_oracle import (
    linear_potential_below,
    linear_potential_density,
    linear_potential_means,
    precession_spin,
    restart_per_chunk,
)

from qmamp import measurement, scenarios, sterngerlach
from qmamp.scenarios import SG_BYTES_PER_POINT
from qmamp.sterngerlach import (
    BOUNDARY_CELLS,
    BOUNDARY_TOL,
    MAX_STEP_ANGLE,
    BoundaryLeakError,
    FieldError,
    FieldModel,
    SolverError,
    COLUMNS,
    SpinorGrid,
    _spin_step,
    adiabaticity_parameter,
    branch_weights,
    evolve,
    gaussian_packet,
    grid_z,
    max_field,
    run_simulation,
)


def mean_z(grid, c):
    """<z> of spin branch c, the component psi[c], of the grid."""
    w = np.abs(grid.psi[c]) ** 2
    return np.sum(w * grid.z) / np.sum(w)


def test_field_model_validation_and_components():
    with pytest.raises(FieldError):
        FieldModel(b0=0.0, b1=1.0, b2=0.0)
    f = FieldModel(b0=1.0, b1=0.5, b2=0.25)
    bx, bz = f.components(0.0, 2.0)
    assert bx == pytest.approx(0.5)
    assert bz == pytest.approx(2.0)
    # divergence and curl vanish for the linearized field:
    # dBx/dx = -b1 = -dBz/dz and dBx/dz = b2 = dBz/dx
    eps = 1e-6
    dbx_dx = (f.components(eps, 0.3)[0] - f.components(-eps, 0.3)[0]) / (2 * eps)
    dbz_dz = (f.components(0.3, eps)[1] - f.components(0.3, -eps)[1]) / (2 * eps)
    dbx_dz = (f.components(0.3, eps)[0] - f.components(0.3, -eps)[0]) / (2 * eps)
    dbz_dx = (f.components(eps, 0.3)[1] - f.components(-eps, 0.3)[1]) / (2 * eps)
    assert dbx_dx + dbz_dz == pytest.approx(0.0, abs=1e-9)
    assert dbx_dz - dbz_dx == pytest.approx(0.0, abs=1e-9)


def test_gaussian_packet_normalization_and_resolution():
    g = gaussian_packet(512, 40.0, sigma=1.0)
    weights = branch_weights(g.psi, g.dz)
    assert weights.sum() == pytest.approx(1.0)
    assert weights[0] == pytest.approx(1.0)
    assert mean_z(g, 0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SolverError):
        gaussian_packet(64, 40.0, sigma=1.0)  # under 8 points per sigma


@pytest.mark.parametrize("points", [512, 4099, 1 << 14])
def test_branch_weights_are_each_component_sum_bit_for_bit(points):
    # the byte-identical outputs rest on a row of the (2, n) density summing
    # to the same bits as the density of that component alone
    g = gaussian_packet(points, 40.0, sigma=1.0, center=1.3, spinor=(0.6, 0.8j))
    weights = branch_weights(g.psi, g.dz)
    assert np.abs(weights - (0.36, 0.64)).max() <= 1e-12
    for c in (0, 1):
        assert weights[c] == np.sum(np.abs(g.psi[c]) ** 2) * g.dz


def test_gaussian_packet_momentum_and_center():
    g = gaussian_packet(1024, 40.0, sigma=1.5, center=2.0, momentum=3.0)
    assert mean_z(g, 0) == pytest.approx(2.0, abs=1e-6)
    assert g.mean_pz(0) == pytest.approx(3.0, abs=1e-6)


def test_free_packet_spreads_without_drift():
    g = gaussian_packet(512, 60.0, sigma=2.0)
    f = FieldModel(b0=1e-12 + 1e-15, b1=0.0, b2=0.0)  # effectively free
    out = evolve(g, f, dt=0.01, steps=200)
    assert mean_z(out, 0) == pytest.approx(0.0, abs=1e-8)
    assert out.mean_pz(0) == pytest.approx(0.0, abs=1e-8)
    assert branch_weights(out.psi, out.dz).sum() == pytest.approx(1.0, abs=1e-10)
    # variance grows under free evolution
    w = np.abs(out.psi[0]) ** 2
    var = np.sum(w * out.z**2) / np.sum(w)
    assert var > 4.0


def test_free_packet_ballistic_motion():
    p0 = 1.5
    g = gaussian_packet(1024, 80.0, sigma=2.0, momentum=p0)
    f = FieldModel(b0=1e-12 + 1e-15, b1=0.0, b2=0.0)
    t = 2.0
    out = evolve(g, f, dt=0.01, steps=200)
    assert mean_z(out, 0) == pytest.approx(p0 * t, abs=1e-6)  # hbar = m = 1


def test_uniform_field_larmor_precession():
    # B = b0 x_hat rotates the spin at frequency 2 mu b0; starting in |up>,
    # the flip probability is sin^2(mu b0 t)
    g = gaussian_packet(256, 40.0, sigma=1.5)
    mu, b0 = 1.0, 0.2
    # sigma_x coupling via b2 with z frozen is not uniform; emulate a uniform
    # transverse field by checking sigma_z precession instead: prepare |+x>
    # in B = b0 z_hat and watch <sigma_x> rotate, i.e. branch weights stay put
    f = FieldModel(b0=b0, b1=0.0, b2=0.0, mu=mu)
    gx = SpinorGrid(z=g.z, psi=np.stack([g.psi[0], g.psi[0]]) / np.sqrt(2))
    t, dt = 4.0, 0.005
    out = evolve(gx, f, dt=dt, steps=int(round(t / dt)))
    # diagonal field: branch weights are conserved exactly
    up, down = branch_weights(out.psi, out.dz)
    assert up == pytest.approx(0.5, abs=1e-10)
    assert down == pytest.approx(0.5, abs=1e-10)
    # relative phase 2 mu b0 t between the branches
    phase = np.angle(np.vdot(out.psi[1], out.psi[0]))
    expected = (-2 * mu * b0 * t) % (2 * np.pi)
    assert phase % (2 * np.pi) == pytest.approx(expected, abs=1e-6)


def sg_scenario(field, grid, dt, steps, record_every):
    return {"version": 1, "kind": "sterngerlach", "field": field, "grid": grid,
            "time": {"dt": dt, "steps": steps, "record_every": record_every}}


def columns(rows):
    """A run's recorded rows as one array per column of COLUMNS."""
    return {name: np.array([row[name] for row in rows]) for name in COLUMNS}


def packet_run(scenario):
    """The packet of a sterngerlach scenario and its run, built and run here
    rather than by `scenarios.simulate`: (initial grid, rows, final grid)."""
    f = scenarios._sg_fields(scenario)
    grid = gaussian_packet(f["grid.points"], f["grid.extent"], f["grid.sigma"], f["grid.center"],
                           f["grid.momentum"], f["grid.spinor"], f["grid.mass"])
    rows, final = run_simulation(grid, scenarios._field(f), f["time.dt"], f["time.steps"],
                                 f["time.record_every"])
    return grid, rows, final


def test_gradient_kick_magnitude_and_sign():
    # longitudinal gradient b1 pushes the branches apart by mu*b1*T each
    mu, b1, t, dt = 1.0, 0.5, 1.0, 0.005
    _, summary = scenarios.simulate(sg_scenario(
        {"b0": 1.0, "b1": b1, "b2": 0.0, "mu": mu},
        {"points": 2048, "extent": 40.0, "sigma": 1.0, "spinor": [1.0, 1.0]},
        dt, round(t / dt), 20,
    ))
    kick_up, kick_down = summary["kick_up"], summary["kick_down"]
    assert abs(kick_up) == pytest.approx(mu * b1 * t, rel=1e-3)
    assert abs(kick_down) == pytest.approx(mu * b1 * t, rel=1e-3)
    assert kick_up == pytest.approx(-kick_down, rel=1e-3)
    assert kick_up * kick_down < 0


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SUPERPOSED_TRAJECTORY = sg_scenario(
    {"b0": 4.0, "b1": 0.2, "b2": 0.0, "mu": 1.0},
    {"points": 4096, "extent": 80.0, "sigma": 1.0, "center": 1.3, "spinor": [0.8, [0.0, 0.6]]},
    0.002, 500, 1,
)


@pytest.mark.parametrize(
    "scenario",
    [json.loads((EXAMPLES / name).read_text())
     for name in ("sterngerlach_split.json", "sterngerlach_flip.json")]
    + [SUPERPOSED_TRAJECTORY],
    ids=["split", "flip", "superposed-trajectory"],
)
def test_summary_kicks_are_the_spectral_change_of_pz(scenario):
    # the summary reads each kick off the recorded rows; the oracle takes a
    # fresh FFT of the initial and the final state of the scenario's packet,
    # run outside simulate to the same rows
    rows, summary = scenarios.simulate(scenario)
    initial, own_rows, final = packet_run(scenario)
    recorded = columns(rows)
    for name, column in columns(own_rows).items():
        np.testing.assert_array_equal(column, recorded[name], err_msg=name)
    kicks = 0
    held = np.minimum(branch_weights(initial.psi, initial.dz), branch_weights(final.psi, final.dz))
    for c, branch in enumerate(("up", "down")):
        kick = summary[f"kick_{branch}"]
        if held[c] < 1e-6:
            assert kick is None, branch
            continue
        expected = final.mean_pz(c) - initial.mean_pz(c)
        assert abs(kick - expected) <= 1e-12 * abs(expected), branch
        kicks += 1
    assert kicks == (1 if scenario["grid"]["spinor"][1] == 0.0 else 2)


def test_kick_needs_the_branch_at_the_start_and_the_end():
    # a spin-up start gains down weight through the transverse field, but
    # the down branch has no initial <p_z> to take the kick from
    scenario = sg_scenario(
        {"b0": 2.0, "b1": 0.1, "b2": 0.3},
        {"points": 512, "extent": 40.0, "sigma": 1.0},
        0.005, 50, 10,
    )
    rows, summary = scenarios.simulate(scenario)
    final = packet_run(scenario)[2]
    assert branch_weights(final.psi, final.dz)[1] > 1e-6
    assert np.isfinite(rows[-1]["pz_down"])
    assert summary["kick_down"] is None
    assert np.isfinite(summary["kick_up"])


def test_sweep_kicks_are_simulate_kicks_bit_for_bit():
    # a sweep point records only at its start and its end; a sterngerlach run
    # of the same fields recording there gives the same kicks to the last bit
    base = {
        "field": {"b0": 2.0, "b1": 0.1, "b2": 0.05, "mu": 1.3},
        "grid": {"points": 1024, "extent": 40.0, "sigma": 1.0, "center": 0.4,
                 "momentum": 0.2, "spinor": [0.6, [0.0, 0.8]]},
        "time": {"dt": 0.004, "steps": 150},
    }
    b1_values = [0.1, 0.35]
    rows = scenarios.sweep({"version": 1, "kind": "sweep", "base": base,
                            "axes": [{"path": "field.b1", "values": b1_values}]})
    for b1, row in zip(b1_values, rows):
        _, summary = scenarios.simulate(sg_scenario(
            {**base["field"], "b1": b1}, base["grid"], 0.004, 150, 150))
        assert row["kick_up"] is not None and row["kick_down"] is not None
        assert (row["kick_up"], row["kick_down"]) == (summary["kick_up"], summary["kick_down"])


def test_evolve_rejects_coarse_time_step():
    g = gaussian_packet(256, 40.0, sigma=1.5)
    f = FieldModel(b0=50.0, b1=0.0, b2=0.0)
    with pytest.raises(SolverError):
        evolve(g, f, dt=0.01, steps=1)  # dt*mu*max|B| = 0.5


@pytest.mark.parametrize("points, extent", [(256, 40.0), (777, 80.0), (3000, 40.0), (4099, 7.77)])
def test_step_preflight_and_evolve_agree_at_the_border(points, extent):
    # the preflight takes max|B| at the packet grid's ends without building
    # it, and refuses exactly the steps evolve refuses, within a few ulps of
    # the largest step accepted
    fields = {"field.b0": 2.0, "field.b1": 0.3, "field.b2": -0.25, "field.mu": 1.5,
              "field.region_extent": 10.0, "grid.points": points, "grid.extent": extent,
              "grid.sigma": 16 * extent / points, "grid.center": 0.0, "grid.momentum": 0.0,
              "grid.spinor": [1.0, 0.0], "grid.mass": 1.0, "time.steps": 1,
              "adiabaticity": False}
    field, grid = scenarios._field(fields), gaussian_packet(points, extent, fields["grid.sigma"])
    assert [grid_z(points, extent, i) for i in (0, points - 1)] == [grid.z[0], grid.z[-1]]
    max_b = max_field(field, grid.z[[0, -1]])
    bx, bz = field.components(0.0, grid.z)
    assert max_b == np.sqrt(bx**2 + bz**2).max()  # |B| as the solver's step takes it
    verdicts = set()
    for dt in MAX_STEP_ANGLE / (1.5 * max_b) * (1 + np.spacing(1.0) * np.arange(-3, 4)):
        try:
            evolve(grid, field, dt, steps=0)
        except SolverError:
            with pytest.raises(scenarios.ScenarioError, match="time.dt"):
                scenarios._preflight({**fields, "time.dt": float(dt)}, str)
            verdicts.add("refused")
        else:
            scenarios._preflight({**fields, "time.dt": float(dt)}, str)
            verdicts.add("accepted")
    assert verdicts == {"refused", "accepted"}


# float edges where a square, a reciprocal or a product of two fields leaves
# the normal range
EDGES = [5e-324, 1e-320, 1e-310, 2.8e-309, 1e-300, 1e-160, 1e-12, 1e12, 1e154, 1e160, 1e300,
         sys.float_info.max]
FLOAT_FIELDS = [path for path, default in scenarios.SG_FIELDS.items()
                if isinstance(default, float)]
EDGE_VALUES = st.one_of(st.sampled_from(EDGES), st.floats(EDGES[0], EDGES[-1]))


@settings(deadline=None, max_examples=300)
@given(points=st.integers(256, 1024), adiabaticity=st.booleans(),
       edits=st.dictionaries(st.sampled_from(FLOAT_FIELDS), st.tuples(EDGE_VALUES, st.booleans()),
                             min_size=1, max_size=3))
# the grid's spacing rounds to 0: the resolution row must not divide by it
@example(points=512, adiabaticity=False, edits={"grid.extent": (5e-324, False)})
# dt kmax^2 / mass is finite, but numpy's 1 / (2 mass) overflows
@example(points=1024, adiabaticity=False,
         edits={"grid.mass": (1e-310, False), "time.dt": (1e-300, False)})
def test_a_run_the_preflight_admits_is_a_run_the_solver_takes(points, adiabaticity, edits):
    # a valid run with one to three float fields at an edge value, negated
    # at random where the field is signed: the preflight refuses it, or two
    # steps of it run with no warning and finite norms (or leak at the edge)
    scenario = sg_scenario({"b0": 1.0, "b1": 0.5, "b2": 0.1},
                           {"points": points, "extent": 20.0, "sigma": 1.0}, 0.005, 2, 1)
    f = {**scenarios._sg_fields(scenario), "adiabaticity": adiabaticity}
    for path, (value, negated) in edits.items():
        f[path] = -value if negated and path in scenarios.SG_SIGNED else value
    try:
        scenarios._preflight(f, str)
    except scenarios.ScenarioError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows, summary = scenarios._run(f, 1, str)
        except scenarios.ScenarioError as exc:
            assert str(exc).startswith("field 'grid.extent': "), exc  # the packet leaked
            return
    assert all(math.isfinite(row["norm"]) for row in rows), rows
    assert math.isfinite(summary["norm"]), summary


def test_boundary_leak_detection():
    # a fast packet crosses the box edge well within the run
    g = gaussian_packet(256, 20.0, sigma=1.0, momentum=10.0)
    f = FieldModel(b0=1e-6, b1=0.0, b2=0.0)
    with pytest.raises(BoundaryLeakError):
        evolve(g, f, dt=0.01, steps=400, check_every=10)


def test_flip_probability_zero_without_transverse_field():
    g = gaussian_packet(512, 40.0, sigma=1.0)
    f = FieldModel(b0=2.0, b1=0.3, b2=0.0)
    out = evolve(g, f, dt=0.005, steps=200)
    assert branch_weights(out.psi, out.dz)[1] <= 1e-14


def test_flip_probability_grows_with_transverse_gradient():
    flips = []
    for b2 in (0.0, 0.2, 0.4):
        f = FieldModel(b0=4.0, b1=0.0, b2=b2)
        g = gaussian_packet(512, 40.0, sigma=1.0)
        out = evolve(g, f, dt=0.004, steps=250)
        flips.append(branch_weights(out.psi, out.dz)[1])
    assert flips[0] <= 1e-14
    assert flips[0] < flips[1] < flips[2]


def test_adiabaticity_parameter_closed_form():
    # U_fi = v z B2 / (omega dx B0) with omega = mu B0
    f = FieldModel(b0=2.0, b1=0.0, b2=0.1, mu=3.0, region_extent=5.0)
    rep = adiabaticity_parameter(f, v=4.0, z_scale=1.5)
    assert rep["larmor_omega"] == pytest.approx(6.0)
    assert rep["u_fi"] == pytest.approx(4.0 * 1.5 * 0.1 / (6.0 * 5.0 * 2.0))
    assert rep["inequality_margin"] == pytest.approx((6.0 / 4.0) * 2.0 / 0.1)
    zero = adiabaticity_parameter(FieldModel(b0=2.0, b1=0.0, b2=0.0), v=1.0, z_scale=1.0)
    assert zero["u_fi"] == 0.0
    assert zero["inequality_margin"] == float("inf")
    with pytest.raises(FieldError):
        adiabaticity_parameter(f, v=0.0, z_scale=1.0)


def test_coupling_factorization():
    # for the diagonal coupling (b2 = 0), at every point of the field region,
    #   exp(i dt mu sigma_z B_z(z))
    #     = e^{i sigma_z mu b0 dt} diag(e^{i mu b1 z dt}, e^{-i mu b1 z dt}),
    # and the solver's potential step is its inverse exp(-i dt mu sigma_z B_z(z))
    f, dt = FieldModel(b0=1.0, b1=0.7, b2=0.0, mu=2.0), 0.01
    z = np.linspace(-f.region_extent / 2, f.region_extent / 2, 101)
    bx, bz = f.components(0.0, z)
    sign = np.array([[1.0], [-1.0]])  # the diagonal of sigma_z
    full = np.exp(1j * sign * f.mu * bz * dt)
    uniform = np.exp(1j * sign * f.mu * f.b0 * dt)
    gradient = np.exp(1j * sign * f.mu * f.b1 * z * dt)
    assert np.linalg.norm(full - uniform * gradient, axis=0).max() <= 1e-12
    cos, ux, uz = _spin_step(bx, bz, f.mu, dt)
    assert not ux.any()
    step = np.stack([cos + uz, cos - uz])
    assert np.linalg.norm(step * full - 1.0, axis=0).max() <= 1e-12


def test_run_simulation_series():
    f = FieldModel(b0=1.0, b1=0.5, b2=0.0)
    g = gaussian_packet(1024, 40.0, sigma=1.0, spinor=(1.0, 1.0))
    rows, _ = run_simulation(g, f, dt=0.005, steps=100, record_every=20)
    assert all(tuple(row) == COLUMNS for row in rows)
    s = columns(rows)
    assert len(s["t"]) == 6
    assert s["t"][-1] == pytest.approx(0.5)
    assert np.allclose(s["norm"], 1.0, atol=1e-10)
    # both-branch start: flip probability is undefined
    assert np.all(np.isnan(s["flip_prob"]))
    # momenta drift linearly in opposite directions
    assert s["pz_up"][-1] < s["pz_up"][0] or s["pz_up"][-1] > s["pz_up"][0]
    assert (s["pz_up"][-1] - s["pz_up"][0]) * (s["pz_down"][-1] - s["pz_down"][0]) < 0


@pytest.mark.parametrize("record_every", [0, -2])
def test_run_simulation_rejects_nonpositive_record_every(record_every):
    g = gaussian_packet(512, 40.0, sigma=1.0)
    with pytest.raises(SolverError, match="record_every"):
        run_simulation(g, FieldModel(b0=1.0, b1=0.0, b2=0.0), dt=0.005, steps=10,
                       record_every=record_every)


def test_run_simulation_flip_branch_tracking():
    f = FieldModel(b0=2.0, b1=0.0, b2=0.3)
    g = gaussian_packet(512, 40.0, sigma=1.0)
    flip_prob = columns(run_simulation(g, f, dt=0.005, steps=50, record_every=25)[0])["flip_prob"]
    assert np.all(np.isfinite(flip_prob))
    assert flip_prob[0] == pytest.approx(0.0)
    assert np.all(np.diff(flip_prob) >= -1e-12)


def test_evolve_matches_per_component_strang_loop():
    # oracle: each spinor component through its own FFT pair, and the spin
    # rotation exp(-i dt H) of H = mu (Bx sx + Bz sz) from eigh at every point
    f = FieldModel(b0=2.0, b1=0.3, b2=0.25, mu=1.5)
    g = gaussian_packet(512, 40.0, sigma=1.0, center=0.5, momentum=0.7, spinor=(0.6, 0.8j))
    dt, steps = 0.005, 57  # not a multiple of check_every
    z = g.z
    k = 2 * np.pi * np.fft.fftfreq(len(z), d=z[1] - z[0])
    half = np.exp(-1j * (dt / 2) * k**2 / (2 * g.mass))
    bx, bz = f.b2 * z, f.b0 + f.b1 * z
    h = f.mu * np.stack([np.stack([bz, bx], -1), np.stack([bx, -bz], -1)], -2)
    w, v = np.linalg.eigh(h)
    u = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * dt * w), v.conj())

    def kinetic(component):
        return np.fft.ifft(np.fft.fft(component) * half)

    up, down = g.psi
    for _ in range(steps):
        up, down = kinetic(up), kinetic(down)
        up, down = u[:, 0, 0] * up + u[:, 0, 1] * down, u[:, 1, 0] * up + u[:, 1, 1] * down
        up, down = kinetic(up), kinetic(down)
    expected = np.stack([up, down])
    assert min(np.linalg.norm(up), np.linalg.norm(down)) > 0.1 * np.linalg.norm(expected)
    out = evolve(g, f, dt=dt, steps=steps, check_every=10)
    assert np.linalg.norm(out.psi - expected) <= 1e-12 * np.linalg.norm(expected)


def test_gaussian_packet_needs_two_points():
    with pytest.raises(SolverError, match="at least 2 grid points"):
        gaussian_packet(1, 40.0, sigma=1.0)


@pytest.mark.parametrize(
    "spinor", [(0.0, 0.0), (1e308, 1e308), (1e-170, 1e-170), (1e-320, 0.0), (1e308, 1j)]
)
def test_gaussian_packet_refuses_a_spinor_norm_of_zero_or_inf(spinor):
    # the squared amplitudes under- or overflow, so the norm is 0 or inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(SolverError, match="spinor norm"):
            gaussian_packet(512, 40.0, sigma=1.0, spinor=spinor)


def test_gaussian_packet_normalizes_a_tiny_spinor():
    # 1e-160 squared is subnormal, not 0: the packet is the spin-up packet
    tiny = gaussian_packet(512, 40.0, sigma=1.0, spinor=(1e-160, 0.0))
    assert np.allclose(tiny.psi, gaussian_packet(512, 40.0, sigma=1.0).psi, rtol=1e-3, atol=0)


@pytest.mark.parametrize("extent", [0.0, -2.0])
def test_field_model_rejects_nonpositive_region_extent(extent):
    with pytest.raises(FieldError, match="region_extent"):
        FieldModel(b0=1.0, b1=0.0, b2=0.1, region_extent=extent)


def test_adiabaticity_parameter_rejects_zero_larmor_frequency():
    field = FieldModel(b0=1.0, b1=0.0, b2=0.1, mu=0.0)
    with pytest.raises(FieldError, match="Larmor frequency"):
        adiabaticity_parameter(field, v=1.0, z_scale=1.0)


def _strang_oracle(g, f, dt, steps):
    """Per-component Strang loop with the spin rotation from eigh at every point."""
    z = g.z
    k = 2 * np.pi * np.fft.fftfreq(len(z), d=z[1] - z[0])
    half = np.exp(-1j * (dt / 2) * k**2 / (2 * g.mass))
    bx, bz = f.b2 * z, f.b0 + f.b1 * z
    h = f.mu * np.stack([np.stack([bz, bx], -1), np.stack([bx, -bz], -1)], -2)
    w, v = np.linalg.eigh(h)
    u = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * dt * w), v.conj())

    def kinetic(component):
        return np.fft.ifft(np.fft.fft(component) * half)

    up, down = g.psi
    for _ in range(steps):
        up, down = kinetic(up), kinetic(down)
        up, down = u[:, 0, 0] * up + u[:, 0, 1] * down, u[:, 1, 0] * up + u[:, 1, 1] * down
        up, down = kinetic(up), kinetic(down)
    return np.stack([up, down])


@pytest.mark.parametrize(
    "steps,check_every",
    [(1, 10), (7, 10), (40, 10), (40, 40)],
    ids=["one-step", "under-check-every", "multiple-of-check-every", "one-check"],
)
def test_evolve_with_merged_half_steps_matches_strang_oracle(steps, check_every):
    # the merged kinetic steps and the closing and reopening half steps at
    # each check must leave the state of the unmerged loop
    f = FieldModel(b0=2.0, b1=0.3, b2=0.25, mu=1.5)
    g = gaussian_packet(512, 40.0, sigma=1.0, center=0.5, momentum=0.7, spinor=(0.6, 0.8j))
    expected = _strang_oracle(g, f, 0.005, steps)
    out = evolve(g, f, dt=0.005, steps=steps, check_every=check_every)
    assert np.linalg.norm(out.psi - expected) <= 1e-12 * np.linalg.norm(expected)


def test_evolve_zero_steps_returns_the_input():
    g = gaussian_packet(512, 40.0, sigma=1.0, spinor=(0.6, 0.8j))
    out = evolve(g, FieldModel(b0=2.0, b1=0.3, b2=0.25), dt=0.005, steps=0)
    assert out.psi.tobytes() == g.psi.tobytes()
    assert out.z.tobytes() == g.z.tobytes()


@pytest.mark.parametrize(
    "steps,check_every,name",
    [(-1, 100, "steps"), (-50, 10, "steps"), (10, 0, "check_every"), (10, -3, "check_every")],
)
def test_evolve_rejects_bad_loop_arguments(steps, check_every, name):
    g = gaussian_packet(256, 40.0, sigma=1.5)
    with pytest.raises(SolverError, match=f"{name} must be"):
        evolve(g, FieldModel(b0=1.0, b1=0.0, b2=0.0), dt=0.005, steps=steps,
               check_every=check_every)


def edge_mass(grid):
    """Probability in the BOUNDARY_CELLS outermost cells at each end."""
    density = np.abs(grid.psi[0]) ** 2 + np.abs(grid.psi[1]) ** 2
    return (density[:BOUNDARY_CELLS].sum() + density[-BOUNDARY_CELLS:].sum()) * grid.dz


def test_boundary_guard_sees_the_completed_state():
    # the guard reads every step's state (between its kinetic and potential
    # steps) and the completed state at each check, so the first run length
    # k whose run leaks stops at step k, and a longer run stops there or one
    # step later, whatever its check_every
    g = gaussian_packet(256, 20.0, sigma=1.0, momentum=10.0)
    f = FieldModel(b0=1e-6, b1=0.0, b2=0.0)
    first = None
    for k in range(1, 401):
        try:
            out = evolve(g, f, dt=0.01, steps=k, check_every=k)
        except BoundaryLeakError as exc:
            assert f"at step {k};" in str(exc)
            first = k
            break
        assert edge_mass(out) <= BOUNDARY_TOL
    assert first is not None and first > 10
    with pytest.raises(BoundaryLeakError, match=f"at step {first};"):
        evolve(g, f, dt=0.01, steps=400, check_every=1)
    for check_every in (10, 400):
        with pytest.raises(BoundaryLeakError, match=f"at step ({first}|{first + 1});"):
            evolve(g, f, dt=0.01, steps=400, check_every=check_every)


def test_boundary_guard_catches_a_packet_that_wraps_between_checks(monkeypatch):
    # the packet leaves through one edge and wraps round the periodic box
    # long before the last step; a guard that read only the completed state
    # at the end passed this run, whose packet then sits mid-box again
    g = gaussian_packet(512, 40.0, sigma=1.0, momentum=20.0)
    f = FieldModel(b0=1.0, b1=0.0, b2=0.0)
    steps = 400  # the packet travels 20 * 0.005 * 400 = 40, once round the box
    with pytest.raises(BoundaryLeakError) as leak:
        evolve(g, f, dt=0.005, steps=steps, check_every=steps)
    assert int(re.search(r"at step (\d+);", str(leak.value))[1]) < steps / 2
    # one read per step, and one of the completed state at the check
    steps_read = []
    guard = sterngerlach._guard
    monkeypatch.setattr(
        sterngerlach, "_guard", lambda psi, *args: steps_read.append(args[-1]) or guard(psi, *args)
    )
    evolve(g, f, dt=0.005, steps=20, check_every=20)
    assert steps_read == list(range(1, 21)) + [20]
    # the guard reads the density of the grid's edge cells: over a step too
    # short to move a wide packet, a tolerance just under its edge mass
    # aborts the run, one just over it passes
    wide = gaussian_packet(64, 8.0, sigma=1.0, spinor=(0.6, 0.8j))
    for tol, leaks in ((0.99, True), (1.01, False)):
        monkeypatch.setattr(sterngerlach, "BOUNDARY_TOL", tol * edge_mass(wide))
        try:
            evolve(wide, f, dt=1e-9, steps=1)
        except BoundaryLeakError:
            assert leaks
        else:
            assert not leaks


def test_run_peak_memory_within_bytes_per_point():
    # the size preflight and the sweep pool bound trust SG_BYTES_PER_POINT for
    # the whole run: the packet, the solver, and the observables of two records
    n = 1 << 14
    tracemalloc.start()
    try:
        g = gaussian_packet(n, 40.0, sigma=1.0)
        run_simulation(g, FieldModel(b0=1.0, b1=0.5, b2=0.2), dt=0.005, steps=4, record_every=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SG_BYTES_PER_POINT * n, f"{peak / n:.0f} bytes per point"


RUN_STEPS = 20


@pytest.mark.parametrize("record_every", [1, 7, RUN_STEPS])
@pytest.mark.parametrize(
    "spinor, empty", [((1.0, 0.0), "z_down"), ((0.0, 1.0), "z_up"), ((0.6, 0.8j), None)],
    ids=["up", "down", "superposed"],
)
def test_run_simulation_matches_restart_per_chunk_oracle(record_every, spinor, empty):
    # one evolve call with a record at every check leaves the rows of a loop
    # that restarts evolve at every record, and the final state of evolve alone
    f = FieldModel(b0=2.0, b1=0.3, b2=0.25, mu=1.5)
    g = gaussian_packet(512, 40.0, sigma=1.0, center=0.5, momentum=0.7, spinor=spinor)
    rows, final = run_simulation(g, f, dt=0.005, steps=RUN_STEPS, record_every=record_every)
    expected = restart_per_chunk(g, f, 0.005, RUN_STEPS, record_every)
    s = columns(rows)
    assert len(s["t"]) == -(-RUN_STEPS // record_every) + 1
    for name, y in zip(COLUMNS, expected):
        x = s[name]
        assert np.array_equal(np.isnan(x), np.isnan(y)), name
        ok = ~np.isnan(y)
        assert np.all(np.abs(x[ok] - y[ok]) <= 1e-12 * np.maximum(1.0, np.abs(y[ok]))), name
    if empty:  # a pure eigenbranch: the other branch is empty at the start
        assert np.isnan(s[empty][0]) and np.isfinite(s["flip_prob"]).all()
    else:
        assert np.isnan(s["flip_prob"]).all() and np.isfinite(s["z_down"]).all()
    alone = evolve(g, f, dt=0.005, steps=RUN_STEPS, check_every=record_every)
    assert final.psi.tobytes() == alone.psi.tobytes()
    assert final.z.tobytes() == g.z.tobytes()


@pytest.mark.parametrize("steps", [0, 1, 9])
def test_run_simulation_calls_evolve_once(monkeypatch, steps):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("check_every"))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(sterngerlach, "evolve", counting)
    g = gaussian_packet(256, 40.0, sigma=1.5, spinor=(0.6, 0.8))
    rows, _ = run_simulation(g, FieldModel(b0=1.0, b1=0.2, b2=0.1), dt=0.005, steps=steps,
                             record_every=4)
    assert calls == [4]
    assert len(rows) == -(-steps // 4) + 1


def test_run_simulation_builds_no_grid_per_record(monkeypatch):
    # each record reads the completed state itself: the one grid built is
    # the final grid that evolve returns
    built = []
    post_init = SpinorGrid.__post_init__
    monkeypatch.setattr(SpinorGrid, "__post_init__", lambda g: built.append(g) or post_init(g))
    g = gaussian_packet(256, 40.0, sigma=1.5, spinor=(0.6, 0.8))
    built.clear()
    rows, final = run_simulation(g, FieldModel(b0=1.0, b1=0.2, b2=0.1), dt=0.005, steps=9,
                                 record_every=1)
    assert len(rows) == 10
    assert len(built) == 1 and built[0] is final


def assert_follows_newton(rows, field, packet):
    """Each branch's recorded <z> and <p_z> follow Newton's law to 1e-11."""
    s = columns(rows)
    for branch in ("up", "down"):
        z, pz = linear_potential_means(s["t"], branch, mu=field.mu, b1=field.b1, **packet)
        assert np.abs(s[f"z_{branch}"] - z).max() < 1e-11, branch
        assert np.abs(s[f"pz_{branch}"] - pz).max() < 1e-11, branch


@pytest.mark.parametrize("dt", [0.005, 0.0025, 0.00125])
def test_run_simulation_follows_the_linear_potential_closed_form(dt):
    # with b2 = 0 Strang splitting is exact for any dt, so only rounding,
    # 5e-14 to 2e-13 here, separates every record from Newton's law
    packet = {"center": 0.0, "momentum": 0.3, "mass": 1.0}
    field = FieldModel(b0=1.0, b1=0.5, b2=0.0, mu=1.0)
    g = gaussian_packet(2048, 40.0, spinor=(1.0, 1.0), **packet)
    rows, _ = run_simulation(g, field, dt=dt, steps=round(2.0 / dt), record_every=10)
    assert rows[-1]["t"] == pytest.approx(2.0)
    assert_follows_newton(rows, field, packet)


@pytest.mark.parametrize("b0, mu, dt", [(1.0, 1.0, 0.005), (0.7, 1.3, 0.01), (2.0, 0.5, 0.0025)])
def test_evolve_follows_the_precession_closed_form(b0, mu, dt):
    # with b1 = b2 = 0 the spinor (1, 1) precesses about z at 2 mu b0; every
    # check's <sigma_x> and <sigma_y> match to rounding, at most 8.5e-14 measured
    g = gaussian_packet(1024, 40.0, sigma=1.0, spinor=(1.0, 1.0))
    steps, seen = round(2.0 / dt), []

    def spin(step, psi, phi):
        overlap = np.vdot(psi[0], psi[1]) * g.dz
        sx, sy = precession_spin(step * dt, b0=b0, mu=mu)
        seen.append(max(abs(2 * overlap.real - sx), abs(2 * overlap.imag - sy)))

    evolve(g, FieldModel(b0=b0, b1=0.0, b2=0.0, mu=mu), dt, steps, check_every=10,
           on_check=spin)
    assert len(seen) == steps // 10
    assert max(seen) <= 1e-12


def read_pointer(spinor, mass, points, extent, dt, steps, check_every):
    """Run a packet of the spinor through b0 = 1, b1 = 0.5, b2 = 0 and read the
    pointer P(z < 0) at each check.  Returns the instrument's probability of
    up and, per check: the largest gap of each branch's density to its closed
    form, the reading's gap to the closed form summed on the grid and to the
    continuum's, its gap to the instrument's probability, and the closed
    form's weight on the wrong side (up at z >= 0, down at z < 0)."""
    packet = {"sigma": 1.0, "center": 0.0, "momentum": 0.0, "mass": mass}
    field = FieldModel(b0=1.0, b1=0.5, b2=0.0, mu=1.0)
    oracle = {"mu": field.mu, "b1": field.b1, **packet}
    g = gaussian_packet(points, extent, spinor=spinor, **packet)
    left = g.z < 0
    rep = measurement.clock_rep(2)
    up = measurement.outcome([0])  # the trivial character: E = |0><0|, spin up
    xi = np.asarray(spinor, dtype=complex) / np.linalg.norm(spinor)
    p_up = measurement.instrument(rep, up, xi, np.eye(2)).probability
    branches = list(zip(np.abs(xi) ** 2, ("up", "down")))
    checks = {"density": [], "reading": [], "continuum": [], "gap": [], "wrong_side": []}

    def read(step, psi, phi):
        t = step * dt
        densities = np.abs(psi) ** 2
        closed = [w * linear_potential_density(g.z, t, b, **oracle) for w, b in branches]
        checks["density"].append(np.abs(densities - closed).max())
        reading = densities[:, left].sum() * g.dz
        checks["reading"].append(abs(reading - np.sum(closed, axis=0)[left].sum() * g.dz))
        below = sum(w * linear_potential_below(-g.dz / 2, t, b, **oracle) for w, b in branches)
        checks["continuum"].append(abs(reading - below))
        checks["gap"].append(abs(reading - p_up))
        checks["wrong_side"].append((closed[0][~left].sum() + closed[1][left].sum()) * g.dz)

    evolve(g, field, dt, steps, check_every=check_every, on_check=read)
    return p_up, {name: np.array(values) for name, values in checks.items()}


@pytest.mark.parametrize("mass", [1.0, 2.0])
def test_pointer_reads_the_sigma_z_instrument(mass):
    # The Stern-Gerlach measurement is the sigma_z instrument plus an
    # amplification: the up branch moves to z < 0 and the down branch to
    # z > 0, so the pointer reading P(z < 0) tends to the instrument's
    # probability of up, |0.6|^2 = 0.36, as the branches separate faster than
    # they spread.  With b2 = 0 each branch keeps the closed-form density to
    # rounding (at most 1.0e-13 measured), and the reading matches the closed
    # form summed on the grid (at most 5.5e-13).  z = 0 is a grid point, so
    # the grid's points below it sample the continuum below -dz/2, where the
    # reading is within 1.6e-6 of the closed form.  At mass 1 its gap to 0.36
    # fell from 1.1e-1 at t = 1 to 9.8e-3 at t = 4 and 1.4e-5 at t = 8.
    p_up, checks = read_pointer((0.6, 0.8), mass, 4096, 120.0, 0.002, 4000, 500)
    assert p_up == pytest.approx(0.36, abs=1e-15)
    gaps = checks["gap"]
    assert len(gaps) == 8  # t = 1, 2, ..., 8
    assert checks["density"].max() <= 1e-12
    assert checks["reading"].max() <= 1e-11
    assert checks["continuum"].max() <= 1e-5
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 1e-4


unit_interval = st.floats(-1.0, 1.0, allow_nan=False)


@settings(deadline=None, max_examples=12)
@given(st.tuples(*[unit_interval] * 4).filter(lambda c: np.linalg.norm(c) > 1e-3))
def test_pointer_reads_the_sigma_z_instrument_for_any_spinor(c):
    # For any spinor, on a coarser grid (1024 points over 100, dt = 0.0025):
    # the reading matches the closed form summed on the grid to rounding and
    # the continuum's below -dz/2 within 1e-4 (at most 4.5e-5 measured), and
    # its gap to the instrument's probability of up, |alpha|^2, is at most
    # the closed form's weight on the wrong side, which falls with t, from
    # 0.39-0.43 at t = 1 to about 5e-5 at t = 8.
    spinor = (complex(c[0], c[1]), complex(c[2], c[3]))
    p_up, checks = read_pointer(spinor, 1.0, 1024, 100.0, 0.0025, 3200, 400)
    alpha = abs(spinor[0]) ** 2 / (abs(spinor[0]) ** 2 + abs(spinor[1]) ** 2)
    assert p_up == pytest.approx(alpha, abs=1e-14)
    gaps, wrong = checks["gap"], checks["wrong_side"]
    assert len(gaps) == 8  # t = 1, 2, ..., 8
    assert checks["density"].max() <= 1e-12
    assert checks["reading"].max() <= 1e-11
    assert checks["continuum"].max() <= 1e-4
    assert np.all(gaps <= wrong + 1e-11), (gaps, wrong)
    assert np.all(np.diff(wrong) < 0) and wrong[0] > 0.3 and wrong[-1] < 1e-4, wrong


@settings(deadline=None, max_examples=15)
@given(
    b0=st.floats(0.1, 2.0),
    b1=st.floats(-1.0, 1.0),
    mass=st.floats(0.5, 4.0),
    center=st.floats(-4.0, 4.0),
    momentum=st.floats(-1.5, 1.5),
    dt_fraction=st.floats(0.25, 0.99),
)
def test_scenario_follows_the_linear_potential_closed_form(b0, b1, mass, center, momentum,
                                                           dt_fraction):
    # drawn fields, packet and dt run through the scenario preflight, dt up
    # to 0.99 of the largest it accepts; for t up to 1 each branch's <z> and
    # <p_z> follow Newton's law to rounding (at most 7.3e-14 over 150 seeded
    # draws, the extremes included), and the packet stays over 10 sigma_t
    # from the box edge (1024 points over 48)
    field = FieldModel(b0=b0, b1=b1, b2=0.0, mu=1.0)
    points, extent = 1024, 48.0
    ends = [grid_z(points, extent, i) for i in (0, points - 1)]
    dt = dt_fraction * MAX_STEP_ANGLE / (field.mu * max_field(field, ends))
    steps = round(1.0 / dt)
    packet = {"center": center, "momentum": momentum, "mass": mass}
    rows, _ = scenarios.simulate(sg_scenario(
        {"b0": b0, "b1": b1, "b2": 0.0, "mu": field.mu},
        {"points": points, "extent": extent, "sigma": 1.0, "spinor": [1.0, 1.0], **packet},
        dt, steps, max(1, steps // 8),
    ))
    assert rows[-1]["t"] == pytest.approx(steps * dt)
    assert_follows_newton(rows, field, packet)
