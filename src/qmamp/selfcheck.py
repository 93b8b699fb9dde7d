"""Built-in acceptance checks, runnable as `qmamp selftest` or via pytest.

Each criterion returns a pass/fail result with the worst residual observed
and is bounded by a wall-clock limit.  Randomized checks draw from a fixed
seed so reruns are reproducible.  The Stern-Gerlach criteria (8-10) are
scenario objects run through `scenarios.simulate` and `scenarios.sweep`, the
reader, preflight and runner of the CLI; criteria 1 and 2 read the rows of
`scenarios.relations`, and criterion 5 those of `scenarios.measure` and
`scenarios.amplify`, for every nonempty outcome of each preset at every N.
Criteria 4 and 7 read the coupled picture through
`amplification.amplified_instrument` at N = 1.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import amplification as amp
from . import groups, ktops, measurement, scenarios
from .measurement import clock_rep

SEED = 20240817

ACCEPTANCE_GROUPS = ([2], [3], [4], [2, 2], [6])


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    limit: float

    @property
    def ok(self) -> bool:
        return self.passed and self.elapsed < self.limit

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] criterion {self.number:2d} ({self.name}): {self.detail}"
            f" [{self.elapsed:.2f}s / limit {self.limit:.0f}s]"
        )


def _random_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@functools.cache
def _acceptance_relations() -> list[dict]:
    """The `scenarios.relations` rows of ACCEPTANCE_GROUPS, which criteria 1
    and 2 read: each group's W and V are built once for both."""
    scenario = {"version": 1, "kind": "relations", "groups": list(ACCEPTANCE_GROUPS)}
    return scenarios.relations(scenario)


def criterion_1_kt_relations() -> tuple[bool, str]:
    columns = ("pentagonal_w", "pentagonal_v", "intertwining_w", "intertwining_v")
    worst = max(row[c] for row in _acceptance_relations() for c in columns)
    return worst <= 1e-12, f"max pentagonal/intertwining residual {worst:.2e} (tol 1e-12)"


def criterion_2_fourier_conjugation() -> tuple[bool, str]:
    worst = max(row["fourier_conjugation"] for row in _acceptance_relations())
    return worst <= 1e-10, f"max conjugation residual {worst:.2e} (tol 1e-10)"


def _correlation_residual(rep, xi) -> float:
    """|couple - dense UtildeV (xi x |trivial>)|: `couple` reads the closed form
    sum_chi E(chi) xi x |chi> off the label columns of UtildeV."""
    coupled = measurement.couple(rep, xi)
    joint = np.kron(xi, np.eye(rep.group.size)[rep.group.trivial_character.index])
    dense = (ktops.build_UtildeV(rep) @ joint).reshape(coupled.shape)
    return float(np.linalg.norm(coupled - dense))


def criterion_3_perfect_correlation() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for rep in (clock_rep(2), clock_rep(3)):
        for _ in range(100):
            xi = _random_state(rng, rep.system_dim)
            worst = max(worst, _correlation_residual(rep, xi))
    return worst <= 1e-12, f"max coupling residual {worst:.2e} over 200 states (tol 1e-12)"


def criterion_4_instrument_equality() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    reps = (clock_rep(2), clock_rep(3))
    for i in range(100):
        rep = reps[i % 2]
        chars = rep.group.characters()
        xi = _random_state(rng, rep.system_dim)
        b = _random_hermitian(rng, rep.system_dim)
        mask = rng.integers(0, 2, size=len(chars)).astype(bool)
        delta = measurement.outcome([c for c, m in zip(chars, mask) if m])
        projective = measurement.instrument(rep, delta, xi, b)
        # the coupled picture: B x 1_Delta on the N = 1 cascade output, `couple`'s
        output = amp.cascade_apply(amp.CascadeConfig(rep, 1), xi)
        coupled = amp.amplified_instrument(output, delta, b)
        worst = max(
            worst,
            abs(coupled.probability - projective.probability),
            abs(coupled.conditional_expectation - projective.conditional_expectation),
        )
    return worst <= 1e-12, f"max coupled-vs-projective residual {worst:.2e} (tol 1e-12)"


def criterion_5_amplification() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for rep, dim, n_max in (("sigma_z", 2, 6), ("z3_clock", 3, 3)):  # dim = |G| for both
        xi, b = _random_state(rng, dim), _random_hermitian(rng, dim)
        scenario = {  # `measure` reads the same object and ignores n_values
            "version": 1, "kind": "amplify", "rep": rep, "n_values": list(range(1, n_max + 1)),
            "state": np.stack([xi.real, xi.imag], -1).tolist(),  # [re, im] pairs
            "observable": np.stack([b.real, b.imag], -1).tolist(),
            "outcomes": [[j for j in range(dim) if m >> j & 1] for m in range(1, 2**dim)],
        }
        rows = scenarios.amplify(scenario)
        for single in scenarios.measure(scenario):
            ps = [r["probability"] for r in rows if r["outcome"] == single["outcome"]]
            worst = max(worst, max(ps) - min(ps), *(abs(p - single["probability"]) for p in ps))
        worst = max(worst, *(r["equality_residual"] for r in rows))
    return worst <= 1e-12, f"max N-dependence/equality residual {worst:.2e} (tol 1e-12)"


def criterion_6_intertwiner_chain() -> tuple[bool, str]:
    worst = 0.0
    for g in groups.canonical_groups(8):
        for n in range(1, 5):  # N outer: the characters share one copy chain
            for gamma in g.characters():
                worst = max(worst, amp.intertwiner_chain_check(gamma, n))
    return worst <= 1e-12, f"max chain residual {worst:.2e}, |G|<=8, N<=4 (tol 1e-12)"


def criterion_7_measurement_properties() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED + 3)
    reps = (clock_rep(2), clock_rep(3), clock_rep(4))
    violations = 0
    cases = 0
    for i in range(200):
        rep = reps[i % len(reps)]
        chars = rep.group.characters()
        eye = np.eye(rep.system_dim)
        xi = _random_state(rng, rep.system_dim)

        # additivity over a random disjoint split
        mask = rng.integers(0, 2, size=len(chars)).astype(bool)
        d1 = measurement.outcome([c for c, m in zip(chars, mask) if m])
        d2 = measurement.outcome([c for c, m in zip(chars, mask) if not m])
        both = measurement.outcome(chars)
        p1, p2, pb = (measurement.instrument(rep, d, xi, eye).probability for d in (d1, d2, both))
        cases += 1
        violations += abs(p1 + p2 - pb) > 1e-12

        # normalization
        cases += 1
        violations += abs(pb - 1.0) > 1e-12

        # positivity on a random PSD observable
        a = rng.standard_normal((rep.system_dim, rep.system_dim)) + 1j * rng.standard_normal(
            (rep.system_dim, rep.system_dim)
        )
        psd = a.conj().T @ a
        res = measurement.instrument(rep, d1, xi, psd)
        cases += 1
        violations += res.conditional_expectation.real < -1e-12

        # repeatability of a singleton outcome: its post state
        # eta = E(gamma) xi / sqrt(p) gives gamma again with probability 1
        gamma = chars[int(rng.integers(len(chars)))]
        single = measurement.outcome([gamma])
        res = measurement.instrument(rep, single, xi, eye)
        cases += 1
        if res.probability:
            eta = rep.projections[gamma] @ xi / np.sqrt(res.probability)
            p_again = np.linalg.norm(rep.projections[gamma] @ eta) ** 2
            violations += abs(p_again - 1.0) > 1e-12

        # perfect correlation in the coupled state: P(system chi1, probe chi2)
        # is E(chi1) read off the N = 1 cascade output at the outcome {chi2}
        output = amp.cascade_apply(amp.CascadeConfig(rep, 1), xi)
        chi1, chi2 = chars[int(rng.integers(len(chars)))], chars[int(rng.integers(len(chars)))]
        joint = amp.amplified_instrument(output, measurement.outcome([chi2]), rep.projections[chi1])
        expected = 0.0
        if chi1 == chi2:
            expected = measurement.instrument(rep, measurement.outcome([chi1]), xi, eye).probability
        cases += 1
        violations += abs(joint.conditional_expectation - expected) > 1e-12
    return violations == 0, f"{violations} violations in {cases} random property cases"


def criterion_8_kick() -> tuple[bool, str]:
    # a superposed spin split by the longitudinal gradient b1
    field = {"b0": 1.0, "b1": 0.5, "mu": 1.0}
    rows, summary = scenarios.simulate({
        "version": 1, "kind": "sterngerlach", "field": field,
        "grid": {"points": 2048, "extent": 40.0, "spinor": [1.0, 1.0]},
        "time": {"dt": 0.005, "steps": 200, "record_every": 10},
    })
    kick_up, kick_down = summary["kick_up"], summary["kick_down"]
    mu_b1 = field["mu"] * field["b1"]
    expected = mu_b1 * summary["duration"]

    ok = (
        abs(abs(kick_up) - expected) <= 0.02 * expected
        and abs(abs(kick_down) - expected) <= 0.02 * expected
        and kick_up * kick_down < 0
    )
    # Ehrenfest: fitted d<p_z>/dt per branch vs -/+ mu * b1
    times = [r["t"] for r in rows]
    rate_up = np.polyfit(times, [r["pz_up"] for r in rows], 1)[0]
    rate_down = np.polyfit(times, [r["pz_down"] for r in rows], 1)[0]
    ok = ok and abs(rate_up + mu_b1) <= 0.01 * mu_b1
    ok = ok and abs(rate_down - mu_b1) <= 0.01 * mu_b1
    return ok, (
        f"kicks ({kick_up:+.4f}, {kick_down:+.4f}) vs ±{expected}; "
        f"rates ({rate_up:+.4f}, {rate_down:+.4f})"
    )


def load_adiabaticity_reference() -> dict:
    """The stored `qmamp sweep` scenario over field.b2 ("scenario") and the
    columns of its rows at the time step "converged_dt"."""
    with resources.files("qmamp").joinpath("data/adiabaticity_reference.json").open() as fh:
        return json.load(fh)


def at_time_step(scenario: dict, dt: float) -> dict:
    """A sweep scenario run with time step dt over the same duration."""
    time = scenario["base"]["time"]
    steps = round(time["steps"] * time["dt"] / dt)
    return {**scenario, "base": {**scenario["base"], "time": {"dt": dt, "steps": steps}}}


def criterion_9_adiabaticity() -> tuple[bool, str]:
    ref = load_adiabaticity_reference()
    rows = scenarios.sweep(ref["scenario"])
    flips = [r["flip_probability"] for r in rows]

    # closed-form substitution: U_fi = v z_scale b2 / (mu b0^2 region_extent),
    # which is b2 / 10 at the reference's v = 4, b0 = 4 and region_extent = 2.5
    for r in rows:
        if abs(r["u_fi"] - r["field.b2"] / 10) > 1e-15:
            return False, f"U_fi formula gave {r['u_fi']}, expected {r['field.b2'] / 10}"

    ok = flips[0] <= 1e-14
    ok = ok and all(b >= a - 1e-12 for a, b in zip(flips, flips[1:]))
    for r in rows:
        if r["u_fi"] <= 0.01:
            ok = ok and r["flip_probability"] <= 1e-2
    for p, p_ref in zip(flips, ref["converged_flips"]):
        ok = ok and abs(p - p_ref) <= max(2e-4, 0.05 * p_ref)
    return ok, (
        f"flips {['%.2e' % p for p in flips]} vs converged reference"
        f" (monotone, <=1e-2 in the U_fi<=0.01 regime)"
    )


def _spin_up_run(field: dict, grid: dict, dt: float, steps: int, record_every: int) -> dict:
    """Summary of a sterngerlach scenario starting spin up."""
    return scenarios.simulate({
        "version": 1, "kind": "sterngerlach", "field": field, "grid": grid,
        "time": {"dt": dt, "steps": steps, "record_every": record_every},
    })[1]


def criterion_10_solver_hygiene() -> tuple[bool, str]:
    steps = 10_000
    drift = abs(_spin_up_run(
        {"b0": 1.0, "b1": 0.05}, {"points": 1024, "extent": 60.0, "sigma": 2.0},
        dt=1e-3, steps=steps, record_every=1000,
    )["norm"] - 1.0)
    if drift > 1e-8:
        return False, f"norm drift {drift:.2e} > 1e-8 over {steps} steps"

    def flip_at(n_steps: int) -> float:
        return _spin_up_run(
            {"b0": 2.0, "b1": 0.3, "b2": 0.4}, {"points": 1024, "extent": 30.0},
            dt=1.0 / n_steps, steps=n_steps, record_every=n_steps,
        )["flip_probability"]

    ref = flip_at(2048)
    err1 = abs(flip_at(128) - ref)
    err2 = abs(flip_at(256) - ref)
    factor = err1 / err2 if err2 > 0 else float("inf")
    ok = 3.5 <= factor <= 4.5
    return ok, f"norm drift {drift:.2e}; dt-halving error factor {factor:.2f} (want 3.5-4.5)"


CRITERIA = [
    (1, "kt-relations", criterion_1_kt_relations, 5.0),
    (2, "fourier-conjugation", criterion_2_fourier_conjugation, 5.0),
    (3, "perfect-correlation", criterion_3_perfect_correlation, 10.0),
    (4, "instrument-equality", criterion_4_instrument_equality, 10.0),
    (5, "amplification-theorem", criterion_5_amplification, 30.0),
    (6, "intertwiner-chain", criterion_6_intertwiner_chain, 30.0),
    (7, "measurement-properties", criterion_7_measurement_properties, 30.0),
    (8, "stern-gerlach-kick", criterion_8_kick, 60.0),
    (9, "adiabaticity", criterion_9_adiabaticity, 300.0),
    (10, "solver-hygiene", criterion_10_solver_hygiene, 120.0),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn, limit in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = fn()
            elapsed = time.perf_counter() - start
            return CriterionResult(num, name, passed, detail, elapsed, limit)
    raise ValueError(f"no criterion {number}")


def run_all(report=print) -> bool:
    all_ok = True
    for num, _, _, _ in CRITERIA:
        result = run_criterion(num)
        report(result.line())
        all_ok = all_ok and result.ok
    return all_ok
