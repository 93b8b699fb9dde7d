"""Seeded inputs for the benchmark workloads.

The seed only draws values.  Sizes and work counts are fixed, so every seed
does the same work.  qmamp receives only the scenario files written from
these objects, never the seed.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass

# Factorizations of these orders are drawn per seed; the dense W/V sizes
# (|G|^2 x |G|^2) stay the same whichever factorization is drawn.
RELATION_ORDERS = (16, 18, 20, 24)
# Above these leg counts the cascade chain check grows past ~300 MB RSS.
SIGMA_Z_LEGS = 16
CLOCK_LEGS = 10
MAX_DT_MU_B = 0.1
CLEARANCE_SIGMAS = 6.0


@dataclass(frozen=True)
class Invocation:
    """One `qmamp <kind>` call: its scenario file is <name>.json."""

    name: str
    kind: str
    scenario: dict
    jobs: int = 1

    def argv(self, scenario_path, out_dir) -> list[str]:
        args = [self.kind, "--scenario", str(scenario_path), "--out", str(out_dir)]
        if self.kind == "sweep":
            args += ["--jobs", str(self.jobs)]
        return args

    def operations(self) -> int:
        """Result rows this invocation must produce."""
        s = self.scenario
        if self.kind == "relations":
            return len(s["groups"])
        if self.kind == "amplify":
            return len(s["n_values"]) * len(s["outcomes"])
        if self.kind == "sterngerlach":
            return 1
        return math.prod(len(ax["values"]) for ax in s["axes"])

    def predicted_calls(self) -> dict[str, int]:
        """Traced call counts that follow from the scenario alone."""
        s = self.scenario
        calls = {"hilbert.embed.calls": 0}
        if self.kind == "amplify":
            g = 2 if s["rep"] == "sigma_z" else 3
            calls["amplification.intertwiner_chain_check.calls"] = g * len(s["n_values"])
        elif self.kind == "sterngerlach":
            t = s["time"]
            calls["sterngerlach.evolve.calls"] = math.ceil(t["steps"] / t["record_every"])
        elif self.kind == "sweep":
            calls["sterngerlach.evolve.calls"] = self.operations()
        return calls


def factorizations(n: int, smallest: int = 2) -> list[list[int]]:
    """Nondecreasing lists of cyclic orders >= smallest whose product is n."""
    out = [[n]] if n >= smallest else []
    for f in range(smallest, math.isqrt(n) + 1):
        if n % f == 0:
            out += [[f] + rest for rest in factorizations(n // f, f)]
    return out


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _random_state(rng: random.Random, dim: int) -> list[list[float]]:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [_complex_pair(z / norm) for z in v]


def _random_hermitian(rng: random.Random, dim: int) -> list[list[list[float]]]:
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    return [
        [_complex_pair((a[i][j] + a[j][i].conjugate()) / 2) for j in range(dim)]
        for i in range(dim)
    ]


def _nonempty_subsets(n: int) -> list[list[int]]:
    return [list(c) for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]


def relations(rng: random.Random, orders=RELATION_ORDERS) -> list[Invocation]:
    groups = [rng.choice(factorizations(n)) for n in orders]
    scenario = {"version": 1, "kind": "relations", "groups": groups}
    return [Invocation("relations", "relations", scenario)]


def cascade(rng: random.Random, sigma_z_legs=SIGMA_Z_LEGS,
            clock_legs=CLOCK_LEGS) -> list[Invocation]:
    out = []
    for rep, dim, legs in (("sigma_z", 2, sigma_z_legs), ("z3_clock", 3, clock_legs)):
        scenario = {
            "version": 1,
            "kind": "amplify",
            "rep": rep,
            "state": _random_state(rng, dim),
            "observable": _random_hermitian(rng, dim),
            "outcomes": _nonempty_subsets(dim),
            "n_values": list(range(1, legs + 1)),
        }
        out.append(Invocation(f"amplify_{rep}", "amplify", scenario))
    return out


def algebra(rng: random.Random, orders=RELATION_ORDERS, sigma_z_legs=SIGMA_Z_LEGS,
            clock_legs=CLOCK_LEGS) -> list[Invocation]:
    """`relations` then `cascade` in one pass: every W/V and cascade layer, no solver."""
    return relations(rng, orders) + cascade(rng, sigma_z_legs, clock_legs)


def trajectory(rng: random.Random, points=4096, steps=3000) -> list[Invocation]:
    # Superposed spinor, so both branches carry weight and both kicks exist.
    theta = rng.uniform(0.25 * math.pi, 0.75 * math.pi)
    phase = rng.uniform(0, 2 * math.pi)
    down = math.sin(theta / 2) * complex(math.cos(phase), math.sin(phase))
    spinor = [math.cos(theta / 2), _complex_pair(down)]
    scenario = {
        "version": 1,
        "kind": "sterngerlach",
        "field": {"b0": 4.0, "b1": rng.uniform(0.1, 0.3), "b2": 0.0, "mu": 1.0},
        "grid": {"points": points, "extent": 80.0, "sigma": 1.0,
                 "center": rng.uniform(-3.0, 3.0), "spinor": spinor},
        "time": {"dt": 0.002, "steps": steps, "record_every": 1},
    }
    return [Invocation("sterngerlach", "sterngerlach", scenario)]


def sweep(rng: random.Random, points=1024, steps=1000, b2_values=6, b1_values=5,
          jobs=2) -> list[Invocation]:
    scenario = {
        "version": 1,
        "kind": "sweep",
        "base": {
            "field": {"b0": 4.0, "b1": 0.2, "b2": 0.0, "mu": 1.0, "region_extent": 2.5},
            "grid": {"points": points, "extent": 40.0, "sigma": 1.0,
                     "center": rng.uniform(-1.0, 1.0), "spinor": [1.0, 0.0]},
            "time": {"dt": 0.004, "steps": steps, "record_every": steps},
            "adiabaticity": {"v": 4.0, "z_scale": 1.0},
        },
        "axes": [
            {"path": "field.b2",
             "values": [0.0] + sorted(rng.uniform(0.02, 0.4) for _ in range(b2_values - 1))},
            {"path": "field.b1",
             "values": sorted(rng.uniform(0.1, 0.4) for _ in range(b1_values))},
        ],
    }
    return [Invocation("sweep", "sweep", scenario, jobs=max(1, min(jobs, os.cpu_count() or 1)))]


# BENCHMARK.json lists `algebra` and `sweep`, so that each of its runs can be long.
# On a shared 2-vCPU host the machine's speed drifts by 20-30% over minutes, and
# only long runs keep the medians of separate runs within the 25% bound.
# `trajectory` spread 20-40% between runs even so; it runs by hand only.
WORKLOADS = {"algebra": algebra, "relations": relations, "cascade": cascade,
             "trajectory": trajectory, "sweep": sweep}
# `--workload all` runs these; `algebra` repeats the first two.
SEPARATE = ("relations", "cascade", "trajectory", "sweep")


def make(workload: str, seed: int, **sizes) -> list[Invocation]:
    invocations = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), **sizes)
    for inv in invocations:
        validate(inv)
    return invocations


def _max_field(field: dict, b1: float, b2: float, half_extent: float) -> float:
    return max(
        math.hypot(b2 * z, field["b0"] + b1 * z) for z in (-half_extent, half_extent)
    )


def validate(inv: Invocation) -> None:
    """Reject a generated Stern-Gerlach input the solver would refuse or
    whose packet would reach the boundary guard."""
    if inv.kind == "sterngerlach":
        cases = [(inv.scenario, inv.scenario["field"]["b1"], inv.scenario["field"]["b2"])]
    elif inv.kind == "sweep":
        axes = {ax["path"]: ax["values"] for ax in inv.scenario["axes"]}
        base = inv.scenario["base"]
        cases = [(base, b1, b2) for b1 in axes["field.b1"] for b2 in axes["field.b2"]]
    else:
        return
    for s, b1, b2 in cases:
        t, g, f = s["time"], s["grid"], s["field"]
        if t["record_every"] < 1 or t["steps"] < 1:
            raise ValueError(f"{inv.name}: steps and record_every must be positive")
        half = g["extent"] / 2
        ratio = t["dt"] * f["mu"] * _max_field(f, b1, b2, half)
        if ratio > MAX_DT_MU_B:
            raise ValueError(f"{inv.name}: dt*mu*max|B| = {ratio:.3g} > {MAX_DT_MU_B}")
        duration = t["dt"] * t["steps"]
        drift = 0.5 * f["mu"] * abs(b1) * duration**2
        spread = g["sigma"] * math.hypot(1.0, duration / (2 * g["sigma"] ** 2))
        reach = abs(g["center"]) + drift + CLEARANCE_SIGMAS * spread
        if reach > half:
            raise ValueError(f"{inv.name}: packet reaches z = {reach:.3g} of {half:.3g}")
