"""Scenario files: a versioned JSON schema driving the command-line runs.

Every scenario carries `version` (currently 1) and `kind` (relations, measure,
amplify, sterngerlach, sweep); other top-level keys, such as a `seed` kept for
the record, are ignored unless the kind reads them.
Numbers may be given as plain reals or as [re, im] pairs wherever amplitudes
or matrix entries appear.  Spectral representations accept the presets
"sigma_z" and "z3_clock" or an explicit projection list.

Outputs are CSV (floats printed with 12 significant digits) plus a summary
JSON for the wavepacket runs; reruns with the same scenario are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import amplification as amp
from . import groups, ktops, measurement, sterngerlach

SCHEMA_VERSION = 1

KINDS = ("relations", "measure", "amplify", "sterngerlach", "sweep")

# Bytes the Fourier conjugation check of a relations group may allocate: it
# holds three complex |G|^2 x |G|^2 arrays, 48 |G|^4 bytes, so |G| <= 68.
FOURIER_CHECK_BYTES = 1 << 30


class ScenarioError(ValueError):
    pass


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _as_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2:
        return complex(entry[0], entry[1])
    raise ScenarioError(f"field '{where}': expected number or [re, im], got {entry!r}")


def _as_vector(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"field '{where}': expected a non-empty list")
    return np.array([_as_complex(e, where) for e in obj])


def _as_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"field '{where}': expected a non-empty matrix")
    return np.array([[_as_complex(e, where) for e in row] for row in obj])


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("field 'root': scenario must be a JSON object")
    if data.get("version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"field 'version': expected {SCHEMA_VERSION}, got {data.get('version')!r}"
        )
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"field 'kind': expected one of {KINDS}, got {kind!r}")
    return data


def build_rep(spec, where: str = "rep") -> measurement.SpectralRepresentation:
    if spec == "sigma_z":
        return measurement.sigma_z_rep()
    if spec == "z3_clock":
        return measurement.clock_rep(3)
    if not isinstance(spec, dict):
        raise ScenarioError(f"field '{where}': expected preset name or object")
    try:
        group = groups.make_group(spec["group"])
        system_dim = int(spec["system_dim"])
        assignments = []
        for item in spec["projections"]:
            chi = group.character(item["character"])
            mat = _as_matrix(item["matrix"], f"{where}.projections.matrix")
            assignments.append((chi, mat))
        return measurement.make_spectral_rep(group, system_dim, assignments)
    except KeyError as exc:
        raise ScenarioError(f"field '{where}.{exc.args[0]}': missing") from exc
    except (groups.GroupError, measurement.MeasurementError) as exc:
        raise ScenarioError(f"field '{where}': {exc}") from exc


def build_state(obj, rep, where: str = "state") -> np.ndarray:
    xi = _as_vector(obj, where)
    if xi.shape != (rep.system_dim,):
        raise ScenarioError(
            f"field '{where}': length {len(xi)} does not match system dim {rep.system_dim}"
        )
    if abs(np.linalg.norm(xi) - 1.0) > 1e-9:
        raise ScenarioError(f"field '{where}': coefficients are not normalized")
    return xi


def build_outcomes(obj, rep, where: str = "outcomes"):
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"field '{where}': expected a non-empty list of index lists")
    chars = rep.group.characters()
    outcomes = []
    for i, idx_list in enumerate(obj):
        if not isinstance(idx_list, list):
            raise ScenarioError(f"field '{where}[{i}]': expected a list of character indices")
        chosen = []
        for j in idx_list:
            if not isinstance(j, int) or not 0 <= j < len(chars):
                raise ScenarioError(f"field '{where}[{i}]': index {j!r} out of range")
            chosen.append(chars[j])
        outcomes.append((idx_list, measurement.outcome(chosen)))
    return outcomes


def build_observable(obj, rep, where: str = "observable") -> np.ndarray:
    if obj in (None, "identity"):
        return np.eye(rep.system_dim, dtype=complex)
    return _as_matrix(obj, where)


# ---------------------------------------------------------------------------
# runners


def build_relation_groups(obj, where: str = "groups") -> list[groups.FiniteAbelianGroup]:
    """Groups of a relations scenario, each refused before anything is allocated
    if its Fourier check would exceed FOURIER_CHECK_BYTES."""
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"field '{where}': expected a non-empty list of order lists")
    out = []
    for i, orders in enumerate(obj):
        if not (
            isinstance(orders, list)
            and orders
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in orders)
        ):
            raise ScenarioError(
                f"field '{where}[{i}]': expected a non-empty list of integers >= 1, got {orders!r}"
            )
        size = math.prod(orders)
        need = 48 * size**4
        if need > FOURIER_CHECK_BYTES:
            raise ScenarioError(
                f"field '{where}[{i}]': group of order {size} needs {need} bytes"
                f" for the Fourier check, over the limit of {FOURIER_CHECK_BYTES}"
            )
        out.append(groups.make_group(orders))
    return out


def run_relations(scenario: dict, out_dir: Path) -> list[Path]:
    rows = []
    for g in build_relation_groups(scenario.get("groups")):
        pair = ktops.kt_pair(g)
        rows.append(
            {
                "group": "x".join(str(n) for n in g.orders),
                "pentagonal_w": ktops.verify_pentagonal(pair.W, "w"),
                "pentagonal_v": ktops.verify_pentagonal(pair.V, "v"),
                "intertwining_w": ktops.verify_intertwining(pair.W, g, "w"),
                "intertwining_v": ktops.verify_intertwining(pair.V, g, "v"),
                "fourier_conjugation": pair.fourier_conjugation_residual(),
            }
        )
    path = out_dir / "relations.csv"
    _write_csv(path, rows)
    return [path]


def run_measure(scenario: dict, out_dir: Path) -> list[Path]:
    rep = build_rep(scenario.get("rep"))
    xi = build_state(scenario.get("state"), rep)
    outcomes = build_outcomes(scenario.get("outcomes"), rep)
    b = build_observable(scenario.get("observable"), rep)
    rows = []
    for idx_list, delta in outcomes:
        res = measurement.instrument(rep, delta, xi, b)
        rows.append(
            {
                "outcome": "+".join(str(j) for j in idx_list),
                "probability": res.probability,
                "expectation_real": res.conditional_expectation.real,
                "expectation_imag": res.conditional_expectation.imag,
            }
        )
    path = out_dir / "measure.csv"
    _write_csv(path, rows)
    return [path]


def run_amplify(scenario: dict, out_dir: Path) -> list[Path]:
    rep = build_rep(scenario.get("rep"))
    xi = build_state(scenario.get("state"), rep)
    outcomes = build_outcomes(scenario.get("outcomes"), rep)
    b = build_observable(scenario.get("observable"), rep)
    n_values = scenario.get("n_values", [1, 2, 3])
    if not isinstance(n_values, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_values
    ):
        raise ScenarioError("field 'n_values': expected a list of positive integers")
    try:
        cfgs = [amp.CascadeConfig(rep=rep, n_copies=n) for n in n_values]
    except amp.CascadeError as exc:
        raise ScenarioError(f"field 'n_values': {exc}") from exc
    rows = []
    for n, cfg in zip(n_values, cfgs):
        chain = max(
            amp.intertwiner_chain_check(rep.group, chi, n) for chi in rep.group.characters()
        )
        for idx_list, delta in outcomes:
            res = amp.amplified_instrument(cfg, delta, xi, b)
            rows.append(
                {
                    "n": n,
                    "outcome": "+".join(str(j) for j in idx_list),
                    "probability": res.probability,
                    "equality_residual": amp.check_instrument_equality(cfg, delta, xi, b),
                    "chain_residual": chain,
                }
            )
    path = out_dir / "amplify.csv"
    _write_csv(path, rows)
    return [path]


def _build_sg(scenario: dict):
    fs = scenario.get("field")
    if not isinstance(fs, dict):
        raise ScenarioError("field 'field': expected an object")
    try:
        field = sterngerlach.FieldModel(
            b0=float(fs["b0"]),
            b1=float(fs.get("b1", 0.0)),
            b2=float(fs.get("b2", 0.0)),
            mu=float(fs.get("mu", 1.0)),
            region_extent=float(fs.get("region_extent", 10.0)),
        )
    except KeyError as exc:
        raise ScenarioError(f"field 'field.{exc.args[0]}': missing") from exc
    except sterngerlach.FieldError as exc:
        raise ScenarioError(f"field 'field': {exc}") from exc

    gs = scenario.get("grid", {})
    spinor = [_as_complex(e, "grid.spinor") for e in gs.get("spinor", [1.0, 0.0])]
    try:
        grid = sterngerlach.gaussian_packet(
            n_points=int(gs.get("points", 2048)),
            extent=float(gs.get("extent", 40.0)),
            sigma=float(gs.get("sigma", 1.0)),
            center=float(gs.get("center", 0.0)),
            momentum=float(gs.get("momentum", 0.0)),
            spinor=spinor,
            mass=float(gs.get("mass", 1.0)),
        )
    except sterngerlach.SolverError as exc:
        raise ScenarioError(f"field 'grid': {exc}") from exc

    ts = scenario.get("time", {})
    dt = float(ts.get("dt", 0.005))
    steps = int(ts.get("steps", 200))
    record_every = int(ts.get("record_every", 10))
    if dt <= 0 or steps < 1:
        raise ScenarioError("field 'time': dt must be > 0 and steps >= 1")
    if record_every < 1:
        raise ScenarioError(f"field 'time.record_every': must be >= 1, got {record_every}")
    return field, grid, dt, steps, record_every


def _sg_summary(scenario: dict, field, result) -> dict:
    dt = float(scenario.get("time", {}).get("dt", 0.005))
    steps = int(scenario.get("time", {}).get("steps", 200))
    summary = {
        "kick_up": _try_kick(result, "up"),
        "kick_down": _try_kick(result, "down"),
        "flip_probability": float(result.series.flip_prob[-1]),
        "norm": float(result.series.norm[-1]),
        "duration": dt * steps,
    }
    ad = scenario.get("adiabaticity")
    if isinstance(ad, dict):
        report = sterngerlach.adiabaticity_parameter(
            field, v=float(ad.get("v", 1.0)), z_scale=float(ad.get("z_scale", 1.0))
        )
        summary.update(
            u_fi=report.u_fi,
            larmor_omega=report.larmor_omega,
            inequality_margin=report.inequality_margin,
        )
    return summary


def _try_kick(result, branch):
    try:
        return sterngerlach.momentum_kick(result.final, result.initial, branch)
    except sterngerlach.SolverError:
        return None


def run_sterngerlach(scenario: dict, out_dir: Path) -> list[Path]:
    field, grid, dt, steps, record_every = _build_sg(scenario)
    result = sterngerlach.run_simulation(grid, field, dt, steps, record_every=record_every)
    s = result.series
    rows = [
        {
            "t": s.times[i],
            "z_up": s.z_up[i],
            "z_down": s.z_down[i],
            "pz_up": s.pz_up[i],
            "pz_down": s.pz_down[i],
            "flip_prob": s.flip_prob[i],
            "norm": s.norm[i],
        }
        for i in range(len(s.times))
    ]
    csv_path = out_dir / "sterngerlach.csv"
    _write_csv(csv_path, rows)
    summary = _sg_summary(scenario, field, result)
    json_path = out_dir / "sterngerlach_summary.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


def _set_path(obj: dict, dotted: str, value) -> dict:
    out = json.loads(json.dumps(obj))
    parts = dotted.split(".")
    cur = out
    for p in parts[:-1]:
        cur = cur.setdefault(p, {})
    cur[parts[-1]] = value
    return out


def _sweep_point(args):
    base, axis_values = args
    scenario = base
    for path, value in axis_values:
        scenario = _set_path(scenario, path, value)
    field, grid, dt, steps, _ = _build_sg(scenario)
    result = sterngerlach.run_simulation(grid, field, dt, steps, record_every=steps)
    summary = _sg_summary(scenario, field, result)
    expected = field.mu * field.b1 * dt * steps
    row = {path: value for path, value in axis_values}
    row.update(
        u_fi=summary.get("u_fi", float("nan")),
        flip_probability=summary["flip_probability"],
        kick_up=summary["kick_up"],
        kick_down=summary["kick_down"],
        kick_up_error=(summary["kick_up"] + expected) if summary["kick_up"] is not None else None,
        kick_down_error=(summary["kick_down"] - expected)
        if summary["kick_down"] is not None
        else None,
    )
    return row


def run_sweep(scenario: dict, out_dir: Path, jobs: int = 1) -> list[Path]:
    """Run every sweep point; `jobs` > 1 runs them in a process pool of at most
    min(jobs, points, cpu count) workers."""
    if jobs < 1:
        raise ScenarioError(f"option '--jobs': must be >= 1, got {jobs}")
    base = scenario.get("base")
    if not isinstance(base, dict):
        raise ScenarioError("field 'base': expected a sterngerlach parameter object")
    base = dict(base)
    if "adiabaticity" in scenario and "adiabaticity" not in base:
        base["adiabaticity"] = scenario["adiabaticity"]
    axes = scenario.get("axes")
    if not isinstance(axes, list) or not 1 <= len(axes) <= 2:
        raise ScenarioError("field 'axes': expected one or two sweep axes")
    grids = []
    for i, ax in enumerate(axes):
        if not isinstance(ax, dict) or "path" not in ax:
            raise ScenarioError(f"field 'axes[{i}]': expected object with 'path' and 'values'")
        values = ax.get("values")
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"field 'axes[{i}].values': expected a non-empty list")
        if not all(isinstance(v, (int, float)) for v in values):
            raise ScenarioError(f"field 'axes[{i}].values': axis over non-numeric field")
        grids.append([(ax["path"], float(v)) for v in values])

    points = []
    if len(grids) == 1:
        points = [[p] for p in grids[0]]
    else:
        points = [[p, q] for p in grids[0] for q in grids[1]]
    tasks = [(base, pt) for pt in points]
    # the pool starts all its workers on the first submit
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    path = out_dir / "sweep.csv"
    _write_csv(path, rows)
    return [path]


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        raise ScenarioError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            out = []
            for key in header:
                v = row[key]
                if v is None:
                    out.append("")
                elif isinstance(v, str):
                    out.append(v)
                elif isinstance(v, int):
                    out.append(str(v))
                else:
                    out.append(fmt(v))
            writer.writerow(out)
