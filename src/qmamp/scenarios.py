"""Scenario files: a versioned JSON schema driving the command-line runs.

Every scenario carries `version` (currently 1) and `kind` (relations, measure,
amplify, sterngerlach, sweep); other top-level keys, such as a `seed` kept for
the record, are ignored unless the kind reads them.
Numbers may be given as plain reals or as [re, im] pairs wherever amplitudes
or matrix entries appear.  Spectral representations accept the presets
"sigma_z" and "z3_clock" or an explicit projection list.

Every field is read through `read`, which checks its type and bound and names
its dotted path in the error; the Stern-Gerlach fields, their defaults and
bounds are the table SG_FIELDS.  A Stern-Gerlach run whose grid or step count
exceeds SG_SOLVER_BYTES or SG_POINT_STEPS, whose step the solver would
refuse, or whose packet the grid cannot hold is refused before it starts, as
is a sweep whose points together exceed SWEEP_WORK point-steps; a
run whose packet reaches the box edge is refused naming its grid.extent.  An
amplify N whose label arrays exceed AMPLIFY_BYTES is refused as soon as the
rep's group and projection count are known, before any matrix is read, as
is a run whose N and outcomes together would scan more than AMPLIFY_WORK
labels, and a measure or amplify run whose instruments and projection
checks together exceed MEASURE_WORK.  Every size bound refuses through
`_within`, the one place that compares an estimate with its bound, in one
message shape: "field '<where>': expected at most <bound> <unit>; <subject>
needs about <estimate>".

Each kind has one compute function that reads, checks and computes a
scenario object and returns its rows: `relations`, `measure`, `amplify`,
`sweep`, and `simulate`, which returns a sterngerlach run and its summary.
`run_scenario`, which the CLI calls, computes a scenario of any kind and
writes what its compute function returns.  A run's summary comes from its
recorded time series alone: a branch's kick is the change of its recorded
<p_z> between the first and the last record, and a branch holding under
1e-6 of the probability at the start or the end has no kick (None).

Outputs are CSV (floats printed with 12 significant digits) plus a summary
JSON for the wavepacket runs; reruns with the same scenario are byte-identical.
A value that is undefined (NaN) or infinite is written as an empty CSV cell
and as null in JSON.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import re
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import amplification as amp
from . import groups, ktops, measurement, sterngerlach

SCHEMA_VERSION = 1

KINDS = ("relations", "measure", "amplify", "sterngerlach", "sweep")

# Size limits of a relations run, checked before any W or V is built: the
# bytes that checking one group holds (`ktops.relation_bytes`), and the
# passes over array entries that checking one group, and all the run's
# groups together, make (`ktops.relation_work`, 20-45 ns each here, so
# RELATIONS_WORK is 10-25 s on one core).  The Fourier check's probes hold
# most of a large group's bytes, 80 per entry of |G|^2, so the byte bound
# admits every order up to 2590; the work bound counts the nontrivial
# factors, whose DFT passes set the time: Z_2^10 takes about 7 s where
# Z_1024 takes about 1 s, and Z_2^11 is refused where Z_2048 runs.  Every
# group of order <= 107, the largest that the exact |G|^4 check admitted,
# is accepted.
RELATIONS_BYTES = 1 << 29
RELATIONS_WORK = 1 << 29

# Size limits of one amplify N, checked before any matrix is read: the
# label arrays it holds (`amp.label_bytes`; 400 MiB keeps every exhaustive
# chain check, which holds at most amp.CHAIN_BYTES = 192 MiB), and the labels
# its |G| sampled chain checks scan, at least |G| (N + 1).  Size limit of an
# amplify run, checked at the same time: the labels that its N together scan,
# each N's chain checks (|G|^(N+2) exhaustive, |G| samples (N + 1) sampled)
# plus m N support labels for its cascade and again for each outcome's
# instrument.  AMPLIFY_WORK admits every one-N, one-outcome run that the
# limits of one N admit, whose m N is at most AMPLIFY_BYTES / 32; sigma_z at
# N = 10^6 listed 26 times, just under it, takes 6.5 s on a 2-vCPU Xeon.
AMPLIFY_BYTES = 25 << 24
AMPLIFY_CHAIN_WORK = 1 << 27
AMPLIFY_WORK = AMPLIFY_CHAIN_WORK + AMPLIFY_BYTES // 16

# Size limit of a measure or amplify run, checked before any matrix is
# read, in multiply-adds of a dense product (0.1-0.3 ns each on one core
# here): with m projections on a system of dimension d, m d^3 for the
# projection checks and m (m - 1) / 2 d^3 for their pairwise products, and
# MEASURE_ENTRY_WORK per entry of the |Delta| d^2 that an instrument of
# outcome Delta passes over (0.5-0.9 ns each at d = 256 to 1024), once per
# outcome for measure and 1 + len(n_values) times for amplify.  A measure
# outcome adds a fixed MEASURE_OUTCOME_WORK (reading it, its instrument's
# calls and its row, 35-45 us); AMPLIFY_WORK counts an amplify outcome's
# labels.  A rep of 32 projections at d = 256 takes about half of
# MEASURE_WORK, and a rep alone is refused above it: one projection above
# d = 2580, two above 1789.  With two projections the largest runs admitted
# took 2.7 s (65,528 outcomes on a preset), 3.0 s (21,781 one-character
# outcomes at d = 256) and 6.7 s (1,613 at d = 1024, or 832 amplify outcomes
# at one N).
MEASURE_WORK = 1 << 34
MEASURE_OUTCOME_WORK = 1 << 18
MEASURE_ENTRY_WORK = 1 << 3

# Stern-Gerlach fields, "section.field" -> default.  The default's type is the
# field's type (a list is a spinor of amplitudes); a required field's default
# only gives its type.  Numbers are > 0 unless signed.
SG_FIELDS = {
    "field.b0": 1.0, "field.b1": 0.0, "field.b2": 0.0, "field.mu": 1.0,
    "field.region_extent": 10.0,
    "grid.points": 2048, "grid.extent": 40.0, "grid.sigma": 1.0, "grid.center": 0.0,
    "grid.momentum": 0.0, "grid.spinor": [1.0, 0.0], "grid.mass": 1.0,
    "time.dt": 0.005, "time.steps": 200, "time.record_every": 10,
    "adiabaticity.v": 1.0, "adiabaticity.z_scale": 1.0,
}
SG_REQUIRED = frozenset({"field.b0"})
SG_SIGNED = frozenset({"field.b1", "field.b2", "grid.center", "grid.momentum"})

# Size limits of one Stern-Gerlach run, checked before a packet is built.  A
# run (packet, solver and observables) holds about 240 bytes per grid point at
# its peak, and a step costs about 60 ns per point on one core at 4096 points,
# rising to about 300 ns at 2^20 points, so SG_POINT_STEPS is 10 to 50 minutes.
SG_SOLVER_BYTES = 1 << 30
SG_BYTES_PER_POINT = 256
SG_POINT_STEPS = 10**10
# Size limit of a sweep run, checked before any of its points is formed: the
# sum over its points of grid.points x time.steps plus SWEEP_POINT_WORK, the
# fixed cost of a point (packet, solver set-up and summary: about 0.4 ms here
# whatever the grid, at 40-55 ns per point-step).  SWEEP_WORK admits every
# one-point sweep that SG_POINT_STEPS admits.
SWEEP_POINT_WORK = 10**4
SWEEP_WORK = SG_POINT_STEPS + SWEEP_POINT_WORK


class ScenarioError(ValueError):
    pass


_REQUIRED = object()
# Values echoed in error messages are cut to 4 items per list or object, two
# levels deep and 30 characters per scalar: under 1 KB whatever the value.
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxlist, _REPR.maxdict = 2, 4, 4
_REPR.maxstring = _REPR.maxother = _REPR.maxlong = 30
_shown = _REPR.repr
_STEP = re.compile(r"\[(\d+)\]|([^.\[]+)")
_NOUNS = {
    int: "an integer",
    float: "a finite number",
    complex: "a finite number or [re, im] pair",
    str: "a string",
    dict: "a non-empty object",
}


def _describe(type, bound=None) -> str:
    if isinstance(type, list):
        text = f"a non-empty list, each item {_describe(type[0])}"
    else:
        text = _NOUNS[type]
    return text if bound is None else f"{text} > {bound}"


def _scalar(value, type, bound):
    """`value` as a `type` greater than `bound`, or None if it is not one."""
    if type is complex:
        pair = isinstance(value, list) and len(value) == 2
        parts = [_scalar(v, float, None) for v in (value if pair else [value])]
        return None if None in parts else complex(*parts)
    ok = isinstance(value, (int, float) if type is float else type) and not isinstance(value, bool)
    if type is float:  # finite: this also refuses NaN and ints beyond the float range
        ok = ok and abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    ok = ok and (type is not dict or bool(value)) and (bound is None or value > bound)
    return value if ok else None


def _check(value, where: str, type, bound):
    if isinstance(type, list) and isinstance(value, list) and value:
        if isinstance(type[0], list):
            return [_check(v, f"{where}[{i}]", type[0], bound) for i, v in enumerate(value)]
        items = [_scalar(v, type[0], bound) for v in value]
        if None not in items:
            return items
    elif not isinstance(type, list):
        out = _scalar(value, type, bound)
        if out is not None:
            return out
    raise ScenarioError(f"field '{where}': expected {_describe(type, bound)}, got {_shown(value)}")


def read(obj: dict, path: str, type, default=_REQUIRED, bound=None):
    """The field at `path` ("a.b[0].c") of a scenario object, checked.

    `type` is int (a JSON integer, never a bool), float (finite; ints
    accepted), complex (a number or [re, im] pair), str, dict (non-empty), or
    a one-item list such as [int] for a non-empty list of them.  Numbers must
    be > `bound` unless it is None.  `default` is returned when a key on the
    way is absent; without one the field is required.  Errors name the path.
    """
    where = ""
    for index, key in _STEP.findall(path):
        if index:
            obj, where = obj[int(index)], f"{where}[{index}]"
            continue
        if not (isinstance(obj, dict) and obj):
            raise ScenarioError(f"field '{where}': expected {_describe(dict)}, got {_shown(obj)}")
        where = f"{where}.{key}" if where else key
        if key not in obj:
            if default is _REQUIRED:
                raise ScenarioError(f"field '{path}': expected {_describe(type, bound)}, missing")
            return default
        obj = obj[key]
    return _check(obj, where, type, bound)


def _matrix(scenario: dict, path: str, dim: int) -> np.ndarray:
    rows = read(scenario, path, [[complex]])
    widths = sorted({len(row) for row in rows})
    if len(rows) != dim or widths != [dim]:
        shape = (f"{len(rows)}x{widths[0]}" if len(widths) == 1
                 else f"{len(rows)} rows of {widths[0]} to {widths[-1]} entries")
        raise ScenarioError(f"field '{path}': expected a {dim}x{dim} matrix, got {shape}")
    return np.array(rows)


def load_scenario(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals past Python's digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("field 'root': scenario must be a JSON object")
    if _scalar(data.get("version"), int, None) != SCHEMA_VERSION:  # not true or 1.0
        raise ScenarioError(
            f"field 'version': expected {SCHEMA_VERSION}, got {_shown(data.get('version'))}"
        )
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"field 'kind': expected one of {KINDS}, got {_shown(kind)}")
    return data


@contextlib.contextmanager
def _names(where: str):
    """Re-raise a qmamp input error of the block as a ScenarioError naming the
    field at `where`."""
    try:
        yield
    except (groups.GroupError, measurement.MeasurementError) as exc:
        raise ScenarioError(f"field '{where}': {exc}") from exc


def build_rep(scenario: dict, check) -> measurement.SpectralRepresentation:
    """The scenario's spectral representation.  `check(group, system_dim, m)`,
    m the projection count, refuses a run that its kind's bounds exclude as
    soon as those are known, before any matrix of an explicit rep is read."""
    spec = scenario.get("rep")
    if spec in ("sigma_z", "z3_clock"):
        rep = measurement.sigma_z_rep() if spec == "sigma_z" else measurement.clock_rep(3)
        check(rep.group, rep.system_dim, len(rep.projections))
        return rep
    if isinstance(spec, str):
        raise ScenarioError(
            f"field 'rep': expected 'sigma_z', 'z3_clock' or an object, got {_shown(spec)}"
        )
    with _names("rep.group"):
        group = groups.make_group(read(scenario, "rep.group", [int], bound=0))
    system_dim = read(scenario, "rep.system_dim", int, bound=0)
    count = len(read(scenario, "rep.projections", [dict]))
    check(group, system_dim, count)
    assignments = []
    for i in range(count):
        where = f"rep.projections[{i}]"
        with _names(f"{where}.character"):
            chi = group.character(read(scenario, f"{where}.character", [int]))
        matrix = _matrix(scenario, f"{where}.matrix", system_dim)
        with _names(f"{where}.matrix"):
            measurement.check_projection(chi, matrix)
        assignments.append((chi, matrix))
    # each matrix is checked above, where its field is named
    with _names("rep.projections"):
        return measurement._spectral_family(group, system_dim, assignments)


def _within(where: str, estimate: int, bound: int, unit: str, subject: str) -> None:
    """Refuse a run whose size `estimate`, in `unit`, exceeds its `bound`,
    naming the field at `where`: the one place where a size bound refuses,
    and the one shape of its message."""
    if estimate > bound:
        raise ScenarioError(
            f"field '{where}': expected at most {bound} {unit}; {subject} needs about {estimate}"
        )


def _check_copies(scenario: dict, group: groups.FiniteAbelianGroup, m: int, n_values) -> None:
    """Refuse an amplify N whose label arrays, for a representation of `group`
    with m projections, exceed AMPLIFY_BYTES or whose |G| chain checks scan
    more than AMPLIFY_CHAIN_WORK labels, and then a run whose N and the
    scenario's outcomes together scan more than AMPLIFY_WORK labels."""
    g, chain, support = group.size, 0, 0
    for n in n_values:
        _within("n_values", amp.label_bytes(group, m, n), AMPLIFY_BYTES, "bytes of label arrays",
                f"N = {n}")
        _within("n_values", g * (n + 1), AMPLIFY_CHAIN_WORK, "chain-check labels",
                f"N = {n} on {g} characters")
        samples = amp.chain_samples(group, n)
        chain += g * samples * (n + 1) if samples else g ** (n + 2)
        support += m * n
    outcomes = len(read(scenario, "outcomes", [[int]]))
    _within("n_values", chain + (outcomes + 1) * support, AMPLIFY_WORK, "labels",
            f"a run of {len(n_values)} N with {outcomes} outcomes")


def _check_measure(scenario: dict, d: int, m: int, n_values=()) -> None:
    """Refuse a run, for a representation of m projections on a system of
    dimension d, whose instruments and projection checks together exceed
    MEASURE_WORK.  An outcome takes one instrument and MEASURE_OUTCOME_WORK
    in a measure run; with `n_values`, in an amplify run, whose outcomes
    AMPLIFY_WORK counts, it takes 1 + len(n_values): the single-probe
    instrument and one amplified instrument per N."""
    outcomes = read(scenario, "outcomes", [[int]])
    entries = sum(len(set(delta)) for delta in outcomes) * d * d
    work = (1 + len(n_values)) * entries * MEASURE_ENTRY_WORK + m * (m + 1) // 2 * d**3
    if not n_values:
        work += len(outcomes) * MEASURE_OUTCOME_WORK
    _within("outcomes", work, MEASURE_WORK, "multiply-adds",
            f"a run of {len(outcomes)} outcomes on {m} projections of dimension {d}")


def build_state(scenario: dict, rep) -> np.ndarray:
    with _names("state"):
        return measurement._check_state(rep, read(scenario, "state", [complex]))


def build_outcomes(scenario: dict, rep):
    """The outcomes as (label, outcome) pairs, the label its character
    indices joined by "+", as the output rows name it."""
    chars = rep.group.characters()
    outcomes = []
    for i, idx_list in enumerate(read(scenario, "outcomes", [[int]])):
        if not all(0 <= j < len(chars) for j in idx_list):
            raise ScenarioError(
                f"field 'outcomes[{i}]': expected character indices in [0, {len(chars)}),"
                f" got {_shown(idx_list)}"
            )
        label = "+".join(str(j) for j in idx_list)
        outcomes.append((label, measurement.outcome([chars[j] for j in idx_list])))
    return outcomes


def build_observable(scenario: dict, rep) -> np.ndarray:
    if scenario.get("observable") in (None, "identity"):
        return np.eye(rep.system_dim, dtype=complex)
    return _matrix(scenario, "observable", rep.system_dim)


# ---------------------------------------------------------------------------
# runners


def relations(scenario: dict) -> list[dict]:
    """Read a relations scenario object and check the W/V relations of each
    of its groups: its rows, one per group.  Before any group is built, a
    group is refused if checking it would hold more than RELATIONS_BYTES or
    make more than RELATIONS_WORK passes, and the run if its groups together
    would make more than RELATIONS_WORK passes."""
    orders_list = read(scenario, "groups", [[int]], bound=0)
    group_list, work = [], 0
    for i, orders in enumerate(orders_list):
        with _names(f"groups[{i}]"):
            g = groups.make_group(orders)
        passes, subject = ktops.relation_work(g), f"a group of order {g.size}"
        _within(f"groups[{i}]", ktops.relation_bytes(g), RELATIONS_BYTES, "bytes", subject)
        _within(f"groups[{i}]", passes, RELATIONS_WORK, "array-entry passes", subject)
        group_list.append(g)
        work += passes
    _within("groups", work, RELATIONS_WORK, "array-entry passes",
            f"a run of {len(group_list)} groups")
    rows = []
    for g in group_list:
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
    return rows


def _instrument_inputs(scenario: dict, check):
    rep = build_rep(scenario, check)
    xi, outcomes = build_state(scenario, rep), build_outcomes(scenario, rep)
    return rep, xi, outcomes, build_observable(scenario, rep)


def measure(scenario: dict) -> list[dict]:
    """Read a measure scenario object, refusing a run whose outcomes and
    projection checks exceed MEASURE_WORK before any matrix is read, and
    apply the instrument of each of its outcomes: its rows, one per
    outcome."""
    rep, xi, outcomes, b = _instrument_inputs(
        scenario, lambda group, d, m: _check_measure(scenario, d, m)
    )
    rows = []
    for label, delta in outcomes:
        res = measurement.instrument(rep, delta, xi, b)
        rows.append(
            {
                "outcome": label,
                "probability": res.probability,
                "expectation_real": res.conditional_expectation.real,
                "expectation_imag": res.conditional_expectation.imag,
            }
        )
    return rows


def amplify(scenario: dict) -> list[dict]:
    """Read an amplify scenario object, refusing each N of n_values that its
    bounds exclude, and then a run whose instruments exceed MEASURE_WORK,
    before any matrix is read, and run the cascade at each N: its rows, one
    per (N, outcome).  A row's equality_residual is |single - amplified| on
    the observable's conditional expectation, against the single-probe
    instrument of its outcome, computed once for every N."""
    n_values = read(scenario, "n_values", [int], [1, 2, 3], bound=0)

    def check(group, d, m):
        _check_copies(scenario, group, m, n_values)
        _check_measure(scenario, d, m, n_values)

    rep, xi, outcomes, b = _instrument_inputs(scenario, check)
    singles = [measurement.instrument(rep, delta, xi, b) for _, delta in outcomes]
    rows = []
    for n in n_values:
        chain = max(amp.intertwiner_chain_check(chi, n) for chi in rep.group.characters())
        output = amp.cascade_apply(amp.CascadeConfig(rep=rep, n_copies=n), xi)
        for (label, delta), single in zip(outcomes, singles):
            res = amp.amplified_instrument(output, delta, b)
            residual = abs(single.conditional_expectation - res.conditional_expectation)
            rows.append(
                {
                    "n": n,
                    "outcome": label,
                    "probability": res.probability,
                    "equality_residual": residual,
                    "chain_residual": chain,
                }
            )
    return rows


def _sg_bound(path: str):
    """Exclusive lower bound of a Stern-Gerlach field, None if it has none."""
    return None if path in SG_SIGNED or isinstance(SG_FIELDS[path], list) else 0


def _sg_fields(scenario: dict, prefix: str = "", swept=()) -> dict:
    """The Stern-Gerlach fields under `prefix` as {SG_FIELDS path: value}, each
    read and checked, except the `swept` paths (a sweep's axes); "adiabaticity"
    says whether the U_fi report was asked for.  A sweep may give the
    adiabaticity section at the top level instead of under its base."""
    base = read(scenario, prefix[:-1], dict) if prefix else scenario
    ad = prefix if "adiabaticity" in base else ""
    fields = {"adiabaticity": "adiabaticity" in base or "adiabaticity" in scenario}
    for path, default in SG_FIELDS.items():
        if path in swept:
            continue
        fields[path] = read(
            scenario,
            (ad if path.startswith("adiabaticity.") else prefix) + path,
            [complex] if isinstance(default, list) else type(default),
            _REQUIRED if path in SG_REQUIRED else default,
            _sg_bound(path),
        )
    spinor = fields["grid.spinor"]
    if len(spinor) != 2 or not 0 < sterngerlach._spinor_norm(spinor) < math.inf:
        raise ScenarioError(
            f"field '{prefix}grid.spinor': expected 2 amplitudes whose norm is finite and > 0"
            f" in floating point, got {_shown(spinor)}"
        )
    return fields


def _field(f: dict) -> sterngerlach.FieldModel:
    return sterngerlach.FieldModel(
        f["field.b0"], f["field.b1"], f["field.b2"], f["field.mu"], f["field.region_extent"]
    )


def _check_size(n: int, steps: int, where) -> None:
    """Refuse a run of `n` grid points and `steps` steps whose solver arrays
    exceed SG_SOLVER_BYTES or whose points x steps exceed SG_POINT_STEPS,
    naming grid.points or time.steps through `where`."""
    _within(where("grid.points"), n * SG_BYTES_PER_POINT, SG_SOLVER_BYTES,
            "bytes of solver arrays", f"a grid of {n} points")
    _within(where("time.steps"), n * steps, SG_POINT_STEPS, "point-steps",
            f"a run of {n} points x {steps} steps")


def _preflight(f: dict, where) -> None:
    """Refuse a run before its packet is built, naming the field at fault
    through `where`, which maps a field to its path: solver arrays over
    SG_SOLVER_BYTES or points x steps over SG_POINT_STEPS; a potential step
    that evolve would refuse, naming time.dt and the field values that set
    the step angle; a packet that the grid cannot hold or resolve (the
    refusals of `sterngerlach.gaussian_packet` among them); and a U_fi
    report that would divide by zero.  On Python floats, so an overflow
    gives inf without a numpy warning."""
    n, steps = f["grid.points"], f["time.steps"]
    _check_size(n, steps, where)
    extent, sigma = f["grid.extent"], f["grid.sigma"]
    ends = [sterngerlach.grid_z(n, extent, i) for i in (0, n - 1)]
    angle = f["time.dt"] * f["field.mu"] * sterngerlach.max_field(_field(f), ends)
    if not angle <= sterngerlach.MAX_STEP_ANGLE:
        sources = ("field.mu", "field.b0", "field.b1", "field.b2")
        values = ", ".join(f"field '{where(p)}' = {f[p]:.6g}" for p in sources)
        raise ScenarioError(
            f"field '{where('time.dt')}': expected dt*mu*max|B| <="
            f" {sterngerlach.MAX_STEP_ANGLE}, got {angle:.3g} with {values}; reduce time.dt"
        )
    kmax = math.pi * n / extent  # the grid's largest wavenumber
    dz = sterngerlach.grid_z(n, extent, 1) - sterngerlach.grid_z(n, extent, 0)
    per_sigma = sterngerlach.MIN_POINTS_PER_SIGMA
    u_fi_denominator = f["field.mu"] * f["field.b0"] * f["field.region_extent"] * f["field.b0"]
    for path, ok, expected in (
        ("grid.extent", math.isfinite(kmax * kmax * f["time.dt"] / f["grid.mass"]),
         "a finite kinetic phase, dt (pi points / extent)^2 / (2 mass)"),
        ("grid.center", abs(f["grid.center"]) < extent / 2, f"|center| < {extent / 2:.6g}"),
        ("grid.sigma", sigma < extent, f"a packet narrower than the grid, < {extent:.6g}"),
        ("grid.sigma", sigma / dz >= per_sigma, f"at least {per_sigma} points per sigma,"
         f" >= {per_sigma * dz:.6g}"),
        ("grid.momentum", abs(f["grid.momentum"]) < kmax, f"|momentum| < pi points / extent"
         f" = {kmax:.6g}, the grid's largest wavenumber"),
        ("field.b0", not f["adiabaticity"] or u_fi_denominator > 0,
         "mu b0^2 region_extent > 0 in floating point, as U_fi divides by it"),
    ):
        if not ok:
            raise ScenarioError(f"field '{where(path)}': expected {expected}, got {f[path]!r}")


def _run(f: dict, record_every: int, extent_path: str):
    """Build the packet, run it recording every `record_every` steps, and
    summarise the run from its recorded series: a branch's kick is the change
    of its <p_z> between the first and the last record, None when the branch
    holds under 1e-6 of the probability at the start or the end.  A run whose
    packet reaches the box edge is refused naming `extent_path`, the path of
    its grid.extent."""
    field = _field(f)
    grid = sterngerlach.gaussian_packet(
        f["grid.points"], f["grid.extent"], f["grid.sigma"], f["grid.center"],
        f["grid.momentum"], f["grid.spinor"], f["grid.mass"],
    )
    try:
        result = sterngerlach.run_simulation(
            grid, field, f["time.dt"], f["time.steps"], record_every=record_every
        )
    except sterngerlach.BoundaryLeakError as exc:
        raise ScenarioError(f"field '{extent_path}': {exc}") from exc
    s = result.series
    summary = {
        "flip_probability": float(s.flip_prob[-1]),
        "norm": float(s.norm[-1]),
        "duration": f["time.dt"] * f["time.steps"],
    }
    for branch, pz in (("up", s.pz_up), ("down", s.pz_down)):
        held = min(result.initial.branch_weight(branch), result.final.branch_weight(branch))
        summary[f"kick_{branch}"] = float(pz[-1] - pz[0]) if held >= 1e-6 else None
    if f["adiabaticity"]:
        report = sterngerlach.adiabaticity_parameter(
            field, v=f["adiabaticity.v"], z_scale=f["adiabaticity.z_scale"]
        )
        summary.update(
            u_fi=report.u_fi,
            larmor_omega=report.larmor_omega,
            inequality_margin=report.inequality_margin,
        )
    return result, summary


def simulate(scenario: dict) -> tuple[sterngerlach.RunResult, dict]:
    """Read, preflight and run a sterngerlach scenario object: its run, with
    the time series recorded every time.record_every steps, and its summary."""
    f = _sg_fields(scenario)
    _preflight(f, str)
    return _run(f, f["time.record_every"], "grid.extent")


def _sweep_point(args):
    fields, axis_values, extent_path = args
    summary = _run(fields, fields["time.steps"], extent_path)[1]
    expected = fields["field.mu"] * fields["field.b1"] * fields["time.dt"] * fields["time.steps"]
    up, down = summary["kick_up"], summary["kick_down"]
    return dict(
        axis_values,
        u_fi=summary.get("u_fi"),
        flip_probability=summary["flip_probability"],
        kick_up=up,
        kick_down=down,
        kick_up_error=None if up is None else up + expected,
        kick_down_error=None if down is None else down - expected,
    )


def sweep(scenario: dict, jobs: int = 1) -> list[dict]:
    """Read, preflight and run every point of a sweep scenario object: its
    rows, one per point.  `jobs` > 1 runs them in a process pool of at most
    min(jobs, points, cpu count) workers, and no more than SG_SOLVER_BYTES of
    solver arrays hold at once.  Every point's fields are read and checked
    before any point runs, and a run whose points together would make more
    than SWEEP_WORK point-steps is refused before any point is formed."""
    if jobs < 1:
        raise ScenarioError(f"option '--jobs': must be >= 1, got {jobs}")
    axes = read(scenario, "axes", [dict])
    if len(axes) > 2:
        raise ScenarioError(f"field 'axes': expected one or two sweep axes, got {len(axes)}")
    swept = {}  # path -> values
    for i in range(len(axes)):
        path = read(scenario, f"axes[{i}].path", str)
        default = SG_FIELDS.get(path)
        if not isinstance(default, (int, float)):
            numeric = [p for p, d in SG_FIELDS.items() if not isinstance(d, list)]
            raise ScenarioError(
                f"field 'axes[{i}].path': expected one of {numeric},"
                f" got {_shown(path)}, which is unknown or non-numeric"
            )
        if path in swept or path == "time.record_every":
            raise ScenarioError(
                f"field 'axes[{i}].path': expected a field that no other axis sweeps, and not"
                f" time.record_every, as a sweep records only the last step; got {_shown(path)}"
            )
        swept[path] = read(scenario, f"axes[{i}].values", [type(default)], bound=_sg_bound(path))
    base = _sg_fields(scenario, "base.", swept)
    base["adiabaticity"] |= any(p.startswith("adiabaticity.") for p in swept)
    axis_of = {path: f"axes[{i}].values" for i, path in enumerate(swept)}
    where = {**{path: "base." + path for path in SG_FIELDS}, **axis_of}.get
    # the run's work from the axes' values, before any point is formed: the
    # base or one axis gives every point's grid.points, the base or another
    # its time.steps, so each pair of them recurs in count / (len x len) points
    points, steps = ([base[p]] if p in base else swept[p] for p in ("grid.points", "time.steps"))
    _check_size(max(points), max(steps), where)  # the largest point, as a point's preflight would
    count = math.prod(map(len, swept.values()))
    work = sum(points) * sum(steps) * count // (len(points) * len(steps))
    work += SWEEP_POINT_WORK * count
    _within("axes", work, SWEEP_WORK, "point-steps", f"a sweep of {count} points")
    grids = [[(path, v) for v in values] for path, values in swept.items()]
    tasks = [({**base, **dict(pt)}, pt, where("grid.extent")) for pt in itertools.product(*grids)]
    for fields, _, _ in tasks:
        _preflight(fields, where)
    # the pool starts all its workers on the first submit, each with a point's arrays
    point_bytes = max(task[0]["grid.points"] for task in tasks) * SG_BYTES_PER_POINT
    workers = min(jobs, len(tasks), os.cpu_count() or 1, SG_SOLVER_BYTES // point_bytes)
    if workers > 1:
        # imported here, as only a pooled sweep needs it (about 10 ms of import)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]


def run_scenario(scenario: dict, out_dir: Path, jobs: int = 1) -> list[Path]:
    """Compute a scenario object of any kind and write its files to
    `out_dir`: <kind>.csv, then sterngerlach_summary.json for a sterngerlach
    run.  `jobs` is a sweep's pool size."""
    kind, summary_paths = scenario["kind"], []
    if kind == "sterngerlach":
        result, summary = simulate(scenario)
        summary_paths.append(out_dir / "sterngerlach_summary.json")
        with open(summary_paths[0], "w") as fh:
            summary = {k: _defined(v) for k, v in summary.items()}
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        s = result.series
        columns = {
            "t": s.times, "z_up": s.z_up, "z_down": s.z_down, "pz_up": s.pz_up,
            "pz_down": s.pz_down, "flip_prob": s.flip_prob, "norm": s.norm,
        }
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    elif kind == "sweep":
        rows = sweep(scenario, jobs)
    else:
        rows = {"relations": relations, "measure": measure, "amplify": amplify}[kind](scenario)
    return [_write_csv(out_dir / f"{kind}.csv", rows), *summary_paths]


def _defined(v):
    """An output value, None where it is a float that is NaN or infinite: the
    writers print None as an empty CSV cell and a JSON null."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_csv(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            values = (_defined(row[key]) for key in header)
            writer.writerow(
                "" if v is None else str(v) if isinstance(v, (str, int)) else f"{float(v):.12g}"
                for v in values
            )
    return path
