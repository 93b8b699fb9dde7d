"""Output checks with the acceptance tolerances.

One operation is one result row: a group in `relations`, an (n, outcome) row
in `amplify`, the one run in `sterngerlach`, a point in `sweep`.  A row fails
when its invocation exited non-zero, or when the row is missing or outside
its tolerance.  Non-finite output fields are counted, not failed, except the
documented NaN flip probability of a superposed spinor, which is neither.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

RESIDUAL_TOL = 1e-12
FOURIER_TOL = 1e-10
NORM_TOL = 1e-8
KICK_REL_TOL = 0.02
FLIP_AT_B2_ZERO_TOL = 1e-14
# CSV floats carry 12 significant digits.
PRINTED_REL_TOL = 1e-11
FLIP_COLUMNS = ("flip_prob", "flip_probability")


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    nonfinite_fields: int = 0
    output_bytes: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def fail_all(self, what: str) -> None:
        self.failed = self.attempted
        self.problems.append(what)


def _num(text):
    """Float value of an output field; None when empty or not a number."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _near(value, target: float, tol: float) -> bool:
    """value is a number within tol of target (NaN never is)."""
    return value is not None and abs(value - target) <= tol


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _superposed(spinor) -> bool:
    return sum(1 for c in spinor if abs(complex(*c) if isinstance(c, list) else c) > 0) > 1


def _relations(inv, out: Path, v: Verdict) -> None:
    rows = {r["group"]: r for r in _read_csv(out / "relations.csv")}
    for orders in inv.scenario["groups"]:
        label = "x".join(str(n) for n in orders)
        r = rows.get(label)
        if r is None:
            v.fail(f"relations {label}: row missing")
            continue
        limits = dict.fromkeys(
            ("pentagonal_w", "pentagonal_v", "intertwining_w", "intertwining_v"), RESIDUAL_TOL
        )
        limits["fourier_conjugation"] = FOURIER_TOL
        bad = [k for k, tol in limits.items() if not _near(_num(r.get(k)), 0.0, tol)]
        if bad:
            v.fail(f"relations {label}: {', '.join(bad)} out of tolerance")


def _amplify(inv, out: Path, v: Verdict) -> None:
    s = inv.scenario
    # Both presets put E(chi_k) = |k><k|, so P(outcome) = sum_k |xi_k|^2.
    xi = [complex(*c) for c in s["state"]]
    rows = {(r["n"], r["outcome"]): r for r in _read_csv(out / "amplify.csv")}
    for outcome in s["outcomes"]:
        label = "+".join(str(k) for k in outcome)
        exact = sum(abs(xi[k]) ** 2 for k in outcome)
        first = None
        for n in s["n_values"]:
            r = rows.get((str(n), label))
            if r is None:
                v.fail(f"{inv.name} n={n} outcome {label}: row missing")
                continue
            p = _num(r.get("probability"))
            first = p if first is None else first
            bad = []
            if not _near(_num(r.get("equality_residual")), 0.0, RESIDUAL_TOL):
                bad.append("equality_residual")
            if _num(r.get("chain_residual")) != 0:
                bad.append("chain_residual")
            if not (_near(p, exact, RESIDUAL_TOL) and _near(p, first, RESIDUAL_TOL)):
                bad.append("probability")
            if bad:
                v.fail(f"{inv.name} n={n} outcome {label}: {', '.join(bad)} out of tolerance")


def _sterngerlach(inv, out: Path, v: Verdict) -> None:
    s = inv.scenario
    t, f = s["time"], s["field"]
    rows = _read_csv(out / "sterngerlach.csv")
    with open(out / "sterngerlach_summary.json") as fh:
        summary = json.load(fh)
    expected = f.get("mu", 1.0) * f["b1"] * t["dt"] * t["steps"]
    bad = []
    if len(rows) != math.ceil(t["steps"] / t["record_every"]) + 1:
        bad.append(f"{len(rows)} rows")
    if not all(_near(_num(r.get("norm")), 1.0, NORM_TOL) for r in rows):
        bad.append("norm drift")
    if not _near(_num(summary.get("kick_up")), -expected, KICK_REL_TOL * expected):
        bad.append("kick_up")
    if not _near(_num(summary.get("kick_down")), expected, KICK_REL_TOL * expected):
        bad.append("kick_down")
    if bad:
        v.fail(f"{inv.name}: {', '.join(bad)} out of tolerance")


def _sweep(inv, out: Path, v: Verdict) -> None:
    s = inv.scenario
    base_field, t = s["base"]["field"], s["base"]["time"]
    paths = [ax["path"] for ax in s["axes"]]
    rows = _read_csv(out / "sweep.csv")
    for i, values in enumerate(itertools.product(*(ax["values"] for ax in s["axes"]))):
        point = dict(zip(paths, values))
        r = rows[i] if i < len(rows) else None
        if r is None or not all(
            _near(_num(r.get(p)), x, PRINTED_REL_TOL * max(1.0, abs(x))) for p, x in point.items()
        ):
            v.fail(f"sweep point {point}: row missing")
            continue
        b1 = point.get("field.b1", base_field.get("b1", 0.0))
        b2 = point.get("field.b2", base_field.get("b2", 0.0))
        flip = _num(r.get("flip_probability"))
        bad = []
        if flip is None or not 0.0 <= flip <= 1.0:
            bad.append("flip outside [0, 1]")
        elif b2 == 0 and flip > FLIP_AT_B2_ZERO_TOL:
            bad.append("flip at b2 = 0")
        if b2 == 0:
            # The spinor is prepared spin-up, so the up branch carries the kick -mu*b1*T.
            expected = base_field.get("mu", 1.0) * b1 * t["dt"] * t["steps"]
            if not _near(_num(r.get("kick_up")), -expected, KICK_REL_TOL * expected):
                bad.append("kick_up")
        if bad:
            v.fail(f"sweep point {point}: {', '.join(bad)}")


CHECKERS = {"relations": _relations, "amplify": _amplify,
            "sterngerlach": _sterngerlach, "sweep": _sweep}


def _nonfinite(inv, files: list[Path]) -> int:
    scenario = inv.scenario.get("base", inv.scenario)
    spinor = scenario.get("grid", {}).get("spinor", [1.0, 0.0])
    exempt = FLIP_COLUMNS if _superposed(spinor) else ()
    count = 0
    for path in files:
        if path.suffix == ".csv":
            items = [item for r in _read_csv(path) for item in r.items()]
        elif path.suffix == ".json":
            with open(path) as fh:
                items = list(json.load(fh).items())
        else:
            continue
        for key, value in items:
            x = _num(value) if not isinstance(value, bool) else None
            if x is not None and not math.isfinite(x) and key not in exempt:
                count += 1
    return count


def check(inv, out_dir, returncode: int) -> Verdict:
    """Check the outputs of one invocation."""
    out = Path(out_dir)
    v = Verdict(inv.operations())
    files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
    v.output_bytes = sum(p.stat().st_size for p in files)
    if returncode != 0:
        v.fail_all(f"{inv.name}: exit code {returncode}")
        return v
    try:
        v.nonfinite_fields = _nonfinite(inv, files)
        CHECKERS[inv.kind](inv, out, v)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        v.fail_all(f"{inv.name}: unreadable output: {exc!r}")
    return v
