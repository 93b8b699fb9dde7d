"""Regenerate the recorded adiabaticity sweep reference.

Runs the reference's `qmamp sweep` scenario over field.b2 at its fine,
converged time step and writes the columns of the rows to
src/qmamp/data/adiabaticity_reference.json.  The self-check suite compares a
run of the scenario at its own, coarser time step against this file, so the
reference should only be regenerated when the sweep scenario itself changes.
"""

import argparse
import json
from pathlib import Path

from qmamp import scenarios, selfcheck

DEFAULT_OUT = (
    Path(__file__).resolve().parent.parent
    / "src"
    / "qmamp"
    / "data"
    / "adiabaticity_reference.json"
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    ref = selfcheck.load_adiabaticity_reference()
    rows = scenarios.sweep(selfcheck.at_time_step(ref["scenario"], ref["converged_dt"]))
    payload = {
        "description": ref["description"],
        "scenario": ref["scenario"],
        "converged_dt": ref["converged_dt"],
        "b2_values": [r["field.b2"] for r in rows],
        "u_fi_values": [r["u_fi"] for r in rows],
        "converged_flips": [r["flip_probability"] for r in rows],
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for r in rows:
        print(f"b2={r['field.b2']:<6g} U_fi={r['u_fi']:.4g} flip={r['flip_probability']:.4e}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
