"""Demonstrate that the amplified instrument does not depend on the number
of probe copies.

Couples a random system state to N probe legs through the cascade and prints
the outcome probabilities next to the single-probe instrument, together with
the worst equality residual.
"""

import argparse

import numpy as np

from qmamp.amplification import (
    CascadeConfig,
    amplified_instrument,
    cascade_apply,
    check_instrument_equality,
)
from qmamp.measurement import clock_rep, instrument, outcome, sigma_z_rep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rep", choices=["sigma_z", "z3_clock"], default="sigma_z")
    parser.add_argument("--max-copies", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rep = sigma_z_rep() if args.rep == "sigma_z" else clock_rep(3)
    rng = np.random.default_rng(args.seed)
    xi = rng.standard_normal(rep.system_dim) + 1j * rng.standard_normal(rep.system_dim)
    xi = xi / np.linalg.norm(xi)
    b = np.eye(rep.system_dim, dtype=complex)

    chars = rep.group.characters()
    singles = {chi.index: instrument(rep, outcome([chi]), xi, b) for chi in chars}
    print(f"rep={args.rep}  state coefficients |c|^2 =",
          " ".join(f"{abs(c)**2:.4f}" for c in xi))
    print("single-probe probabilities:",
          " ".join(f"p({i})={singles[i].probability:.6f}" for i in sorted(singles)))

    worst = 0.0
    for n in range(1, args.max_copies + 1):
        cfg = CascadeConfig(rep=rep, n_copies=n)
        output = cascade_apply(cfg, xi)
        probs = []
        for chi in chars:
            delta = outcome([chi])
            res = amplified_instrument(cfg, delta, output, b)
            probs.append(res.probability)
            worst = max(worst, check_instrument_equality(cfg, delta, xi, b, res))
        print(f"N={n}: " + " ".join(f"{p:.6f}" for p in probs))
    print(f"worst |single - amplified| residual: {worst:.3e}")


if __name__ == "__main__":
    main()
