"""Split a balanced spin superposition in a longitudinal field gradient.

Evolves a Gaussian packet prepared in (|up> + |down>)/sqrt(2) and prints the
branch momenta over time; the branches acquire opposite kicks of size
mu * b1 * T.  With --b2 a transverse gradient is added and the spin-flip
probability is reported against the adiabaticity parameter U_fi.
"""

import argparse
import math

from qmamp.sterngerlach import (
    FieldModel,
    adiabaticity_parameter,
    gaussian_packet,
    momentum_kick,
    run_simulation,
)


def cell(x: float, spec: str) -> str:
    """x formatted by `spec`, or blanks of the same width where x is undefined
    (NaN, as the flip probability of a superposed start): the CLI writes an
    empty cell there."""
    return format(x, spec) if math.isfinite(x) else " " * len(format(0.0, spec))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b0", type=float, default=1.0)
    parser.add_argument("--b1", type=float, default=0.5)
    parser.add_argument("--b2", type=float, default=0.0)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=0.005)
    parser.add_argument("--points", type=int, default=2048)
    parser.add_argument("--extent", type=float, default=40.0)
    args = parser.parse_args()

    field = FieldModel(b0=args.b0, b1=args.b1, b2=args.b2, mu=args.mu)
    spinor = (1.0, 1.0) if args.b2 == 0 else (1.0, 0.0)
    grid = gaussian_packet(args.points, args.extent, sigma=1.0, spinor=spinor)
    steps = round(args.duration / args.dt)
    result = run_simulation(grid, field, args.dt, steps, record_every=max(steps // 10, 1))

    s = result.series
    print(f"{'t':>6} {'<p_z>_up':>10} {'<p_z>_down':>11} {'flip':>10} {'norm':>12}")
    columns = [(s.times, "6.2f"), (s.pz_up, "10.4f"), (s.pz_down, "11.4f"),
               (s.flip_prob, "10.3e"), (s.norm, "12.9f")]
    for i in range(len(s.times)):
        print(" ".join(cell(column[i], spec) for column, spec in columns))

    expected = args.mu * args.b1 * args.duration
    if args.b2 == 0:
        kick_up = momentum_kick(result.final, result.initial, "up")
        kick_down = momentum_kick(result.final, result.initial, "down")
        print(f"\nkicks: up {kick_up:+.4f}, down {kick_down:+.4f}"
              f" (expected magnitude mu*b1*T = {expected:.4f})")
    else:
        report = adiabaticity_parameter(field, v=1.0, z_scale=1.0)
        print(f"\nU_fi = {report.u_fi:.4g}, Larmor omega = {report.larmor_omega:.4g},"
              f" inequality margin = {report.inequality_margin:.4g}")


if __name__ == "__main__":
    main()
