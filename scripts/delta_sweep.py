"""Sweep the admissible shift window for single-interval removal.

For each N, walks delta across the open window (1/(2(N-1)^2), 1/(N-1) - beta)
and reports how much slack the certified [A, B] leaves around the oracle's
optimal constants.  Useful for eyeballing how conservative the closed-form
bounds are as the window edge is approached.

    python3 scripts/delta_sweep.py --n-min 4 --n-max 10 --steps 9
"""

import argparse
import sys

from expobasis import (
    associated_matrix,
    construct_interval_removal,
    delta_window_interval_removal,
    jsonio,
    singular_values,
)


def sweep(args) -> list[dict]:
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        lo, hi, _ = delta_window_interval_removal(n)
        m = args.m if args.m is not None else n // 2
        for i in range(args.steps):
            # stay strictly inside the open window
            delta = lo + (hi - lo) * (i + 1) / (args.steps + 1)
            cert = construct_interval_removal(n, m, delta)
            matrix, scale = associated_matrix(cert)
            spec = singular_values(matrix)
            a_opt, b_opt = spec.sigma_min**2, spec.sigma_max**2
            rows.append({
                "N": n,
                "m": m,
                "delta": delta,
                "window": [lo, hi],
                "A": cert.A,
                "B": cert.B,
                "A_opt": a_opt / scale,
                "B_opt": b_opt / scale,
                "lower_slack": a_opt / scale - cert.A,
                "upper_slack": cert.B - b_opt / scale,
            })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=4)
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--m", type=int, default=None,
                    help="removed interval (default: the middle one)")
    ap.add_argument("--output", type=str, default=None)
    args = ap.parse_args(argv)

    rows = sweep(args)
    worst_lower = min(r["lower_slack"] for r in rows)
    worst_upper = min(r["upper_slack"] for r in rows)
    print(f"{len(rows)} instances, N in [{args.n_min}, {args.n_max}]")
    print(f"tightest lower slack: {worst_lower:.6e}")
    print(f"tightest upper slack: {worst_upper:.6e}")
    for r in rows:
        print(f"N={r['N']:2d} m={r['m']:2d} delta={r['delta']:.6f}  "
              f"[A, B]=[{r['A']:.6f}, {r['B']:.6f}]  "
              f"oracle=[{r['A_opt']:.6f}, {r['B_opt']:.6f}]")
    if worst_lower < 0 or worst_upper < 0:
        print("certificate violated by the oracle -- this should never happen")
        return 2
    if args.output:
        jsonio.dump_path({"schema": "v1", "sweep": rows}, args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
