"""Gallery of random perturbed-union bases.

Draws random (s, a, eps) with small rational perturbations, picks a shift
delta inside the admissible window, and prints certificate vs oracle.  The
oracle is the node matrix of the certified system on its own domain: the
N-fold dilated grid nodes against the branches (r + j/s + j*delta)/N.  A quick
way to see how the certified constants behave as the perturbations' common
denominator N grows; it exits 2 when any certified bound misses the oracle.

    python3 scripts/perturbation_gallery.py --instances 12 --seed 7
"""

import argparse
import random
import sys
from fractions import Fraction

from expobasis import (
    EmptyDeltaWindowError,
    OverlapError,
    ResidueClashError,
    associated_matrix,
    construct_perturbed_union,
    delta_window_perturbed_union,
    singular_values,
)


MAX_GRID = 48  # skip instances whose dilated matrix would exceed this


def random_instance(rng: random.Random, args):
    s = rng.randint(2, args.s_max)
    a = [0]
    for _ in range(s - 1):
        a.append(a[-1] + rng.randint(1, 3))
    eps = [Fraction(0)]
    for _ in range(s - 1):
        den = rng.randint(2, args.den_max)
        num = rng.choice([k for k in range(-(den - 1), den) if k != 0])
        eps.append(Fraction(num, 2 * den))  # keeps |eps| < 1/2
    return s, a, eps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=12)
    ap.add_argument("--s-max", type=int, default=3)
    ap.add_argument("--den-max", type=int, default=4,
                    help="perturbation denominators drawn from 2..den-max")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    shown = 0
    attempts = 0
    worst_margin = float("inf")
    while shown < args.instances and attempts < 200 * args.instances:
        attempts += 1
        s, a, eps = random_instance(rng, args)
        try:
            lo, hi, n, m, _ = delta_window_perturbed_union(s, a, eps)
        except (ResidueClashError, EmptyDeltaWindowError):
            continue
        if s * n * (a[-1] + 1) > MAX_GRID:
            continue
        delta = float(lo) + (hi - float(lo)) * rng.random()
        if rng.random() < 0.5:
            delta = -delta
        try:
            cert = construct_perturbed_union(s, a, eps, delta)
        except OverlapError:
            continue
        matrix, scale = associated_matrix(cert)
        spec = singular_values(matrix)
        a_opt, b_opt = spec.sigma_min**2 / scale, spec.sigma_max**2 / scale
        margin = min(a_opt - cert.A, cert.B - b_opt)
        worst_margin = min(worst_margin, margin)
        shown += 1
        eps_str = ",".join(str(e) for e in eps)
        print(f"s={s} a={a} eps=[{eps_str}] N={n} m={m} delta={delta:+.6f}")
        print(f"   certified [{cert.A:.6f}, {cert.B:.6f}]"
              f"   oracle [{a_opt:.6f}, {b_opt:.6f}]   margin {margin:.3e}")
    print(f"{shown} instances ({attempts} draws), worst containment margin {worst_margin:.3e}")
    return 0 if worst_margin >= 0 else 2


if __name__ == "__main__":
    sys.exit(main())
