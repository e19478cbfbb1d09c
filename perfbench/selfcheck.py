"""Proof that the benchmark's checks bite.

The timed workloads hold no unsound certificate, so a check that passed
everything would go unnoticed. This runs the reference on systems whose answer
is known: it must flag a perturbed-union certificate with a lower bound above
the optimum, and the complement negative control, and it must accept the tight
residue frames. Each case is checked on the system typed in here, and again on
the certificate the program constructs, through the workloads' own check path
(``reference_of`` reads the certificate's offsets, scale and domain). That path
must flag the sides the typed-in reference flags for the same constants, so a
later fix that makes the constructed certificate sound still passes. It runs
before every measurement; ``python3 perfbench/selfcheck.py`` runs it alone.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import reference as ref


def problems() -> list:
    import expobasis as xb
    import workloads

    def sides(misses: list) -> list:
        """The sides ("lower", "upper") that a list of misses names."""
        return sorted(m.rsplit("unsound: ", 1)[-1].split(":")[0] for m in misses)

    def disagrees(cert, r: ref.Reference) -> bool:
        checked = workloads.soundness(cert, workloads.reference_of(cert))
        return sides(checked) != sides(ref.containment_misses(cert.A, cert.B, r))

    out = []
    # s=2, a=[0,1], eps=[0,3/10]: construct_perturbed_union certifies
    # A = 2.02e-8 for this delta, while the node matrix (D = 10) gives 7.19e-9.
    delta = -1.349625582624321e-05
    r = ref.optimal_constants([Fraction(0), Fraction(1, 2) + Fraction(delta)], 1,
                              [(Fraction(0), Fraction(1)), (Fraction(13, 10), Fraction(23, 10))])
    if not (r.D == 10 and abs(r.A_opt - 7.19e-9) < 0.01e-9):
        out.append(f"perturbed union: reference gives {r}, want D=10, A_opt=7.19e-9")
    if not any(m.startswith("lower") for m in ref.containment_misses(2.02e-8, 4.0, r)):
        out.append("perturbed union: the unsound lower bound 2.02e-8 was not flagged")
    cert = xb.construct_perturbed_union(2, [0, 1], [0, Fraction(3, 10)], delta)
    if disagrees(cert, r):
        out.append(f"perturbed union: the check of the constructed [{cert.A!r}, {cert.B!r}] "
                   f"disagrees with {r}")

    # complement of residue s=1, a=[0] in [0, 3): states [2, 2], optimum [1, 3]
    r = ref.optimal_constants([Fraction(1, 3), Fraction(2, 3)], 1, [(Fraction(1), Fraction(3))])
    if len(ref.containment_misses(2.0, 2.0, r)) != 2:
        out.append(f"complement control: [2, 2] against {r} was not flagged on both sides")
    cert = xb.complement_certificate(3, xb.residue_orthogonal_basis(1, [0]))
    if disagrees(cert, r):
        out.append(f"complement control: the check of the constructed [{cert.A!r}, "
                   f"{cert.B!r}] disagrees with {r}")

    for s in range(1, 7):
        a = [j * (s + 1) for j in range(s)]
        r = ref.optimal_constants([Fraction(j, s) for j in range(s)], 1, [(x, x + 1) for x in a])
        if ref.containment_misses(float(s), float(s), r):
            out.append(f"residue frame s={s}: tight [s, s] refused against {r}")
        if ref.interlacing_misses(float(s), float(s), r):
            out.append(f"residue frame s={s}: section extremes s refused against {r}")
        cert = xb.residue_orthogonal_basis(s, a)
        if disagrees(cert, r):
            out.append(f"residue frame s={s}: constructed [{cert.A!r}, {cert.B!r}] refused")
    return out


if __name__ == "__main__":
    import run

    run.prepare()
    found = problems()
    for line in found:
        print(line, file=sys.stderr)
    print("self-check:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
