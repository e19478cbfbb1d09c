"""Shared test config: acceptance-summary reporting, a quadrature reference,
the closed-form Gram entry, common-denominator references for
``unit_phases`` and ``validated_intervals``, and pairwise coprime huge
denominators for cost probes.

Acceptance tests register one line per criterion; the terminal summary (and
hence any teed log) ends with a block listing each criterion's verdict.
"""

import math
import random
from fractions import Fraction

import numpy as np

from expobasis import OverlapError, PreconditionError, as_fraction, validated_intervals

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    # also echo immediately so a crashed run still shows partial verdicts
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def oscillatory_integral(nu: float, a: float, b: float) -> complex:
    """Integral of e^{2 pi i nu x} over [a, b] by composite 20-point Gauss-Legendre.

    The panels are shorter than a half-period of the oscillation, so each one
    sees a smooth, nearly polynomial integrand.  The reference shares nothing
    with the sinc closed forms of ``gram_entry`` below or of ``GramForm``.
    """
    panels = int(2 * abs(nu) * (b - a)) + 3
    cuts = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(cuts)[:, None]
    x = 0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * _GL_NODES
    return complex(np.sum(half * _GL_WEIGHTS * np.exp(2j * np.pi * nu * x)))


def gram_entry(lam: float, mu: float, u) -> complex:
    """<e_lam, e_mu> = integral of e^{2 pi i (lam - mu) x} over the union.

    Each block integrates to length * e^{pi i nu (lo+hi)} * sinc(nu * length);
    the centered form has no cancellation at small nu (the endpoint-difference
    form loses ~1e-16/nu absolute accuracy there).
    """
    intervals = validated_intervals(u)
    nu = float(lam) - float(mu)
    total = 0j
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        phase = np.exp(1j * math.pi * nu * (lo + hi))
        total += (hi - lo) * phase * np.sinc(nu * (hi - lo))
    return complex(total)


def reference_unit_phases(xs, ys) -> np.ndarray:
    """exp(2 pi i x y) with every x over one common denominator Q and every y
    over one P: the phase is (X Y mod QP) / QP, in integers, rounded once."""
    xs = [x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in xs]
    ys = [y if isinstance(y, (int, Fraction)) else as_fraction(y) for y in ys]
    q = math.lcm(*[x.denominator for x in xs])
    p = math.lcm(*[y.denominator for y in ys])
    mod = q * p
    rows = [x.numerator * (q // x.denominator) for x in xs]
    cols = [y.numerator * (p // y.denominator) % mod for y in ys]
    turns = np.fromiter((a * b % mod / mod for a in rows for b in cols), float,
                        len(rows) * len(cols)).reshape(len(rows), len(cols))
    return np.exp(2j * np.pi * turns)


def reference_validated_intervals(pairs):
    """The domain rule on integer keys: every endpoint's numerator over the
    common denominator of all of them, sorted, checked and joined into runs."""
    ends = [(as_fraction(lo), as_fraction(hi)) for lo, hi in pairs]
    if not ends:
        raise PreconditionError("a domain needs at least one interval")
    den = math.lcm(*[x.denominator for pair in ends for x in pair])
    keys = [(lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
            for lo, hi in ends]
    out = sorted(zip(keys, ends))
    for (start, end), (lo, hi) in out:
        if end <= start:
            raise PreconditionError(f"empty interval [{lo}, {hi})")
    for ((_, end), (lo, hi)), ((start, _), (nxt, _)) in zip(out, out[1:]):
        if start < end:
            raise OverlapError(f"interval [{lo}, {hi}) overlaps the one starting at {nxt}")
    runs: list[list] = []  # [start key, start, end key, end] of each run
    for (start, end), (lo, hi) in out:
        if runs and start == runs[-1][2]:
            runs[-1][2:] = [end, hi]
        else:
            runs.append([start, lo, end, hi])
    for start, _, end, _ in runs:
        try:
            (end - start) / den  # correctly rounded, as float(hi - lo) is
        except OverflowError:
            raise PreconditionError("an interval length is beyond the float range") from None
    return tuple([(lo, hi) for _, lo, _, hi in runs])


def coprime_denominators(count, bits, seed):
    """``count`` pairwise coprime odd denominators of about ``bits`` bits.

    With x a multiple of lcm(1..count), a common factor g of x i + 1 and
    x j + 1 divides j - i < count, yet shares no prime with x: so g = 1.
    """
    x = math.lcm(*range(1, count + 1)) * random.Random(seed).getrandbits(bits)
    return [x * i + 1 for i in range(1, count + 1)]
