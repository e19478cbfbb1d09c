"""Shared test config: acceptance-summary reporting, a quadrature reference
and the closed-form Gram entry.

Acceptance tests register one line per criterion; the terminal summary (and
hence any teed log) ends with a block listing each criterion's verdict.
"""

import math

import numpy as np

from expobasis import validated_intervals

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
