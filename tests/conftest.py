"""Shared test config: acceptance-summary reporting and a quadrature reference.

Acceptance tests register one line per criterion; the terminal summary (and
hence any teed log) ends with a block listing each criterion's verdict.
"""

import numpy as np

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
    with the sinc closed form of ``gram_entry``.
    """
    panels = int(2 * abs(nu) * (b - a)) + 3
    cuts = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(cuts)[:, None]
    x = 0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * _GL_NODES
    return complex(np.sum(half * _GL_WEIGHTS * np.exp(2j * np.pi * nu * x)))
