"""Independent reference: the node matrix of a system on its own domain.

Nothing here calls the program. A certificate is judged by the exponent
system it names and the domain it names, through the classical reduction of
an exponential system on a union of intervals to a finite node matrix:

  1. The system is ``{(n + phi_j)/c : n in Z}``; substituting ``x = c*y``
     turns it into ``Z + phi_j`` on ``S/c`` and multiplies both frame
     constants by ``c``.
  2. Dilate ``S/c`` by the common denominator ``D`` of its endpoints, so it
     becomes the blocks ``[p/D, (p+1)/D)`` for the integer nodes ``p``.
  3. Split ``n = D*q + r`` with ``0 <= r < D``: the branches become
     ``theta = (r + phi_j)/D`` and ``Gamma[theta, p] = exp(2 pi i theta p)``.
  4. The optimal Riesz constants are ``c * sigma^2 / D`` at the extreme
     singular values of ``Gamma`` (``numpy.linalg.svd``).

Phases ``theta*p`` are reduced mod 1 in exact rational arithmetic (a float
offset converts to a Fraction exactly), so every entry is one rounding away
from the true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

#: relative tolerance for every comparison against the reference
RTOL = 1e-9
#: absolute floor, as a share of B_opt, that covers the SVD's backward error
#: on a small sigma_min^2 (about eps * sigma_max^2)
FLOOR = 1e-12


@dataclass(frozen=True)
class Reference:
    A_opt: float
    B_opt: float
    size: int
    D: int

    def tol(self, value: float) -> float:
        return RTOL * abs(value) + FLOOR * abs(self.B_opt)


def node_matrix(offsets, domain_scale, intervals) -> tuple[np.ndarray, int, Fraction]:
    """(Gamma, D, c) for the system ``(Z + offsets)/domain_scale`` on ``intervals``."""
    c = Fraction(domain_scale)
    pieces = [(Fraction(lo) / c, Fraction(hi) / c) for lo, hi in intervals]
    d = lcm(*(x.denominator for piece in pieces for x in piece))
    nodes = sorted(p for lo, hi in pieces for p in range(int(lo * d), int(hi * d)))
    if len(set(nodes)) != len(nodes):
        raise ValueError("domain intervals overlap")
    thetas = [(r + Fraction(phi)) / d for phi in offsets for r in range(d)]
    if len(thetas) != len(nodes):
        raise ValueError(
            f"{len(thetas)} branches on {len(nodes)} nodes: not a square node matrix")
    phase = np.empty((len(thetas), len(nodes)))
    for i, theta in enumerate(thetas):
        for k, p in enumerate(nodes):
            x = theta * p
            phase[i, k] = float(x - math.floor(x))
    return np.exp(2j * np.pi * phase), d, c


def optimal_constants(offsets, domain_scale, intervals) -> Reference:
    gamma, d, c = node_matrix(offsets, domain_scale, intervals)
    sigma = np.linalg.svd(gamma, compute_uv=False)
    scale = float(c) / d
    return Reference(A_opt=scale * float(sigma[-1]) ** 2,
                     B_opt=scale * float(sigma[0]) ** 2, size=len(sigma), D=d)


def containment_misses(a: float, b: float, ref: Reference) -> list[str]:
    """Sides on which the claimed [a, b] fails to contain [A_opt, B_opt]."""
    misses = []
    if a > ref.A_opt + ref.tol(ref.A_opt):
        misses.append(f"lower: A={a!r} > A_opt={ref.A_opt!r}")
    if ref.B_opt > b + ref.tol(b):
        misses.append(f"upper: B_opt={ref.B_opt!r} > B={b!r}")
    return misses


def interlacing_misses(lo: float, hi: float, ref: Reference) -> list[str]:
    """Rayleigh quotients of a finite Gram section must lie in [A_opt, B_opt].

    The Gram form's rounding grows with its norm, so both sides use a
    tolerance relative to B_opt.
    """
    tol = RTOL * ref.B_opt
    misses = []
    if lo < ref.A_opt - tol:
        misses.append(f"section min {lo!r} < A_opt={ref.A_opt!r}")
    if hi > ref.B_opt + tol:
        misses.append(f"section max {hi!r} > B_opt={ref.B_opt!r}")
    return misses


def close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= RTOL * abs(y) + FLOOR * abs(scale)


def shift_root(m: int) -> float:
    """Root of sin(pi m b)/sin(pi b) = m sin(1/m) on (0, 1/m), by Newton from the
    bracket's midpoint with a bisection guard."""
    target = m * math.sin(1.0 / m)

    def f(b):
        return math.sin(math.pi * m * b) / math.sin(math.pi * b) - target

    lo, hi = 0.0, 1.0 / m
    b = 0.5 * (lo + hi)
    for _ in range(200):
        fb = f(b)
        if fb > 0.0:
            lo = b
        else:
            hi = b
        s, sm = math.sin(math.pi * b), math.sin(math.pi * m * b)
        df = math.pi * (m * math.cos(math.pi * m * b) * s - sm * math.cos(math.pi * b)) / (s * s)
        nb = b - fb / df if df != 0.0 else 0.5 * (lo + hi)
        if not lo < nb < hi:
            nb = 0.5 * (lo + hi)
        if abs(nb - b) <= 1e-17:
            return nb
        b = nb
    return b


def interval_removal_window(n: int) -> tuple[float, float]:
    """Open delta window (1/(2M^2), 1/M - beta) of the interval removal on [0, N)."""
    big_m = n - 1
    return 1.0 / (2 * big_m * big_m), 1.0 / big_m - shift_root(big_m)
