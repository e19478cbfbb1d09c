"""Singular-value oracle for node matrices, and principal angles between cluster spans.

The singular values of Gamma come from the LAPACK SVD (``np.linalg.svd``).
It is backward stable, so every singular value is exact to about machine
precision times sigma_max.  That is all the singularity threshold (1e-10
relative to sigma_max) needs; relative accuracy on tiny singular values is
not used.  For a fixed input the result is deterministic.  The verdict is
the ``is_singular`` field of the spectrum; the CLI writes it as
``"numerically_singular"`` or ``"nonsingular"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clusters import ClusterPartition
from .errors import PreconditionError, RankDeficientError
from .vandermonde import NodeMatrix, progression_matrix

__all__ = ["SingularSpectrum", "singular_values", "optimal_frame_constants", "is_singular",
           "principal_angle_check"]

#: sigma_min < SINGULAR_RTOL * sigma_max flags the matrix as numerically singular
SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values in descending order plus a singularity verdict."""

    values: tuple[float, ...]
    is_singular: bool

    @property
    def sigma_max(self) -> float:
        return self.values[0]

    @property
    def sigma_min(self) -> float:
        return self.values[-1]


def singular_values(matrix: NodeMatrix | np.ndarray) -> SingularSpectrum:
    """Full singular spectrum of a node matrix.

    Parameters
    ----------
    matrix : NodeMatrix or square complex ndarray.

    Returns
    -------
    SingularSpectrum
        Values sorted descending; ``is_singular`` is True when
        sigma_min < 1e-10 * sigma_max.
    """
    entries = matrix.entries if isinstance(matrix, NodeMatrix) else np.asarray(matrix)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise PreconditionError(f"oracle needs a square matrix, got shape {entries.shape}")
    if not np.all(np.isfinite(entries.view(float))):
        raise PreconditionError("matrix has non-finite entries")
    values = tuple(np.linalg.svd(entries, compute_uv=False).tolist())
    smax = values[0]
    singular = smax == 0.0 or values[-1] < SINGULAR_RTOL * smax
    return SingularSpectrum(values=values, is_singular=singular)


def optimal_frame_constants(matrix: NodeMatrix | np.ndarray) -> tuple[float, float]:
    """(sigma_min^2, sigma_max^2): the optimal Riesz constants of the system."""
    spec = singular_values(matrix)
    return spec.sigma_min**2, spec.sigma_max**2


def is_singular(matrix: NodeMatrix | np.ndarray) -> bool:
    return singular_values(matrix).is_singular


def principal_angle_check(partition: ClusterPartition) -> float:
    """Exact minimum principal angle between cluster column spans.

    Orthonormalizes each cluster block and takes arccos of the largest
    cross-Gram singular value over all cluster pairs.  With a single cluster
    the constraint is empty and pi/2 is returned.
    """
    matrix = progression_matrix(partition.nodes, partition.spacing)
    bases = []
    for cluster in partition.clusters:
        block = matrix.entries[:, list(cluster)]
        q, r = np.linalg.qr(block)
        diag = np.abs(np.diag(r))
        if np.any(diag < 1e-12 * max(1.0, float(diag.max(initial=0.0)))):
            raise RankDeficientError(f"cluster block {cluster} is numerically rank deficient")
        bases.append(q)
    worst = 0.0
    for a in range(len(bases)):
        for b in range(a + 1, len(bases)):
            s = np.linalg.svd(bases[a].conj().T @ bases[b], compute_uv=False)
            worst = max(worst, float(s[0]))
    return math.acos(min(worst, 1.0))
