"""Cluster partitions of matrix columns, their block spectra and principal angles.

Columns of a uniform node matrix with L rows whose pairwise coherence (the
sine ratio of their node difference) reaches the fixed threshold L sin(1/L),
``default_threshold``, are grouped into clusters; the partition keeps that
coherence matrix.  ``cluster_spectrum`` gives a cluster's singular values in
closed form and ``principal_angle_check`` the exact smallest angle between
cluster spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .domains import as_fraction, sin_ratio
from .errors import ClusterSizeError, PreconditionError, RankDeficientError
from .vandermonde import progression_matrix

__all__ = [
    "ClusterPartition",
    "default_threshold",
    "partition_by_coherence",
    "cluster_spectrum",
    "principal_angle_check",
]


def default_threshold(length: int) -> float:
    """Clustering threshold L*sin(1/L): pairs at or above it share a cluster."""
    return length * math.sin(1.0 / length)


@dataclass(frozen=True)
class ClusterPartition:
    """Connected components of the coherence graph on node indices.

    ``chained`` marks components of size > 2 that are not coherence-cliques,
    for which the closed-form cluster spectra are unavailable anyway.
    ``coherences[i, j]`` is the sine ratio of nodes i and j; ``==`` ignores it.
    """

    clusters: tuple[tuple[int, ...], ...]
    nodes: tuple[int, ...]
    spacing: Fraction
    length: int
    chained: bool
    coherences: np.ndarray = field(compare=False, repr=False)

    @property
    def max_cluster_size(self) -> int:
        return max(len(c) for c in self.clusters)


def partition_by_coherence(nodes: Sequence[int], spacing, length: int) -> ClusterPartition:
    """Group column indices whose pairwise coherence is >= ``default_threshold(length)``.

    Components are connected components of the thresholded coherence graph
    (ties join a cluster).
    """
    n = len(nodes)
    spacing = as_fraction(spacing)
    if n < 1:
        raise PreconditionError("partition needs at least one node")
    if length < 1:
        raise PreconditionError(f"column length must be >= 1, got {length}")
    tau = default_threshold(length)

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    coh = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            ratio = sin_ratio(length, (nodes[i] - nodes[j]) * spacing)
            coh[i, j] = coh[j, i] = ratio
            if ratio >= tau:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = tuple([tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0])])

    chained = any(
        len(c) > 2 and any(coh[i, j] < tau for x, i in enumerate(c) for j in c[x + 1 :])
        for c in clusters
    )
    return ClusterPartition(
        clusters=clusters,
        nodes=tuple([int(v) for v in nodes]),
        spacing=spacing,
        length=length,
        chained=chained,
        coherences=coh,
    )


def cluster_spectrum(partition: ClusterPartition, cluster_index: int) -> tuple[float, ...]:
    """Singular values of one cluster's column block, closed form.

    Size 1 gives (sqrt(L),); size 2 gives sqrt(L +/- |b|) with b the pair
    coherence, read from the partition.  Larger clusters have no closed form
    here.
    """
    cluster = partition.clusters[cluster_index]
    L = partition.length
    if len(cluster) == 1:
        return (math.sqrt(L),)
    if len(cluster) == 2:
        b = float(partition.coherences[cluster])
        return (math.sqrt(L + b), math.sqrt(max(L - b, 0.0)))
    raise ClusterSizeError(
        f"cluster {cluster_index} has {len(cluster)} columns; closed form stops at 2"
    )


def principal_angle_check(partition: ClusterPartition) -> float:
    """Exact minimum principal angle between cluster column spans.

    Orthonormalizes each cluster block and takes arccos of the largest
    cross-Gram singular value over all cluster pairs.  With a single cluster
    the constraint is empty and pi/2 is returned.
    """
    if partition.length != len(partition.nodes):
        raise PreconditionError("principal angles need a square node matrix: length == len(nodes)")
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
