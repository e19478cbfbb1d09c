"""Cluster partitions of matrix columns and their closed-form block spectra.

Columns of a square uniform node matrix, L rows on L nodes, whose pairwise
coherence (the sine ratio of their node difference) reaches the fixed
threshold L sin(1/L), ``default_threshold``, are grouped into clusters; the
partition maps each index pair to its coherence.  ``cluster_spectrum`` gives a
cluster's singular values in closed form.  Pure math, no numpy: the exact
smallest angle between cluster spans is ``spectral.principal_angle_check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .domains import as_fraction, sin_ratio
from .errors import ClusterSizeError, PreconditionError

__all__ = [
    "ClusterPartition",
    "default_threshold",
    "partition_by_coherence",
    "cluster_spectrum",
]


def default_threshold(length: int) -> float:
    """Clustering threshold L*sin(1/L): pairs at or above it share a cluster."""
    return length * math.sin(1.0 / length)


@dataclass(frozen=True)
class ClusterPartition:
    """Connected components of the coherence graph on node indices.

    ``coherences[i, j]`` (i != j) is the sine ratio of nodes i and j at
    L = len(nodes) rows; ``==`` ignores it.
    """

    clusters: tuple[tuple[int, ...], ...]
    nodes: tuple[int, ...]
    spacing: Fraction
    coherences: dict[tuple[int, int], float] = field(compare=False, repr=False)

    @property
    def max_cluster_size(self) -> int:
        return max(len(c) for c in self.clusters)


def partition_by_coherence(nodes: Sequence[int], spacing) -> ClusterPartition:
    """Group column indices whose pairwise coherence is >= ``default_threshold(len(nodes))``.

    Components are connected components of the thresholded coherence graph
    (ties join a cluster).
    """
    n = len(nodes)
    spacing = as_fraction(spacing)
    if n < 1:
        raise PreconditionError("partition needs at least one node")
    tau = default_threshold(n)

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    coh = {}
    for i in range(n):
        for j in range(i + 1, n):
            ratio = sin_ratio(n, (nodes[i] - nodes[j]) * spacing)
            coh[i, j] = coh[j, i] = ratio
            if ratio >= tau:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = tuple([tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0])])
    return ClusterPartition(
        clusters=clusters,
        nodes=tuple([int(v) for v in nodes]),
        spacing=spacing,
        coherences=coh,
    )


def cluster_spectrum(partition: ClusterPartition, cluster_index: int) -> tuple[float, ...]:
    """Singular values of one cluster's column block, closed form.

    Size 1 gives (sqrt(L),); size 2 gives sqrt(L +/- |b|) with b the pair
    coherence, read from the partition.  Larger clusters have no closed form
    here.
    """
    cluster = partition.clusters[cluster_index]
    L = len(partition.nodes)
    if len(cluster) == 1:
        return (math.sqrt(L),)
    if len(cluster) == 2:
        b = partition.coherences[cluster]
        return (math.sqrt(L + b), math.sqrt(max(L - b, 0.0)))
    raise ClusterSizeError(
        f"cluster {cluster_index} has {len(cluster)} columns; closed form stops at 2"
    )
