"""Spatial sensor graph: haversine distances, symmetrized k-NN construction,
and per-hop neighborhood sampling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import SensorLocation
from .errors import SchemaError

EARTH_RADIUS_M = 6_371_000.0


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points in degrees."""
    lat1, lon1, lat2, lon2 = map(np.radians, (a[0], a[1], b[0], b[1]))
    s = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0))))


def distance_matrix(locations: Sequence[SensorLocation]) -> np.ndarray:
    """[n, n] haversine distances in meters between the sensors."""
    coords = [(loc.lat, loc.lon) for loc in locations]
    n = len(coords)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = haversine(coords[i], coords[j])
    return dist


@dataclass(frozen=True)
class SampleBudget:
    """Per-hop maximum sample counts for the two aggregation layers."""

    per_hop: tuple[int, ...] = (3, 5)

    def __post_init__(self):
        if len(self.per_hop) != 2:
            raise SchemaError("budget must cover exactly 2 hops")
        if any(b < 1 for b in self.per_hop):
            raise SchemaError("per-hop budgets must be >= 1")

    def __getitem__(self, i: int) -> int:
        return self.per_hop[i]


@dataclass(frozen=True)
class SpatialGraph:
    """Undirected sensor adjacency.

    Neighbor lists are sorted ascending; the structure is immutable after
    construction and safe for concurrent reads.
    """

    n_nodes: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.n_nodes:
            raise SchemaError("adjacency length != n_nodes")
        for u, nbrs in enumerate(self.adjacency):
            if u in nbrs:
                raise SchemaError(f"self-loop at node {u}")
            if list(nbrs) != sorted(nbrs):
                raise SchemaError(f"neighbor list of node {u} not sorted")
            for v in nbrs:
                if u not in self.adjacency[v]:
                    raise SchemaError(f"asymmetric edge {u}->{v}")


def build_knn_graph(locations: Sequence[SensorLocation], k: int = 3) -> SpatialGraph:
    """Symmetrized k-nearest-neighbor graph over haversine distances.

    An edge is kept if either endpoint selected the other. Distance ties are
    broken by ascending sensor id for determinism.
    """
    n = len(locations)
    if k < 1:
        raise SchemaError("k must be >= 1")
    if n < 2:
        raise SchemaError("need at least 2 locations")

    if len({(loc.lat, loc.lon) for loc in locations}) < n:
        warnings.warn("duplicate coordinates among sensors; ties broken by sensor id")

    dist = distance_matrix(locations)

    edges: set[tuple[int, int]] = set()
    for u in range(n):
        others = [v for v in range(n) if v != u]
        others.sort(key=lambda v: (dist[u, v], locations[v].id))
        for v in others[: min(k, n - 1)]:
            edges.add((min(u, v), max(u, v)))

    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    return SpatialGraph(n_nodes=n, adjacency=tuple(tuple(sorted(s)) for s in adj))


def sample_neighborhood(
    g: SpatialGraph, node: int, budget: SampleBudget, rng: np.random.Generator
) -> tuple[list[int], list[list[int]]]:
    """Sample hop-1 neighbors of `node` and hop-2 neighbors of each sample.

    Sampling is uniform without replacement and unpadded: nodes with degree
    below the budget contribute all their neighbors. Isolated nodes yield
    empty lists. Deterministic for a given generator state.
    """
    if not 0 <= node < g.n_nodes:
        raise SchemaError(f"node index {node} out of range")
    adjacency, k2 = g.adjacency, budget[1]
    hop1 = _sample(adjacency[node], budget[0], rng)
    return hop1, [_sample(adjacency[u], k2, rng) for u in hop1]


def _sample(neighbors: tuple[int, ...], budget: int, rng: np.random.Generator) -> list[int]:
    if not neighbors:
        return []
    if len(neighbors) <= budget:
        return list(neighbors)
    picked = rng.choice(len(neighbors), size=budget, replace=False)
    return [neighbors[i] for i in picked.tolist()]
