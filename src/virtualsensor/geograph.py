"""Spatial sensor graph: haversine distances, symmetrized k-NN construction,
and the padded neighbor table that `sage.sample_batch` draws from."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
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
class SpatialGraph:
    """Undirected sensor adjacency.

    Neighbor lists are sorted ascending, and the structure is immutable
    after construction. Construction also derives `neighbors`, the
    adjacency as an [n, max_degree] integer table whose row u holds u's
    neighbors followed by zeros, `degree`, the [n] neighbor counts, and
    `pad_keys`, an [n, max_degree] table that is 0 at each neighbor and +inf
    at each padded slot, the sampler's sort-key offsets.
    """

    n_nodes: int
    adjacency: tuple[tuple[int, ...], ...]
    neighbors: np.ndarray = field(init=False, repr=False, compare=False)
    degree: np.ndarray = field(init=False, repr=False, compare=False)
    pad_keys: np.ndarray = field(init=False, repr=False, compare=False)

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
        degree = np.array([len(nbrs) for nbrs in self.adjacency], dtype=np.intp)
        shape = (self.n_nodes, int(degree.max(initial=0)))
        neighbors = np.zeros(shape, dtype=np.intp)
        pad_keys = np.full(shape, np.inf)
        for u, nbrs in enumerate(self.adjacency):
            neighbors[u, : len(nbrs)] = nbrs
            pad_keys[u, : len(nbrs)] = 0.0
        for name, table in (("neighbors", neighbors), ("degree", degree), ("pad_keys", pad_keys)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)


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
