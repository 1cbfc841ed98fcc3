"""Spatial graph layer: haversine, k-NN construction, the derived neighbor
table, and the per-element reference sampler that `sage.sample_batch`'s
invariants are checked against."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualsensor import (
    SensorLocation,
    SpatialGraph,
    build_knn_graph,
    haversine,
)
from virtualsensor.errors import SchemaError

from probes import reference_sample_neighborhood as sample_neighborhood

BRISTOL = (51.4545, -2.5879)
LONDON = (51.5072, -0.1276)


# ---------------------------------------------------------------- haversine


def test_haversine_zero_distance():
    assert haversine(BRISTOL, BRISTOL) == 0.0


def test_haversine_symmetric():
    assert haversine(BRISTOL, LONDON) == pytest.approx(haversine(LONDON, BRISTOL))


def test_haversine_antipodal():
    # Poles are antipodal: half the Earth's circumference, pi * R.
    assert haversine((90.0, 0.0), (-90.0, 0.0)) == pytest.approx(
        math.pi * 6_371_000.0, rel=1e-12
    )


def test_haversine_bristol_london():
    # City-center distance is about 170.5 km.
    assert haversine(BRISTOL, LONDON) == pytest.approx(170_500.0, abs=500.0)


def test_haversine_one_degree_meridian():
    assert haversine((0.0, 0.0), (1.0, 0.0)) == pytest.approx(
        math.radians(1.0) * 6_371_000.0, rel=1e-12
    )


coord = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


@given(coord, coord, coord)
@settings(max_examples=100, deadline=None)
def test_haversine_triangle_inequality(a, b, c):
    assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-6


@given(coord, coord)
@settings(max_examples=100, deadline=None)
def test_haversine_bounds(a, b):
    d = haversine(a, b)
    assert 0.0 <= d <= math.pi * 6_371_000.0 + 1e-6


# ---------------------------------------------------------------- graph structure


def edges(g):
    return {(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v}


def grid_locations(n, spacing_deg=0.01):
    return [
        SensorLocation(f"S{i:02d}", 51.4 + spacing_deg * (i // 3), -2.6 + spacing_deg * (i % 3), 10.0)
        for i in range(n)
    ]


def test_spatial_graph_validates_symmetry():
    with pytest.raises(SchemaError, match="asymmetric"):
        SpatialGraph(n_nodes=2, adjacency=((1,), ()))


def test_spatial_graph_rejects_self_loop():
    with pytest.raises(SchemaError, match="self-loop"):
        SpatialGraph(n_nodes=1, adjacency=((0,),))


def test_spatial_graph_rejects_unsorted_neighbors():
    with pytest.raises(SchemaError, match="not sorted"):
        SpatialGraph(n_nodes=3, adjacency=((2, 1), (0, 2), (0, 1)))


def test_build_knn_every_node_has_at_least_k_or_all():
    locs = grid_locations(9)
    g = build_knn_graph(locs, k=3)
    for u in range(9):
        assert len(g.adjacency[u]) >= 3  # symmetrization can only add edges


def test_spatial_graph_derives_neighbor_table():
    adjacency = ((1, 2), (0,), (0,), ())
    g = SpatialGraph(n_nodes=4, adjacency=adjacency)
    assert g.degree.tolist() == [2, 1, 1, 0]
    assert g.neighbors.tolist() == [[1, 2], [0, 0], [0, 0], [0, 0]]
    assert g.pad_keys.tolist() == [[0.0, 0.0], [0.0, np.inf], [0.0, np.inf], [np.inf, np.inf]]
    for table in (g.neighbors, g.degree, g.pad_keys):
        assert not table.flags.writeable
    assert g == SpatialGraph(n_nodes=4, adjacency=adjacency)


def test_spatial_graph_without_edges_has_empty_table():
    g = SpatialGraph(n_nodes=2, adjacency=((), ()))
    assert g.neighbors.shape == g.pad_keys.shape == (2, 0)
    assert g.degree.tolist() == [0, 0]


def test_build_knn_two_nodes():
    g = build_knn_graph(grid_locations(2), k=3)
    assert g.adjacency == ((1,), (0,))


def test_build_knn_edge_lengths_match_haversine():
    # With lengths recomputed by haversine, each node's k shortest links
    # (ties to the lower sensor id) are edges, and every edge is one of the
    # k shortest links of an endpoint.
    locs, k = grid_locations(5), 2
    g = build_knn_graph(locs, k=k)

    def length(u, v):
        return haversine((locs[u].lat, locs[u].lon), (locs[v].lat, locs[v].lon))

    nearest = [set(sorted((v for v in range(5) if v != u),
                          key=lambda v: (length(u, v), locs[v].id))[:k]) for u in range(5)]
    for u in range(5):
        assert nearest[u] <= set(g.adjacency[u])
        assert all(v in nearest[u] or u in nearest[v] for v in g.adjacency[u])


def test_build_knn_deterministic():
    locs = grid_locations(8)
    a = build_knn_graph(locs, k=3)
    b = build_knn_graph(locs, k=3)
    assert a.adjacency == b.adjacency


def test_build_knn_duplicate_coordinates_warns():
    locs = grid_locations(4)
    locs.append(SensorLocation("DUP", locs[0].lat, locs[0].lon, 5.0))
    with pytest.warns(UserWarning, match="duplicate coordinates"):
        build_knn_graph(locs, k=2)


def test_build_knn_rejects_degenerate_input():
    with pytest.raises(SchemaError):
        build_knn_graph(grid_locations(1), k=3)
    with pytest.raises(SchemaError):
        build_knn_graph(grid_locations(4), k=0)


def test_diameter_small_city_layout():
    # 8 sensors scattered over a ~7 km box with k=3 stay tightly connected:
    # every sensor reaches every other within 2 hops.
    rng = np.random.default_rng(7)
    locs = [
        SensorLocation(f"S{i:02d}", float(rng.uniform(51.42, 51.49)), float(rng.uniform(-2.65, -2.52)), 10.0)
        for i in range(8)
    ]
    g = build_knn_graph(locs, k=3)
    within_one = np.eye(8, dtype=int)
    for u, nbrs in enumerate(g.adjacency):
        within_one[u, list(nbrs)] = 1
    assert not within_one.all() and (within_one @ within_one).all()


def test_knn_permutation_equivariance():
    locs = grid_locations(7)
    g = build_knn_graph(locs, k=2)
    perm = [3, 0, 6, 1, 5, 2, 4]  # new index p -> old index perm[p]
    inv = {old: new for new, old in enumerate(perm)}
    permuted = [locs[old] for old in perm]
    g2 = build_knn_graph(permuted, k=2)
    edges1 = {(min(inv[u], inv[v]), max(inv[u], inv[v])) for (u, v) in edges(g)}
    assert edges1 == edges(g2)


# ---------------------------------------------------------------- sampling
# `sample_neighborhood` here is the per-element reference sampler of
# tests/probes.py, which `sage.sample_batch`'s layout and mask invariants
# are checked against in tests/test_training_bytes.py.


def star_graph(n_leaves):
    center_adj = tuple(range(1, n_leaves + 1))
    leaves = tuple((0,) for _ in range(n_leaves))
    return SpatialGraph(n_nodes=n_leaves + 1, adjacency=(center_adj,) + leaves)


def test_sample_neighborhood_respects_budget():
    g = star_graph(10)
    hop1, hop2 = sample_neighborhood(g, 0, (3, 5), np.random.default_rng(42))
    assert len(hop1) == 3
    assert len(set(hop1)) == 3  # without replacement
    assert all(v in g.adjacency[0] for v in hop1)
    assert len(hop2) == len(hop1)
    for u, second in zip(hop1, hop2):
        assert set(second) <= set(g.adjacency[u])


def test_sample_neighborhood_small_degree_unpadded():
    g = SpatialGraph(n_nodes=3, adjacency=((1, 2), (0,), (0,)))
    hop1, hop2 = sample_neighborhood(g, 1, (3, 5), np.random.default_rng(0))
    assert hop1 == [0]  # degree 1 < budget 3: all neighbors, no padding
    assert hop2 == [[1, 2]]


def test_sample_neighborhood_isolated_node():
    g = SpatialGraph(n_nodes=3, adjacency=((1,), (0,), ()))
    hop1, hop2 = sample_neighborhood(g, 2, (3, 5), np.random.default_rng(0))
    assert hop1 == []
    assert hop2 == []


def test_sample_neighborhood_deterministic_seed_42():
    g = star_graph(10)
    a = sample_neighborhood(g, 0, (3, 5), np.random.default_rng(42))
    b = sample_neighborhood(g, 0, (3, 5), np.random.default_rng(42))
    assert a == b


def test_sample_neighborhood_node_range_check():
    g = star_graph(3)
    with pytest.raises(SchemaError):
        sample_neighborhood(g, 99, (3, 5), np.random.default_rng(0))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sample_neighborhood_always_subset(seed):
    g = build_knn_graph(grid_locations(9), k=3)
    rng = np.random.default_rng(seed)
    for node in range(g.n_nodes):
        hop1, hop2 = sample_neighborhood(g, node, (2, 3), rng)
        assert len(hop1) == len(set(hop1)) <= 2
        assert set(hop1) <= set(g.adjacency[node])
        for u, second in zip(hop1, hop2):
            assert len(second) == len(set(second)) <= 3
            assert set(second) <= set(g.adjacency[u])
