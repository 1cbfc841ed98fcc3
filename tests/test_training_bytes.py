"""Bit-identity guards for the training step and the graph sampler.

The pinned digests were computed before the training step, and later the
rollout and validation forwards, were optimised; any change to the tape,
the optimizer, the sampler or the forward passes that moves a single bit
of a trained parameter or a rollout fails here. `_sample_batch_loop`
keeps the original per-element sampler as the reference for
`sample_batch`.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualsensor import (
    AggregatorKind,
    CityConfig,
    InitScheme,
    SageConfig,
    SampleBudget,
    SpatialGraph,
    build_knn_graph,
    closed_loop_predict,
    fill_prev_no2,
    generate_city,
    sample_neighborhood,
    standardize,
)
from virtualsensor.pipeline import TrainConfig, train
from virtualsensor.sage import sample_batch


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def city():
    raw = generate_city(CityConfig(n_sensors=6, n_hours=40, seed=3))
    ds, _ = standardize(fill_prev_no2(raw))
    return ds, build_knn_graph(ds.locations, k=3)


MODELS = {
    "sage-mean": ("sage", SageConfig(aggregator=AggregatorKind.MEAN)),
    "sage-max_pool": ("sage", SageConfig(aggregator=AggregatorKind.MAX_POOL)),
    "sage-mean_pool": ("sage", SageConfig(aggregator=AggregatorKind.MEAN_POOL)),
    "sage-attentional": ("sage", SageConfig(aggregator=AggregatorKind.ATTENTIONAL)),
    "mlp": ("mlp", None),
    "cnn": ("cnn", None),
    "gbt": ("gbt", None),
}

# sha256 over (name, little-endian float64 bytes) of the trained parameters
# and over the float.hex of every train/val history entry, for the kinds
# trained by gradient.
PINNED_PARAMS = {
    "sage-mean":
        "53be8e70b0930e9ddf9d4339102b2df123dc3d889dcb7d02d4a0949f5c53c44d",
    "sage-max_pool":
        "ecdd145cd9385b89f07480c9ce3ea090dd3ce5c5262e0f92ce32f0221490febe",
    "sage-mean_pool":
        "125018fd4c359438ba1e203dac111a433db4d4603cb8768ad2e216d5fbaa5a6d",
    "sage-attentional":
        "22f141f71354f43f2d18ff9edae0ba97d6c67e7da9ad58b0bcbe7cba6a9b19c8",
    "mlp":
        "391d9a4b50e32312d2299bbcd721d85ff37e81e1bbc7010e88bcf3cfa6491651",
    "cnn":
        "6b26879c33550da5cc075ac60ec00001619f254bb9517e0172117da686f6e9a8",
}
PINNED_HISTORY = {
    "sage-mean":
        "85d3b45e7d3de8312fac21670eb1c094ec6a05fbac8de599a9ff3702d6c1e472",
    "sage-max_pool":
        "57a56bf343c4b2e462c82b7fccdb0f6a63cf434bdd4b831f3c7401fd9a5cdfe9",
    "sage-mean_pool":
        "98b0257448bf7238d40401b1acfdfc3d1d68e1f7ebe1a113a7ffb64d9826c17d",
    "sage-attentional":
        "dafb979aecc5c77ecc2d54d92a5a17e15c14b0817b08033cea316297d71ac252",
    "mlp":
        "3b9d427ad25180175488971455b430f8dcb593cc271244e5b741f603c65fca9e",
    "cnn":
        "ba88d63a8d80631be7ece2612945caf9189b6fe227b67f020cc78b08b8131b10",
}
# sha256 of the closed-loop series of each trained model for node 2.
PINNED_ROLLOUT = {
    "sage-mean":
        "f9fbeb40a71ffa0ab7df4479bb67909eb52bed46a87a9e7bf4f84a7837742066",
    "sage-max_pool":
        "8bb7f1d42c933ff43248d5257a4930f312a0477c1e84e6415472547553c95a56",
    "sage-mean_pool":
        "6043a4b3e7beabd534cdf074bb136a614b08dd6078cac76d877b17d69ab42fb5",
    "sage-attentional":
        "8c440673fbab80f096edbd1a8c3bcf5170b250b7f15447f37bf3e2787b079027",
    "mlp":
        "29f94413e028034bbb2b2f0aaf8290bada9cfa961faf00014a685a1b07c8c91f",
    "cnn":
        "86938765fe976c76c7118bcd5a7fbcac34c34184ba1bfd70af2a73a1ae9123e9",
    "gbt":
        "2d798f76f03f2a7b3f713ef2d2c7a060211ac34fbd7a0f2196f9a44732db34d8",
}


def _train(city, key):
    ds, g = city
    kind, model_cfg = MODELS[key]
    return train(ds, g, TrainConfig(epochs=3, seed=5, model=kind), model_cfg)


def _history_digest(history) -> str:
    text = "|".join(f"{k}:{','.join(float(v).hex() for v in history[k])}" for k in sorted(history))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", list(PINNED_PARAMS))
def test_trained_parameters_keep_their_bytes(city, key):
    trained = _train(city, key)
    assert _digest(trained.params) == PINNED_PARAMS[key]
    assert _history_digest(trained.history) == PINNED_HISTORY[key]


@pytest.mark.parametrize("key", list(PINNED_ROLLOUT))
def test_closed_loop_series_keeps_its_bytes(city, key):
    ds, g = city
    preds = closed_loop_predict(_train(city, key), g, ds, 2, InitScheme.fixed(30.0),
                                rng=np.random.default_rng(11))
    assert hashlib.sha256(preds.astype("<f8").tobytes()).hexdigest() == PINNED_ROLLOUT[key]


# ---------------------------------------------------------------- sampler


def _sample_batch_loop(g, nodes, budget, rng):
    """The per-element sampler `sample_batch` replaced: (idx1, mask1, idx2, mask2)."""
    nodes = np.asarray(list(nodes), dtype=int)
    b, k1, k2 = len(nodes), budget[0], budget[1]
    idx1 = np.zeros((b, k1), dtype=int)
    mask1 = np.zeros((b, k1))
    idx2 = np.zeros((b, k1, k2), dtype=int)
    mask2 = np.zeros((b, k1, k2))
    for row, v in enumerate(nodes):
        hop1, hop2 = sample_neighborhood(g, int(v), budget, rng)
        for i, u in enumerate(hop1):
            idx1[row, i] = u
            mask1[row, i] = 1.0
            for j, w in enumerate(hop2[i]):
                idx2[row, i, j] = w
                mask2[row, i, j] = 1.0
    return idx1, mask1, idx2, mask2


@st.composite
def graphs_and_batches(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    g = SpatialGraph(n_nodes=n, adjacency=tuple(tuple(sorted(s)) for s in adj))
    nodes = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8))
    budget = SampleBudget((draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    return g, nodes, budget, draw(st.integers(0, 2**32 - 1))


@given(graphs_and_batches())
@settings(max_examples=300, deadline=None)
def test_sample_batch_matches_per_element_loop(case):
    g, nodes, budget, seed = case
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _sample_batch_loop(g, nodes, budget, rng_ref)
    batch = sample_batch(g, nodes, budget, rng)
    got = (batch.idx1, batch.mask1, batch.idx2, batch.mask2)
    for w, a in zip(want, got):
        assert a.dtype == w.dtype and a.shape == w.shape
        assert np.array_equal(a, w)
    assert np.array_equal(batch.nodes, np.asarray(nodes, dtype=int))
    assert rng.random() == rng_ref.random()  # the generator advanced identically
