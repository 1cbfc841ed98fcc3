"""Bit-identity guards for the training step and the graph sampler.

The MLP, CNN and GBT digests were computed before the training step, and
later the rollout and validation forwards, were optimised; the sage
digests were re-pinned once, when the sampler moved to one draw of sort
keys per batch and layer 1 to one pass over the targets and their hop-1
samples, which changed the RNG stream and the rounding on purpose. Any
change to the tape, the optimizer, the sampler or the forward passes that
moves a single bit of a trained parameter or a rollout fails here. The per-element sampler
of tests/probes.py is the reference for `sample_batch`'s layout, padding
and masks.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualsensor import (
    AggregatorKind,
    CityConfig,
    SageConfig,
    SpatialGraph,
    build_knn_graph,
    closed_loop_predict,
    generate_city,
    prepare,
)
from virtualsensor.dataset import N_FEATURES
from virtualsensor.nncore import initialize, mse_loss, wrap_params
from virtualsensor.pipeline import DEFAULT_MODEL_CONFIGS, TrainConfig, _model_inputs, train

from probes import counting_vars, reference_sample_batch, sample_with_rng, tape_nodes


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def city():
    raw = generate_city(CityConfig(n_sensors=6, n_hours=40, seed=3))
    ds = prepare(raw)
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
        "3aee23ace68b59c4f5ce32282fc6f243303d42735939763efc2c3b93704f9c0f",
    "sage-max_pool":
        "0c120d63140c2db161ead4775a7f0c3c1a3884d0422cd6830ead0681262e921f",
    "sage-mean_pool":
        "b8affecd61414ad41ae1140cf21615058506ceaa632f04edbdf2632397b682dc",
    "sage-attentional":
        "307e81deaa05f0dcb070c2856ad61835097a5ebfbf991582533cc87e1c4575f0",
    "mlp":
        "391d9a4b50e32312d2299bbcd721d85ff37e81e1bbc7010e88bcf3cfa6491651",
    "cnn":
        "6b26879c33550da5cc075ac60ec00001619f254bb9517e0172117da686f6e9a8",
}
PINNED_HISTORY = {
    "sage-mean":
        "0196f192478f60febd79659a5d2219b2b0976cb4b02d5378ef76d2af92dcb536",
    "sage-max_pool":
        "31c5f6ee9629f3b9fa464e45cd50daccc1613c1fedc44fac14f74732be0f38cd",
    "sage-mean_pool":
        "ace9f3c8c94b211f4ec06faa619b52feef6da47623c62e087a071330626cf6d3",
    "sage-attentional":
        "15dd2863aee3cac9fe8dae03a61e64ec437ff4ec19ca94a621dbe43b5208093d",
    "mlp":
        "3b9d427ad25180175488971455b430f8dcb593cc271244e5b741f603c65fca9e",
    "cnn":
        "ba88d63a8d80631be7ece2612945caf9189b6fe227b67f020cc78b08b8131b10",
}
# sha256 of the closed-loop series of each trained model for node 2.
PINNED_ROLLOUT = {
    "sage-mean":
        "4e222a7380602f63c1100cec72a041e7966b60c4b0896a4461c29a3a7dc3fab3",
    "sage-max_pool":
        "a1bace3d971839ebc15f5b8d3c2e12b8fbf3dda543da392ba9320074595ba666",
    "sage-mean_pool":
        "43f54aed4b115467f97764552ee20f3869d54045bc540cf49fbfa4984cf36184",
    "sage-attentional":
        "fdb284d0a54676bcd8c01484d05c639e7e33f1c398a6d16f656c47a59d18b26e",
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
    preds = closed_loop_predict(_train(city, key), g, ds, 2, 30.0,
                                rng=np.random.default_rng(11))
    assert hashlib.sha256(preds.astype("<f8").tobytes()).hexdigest() == PINNED_ROLLOUT[key]


# Nodes on one training step's tape, leaves included.
TAPE_SIZE = {"sage-mean": 22, "sage-max_pool": 29, "sage-mean_pool": 29,
             "sage-attentional": 47, "mlp": 18, "cnn": 19}


def _training_step_loss(city, key):
    """The loss of one training step of `key` on frame 5: `wrap_params`, the
    model's draw and forward hooks, and `mse_loss`."""
    ds, g = city
    kind, model_cfg = MODELS[key]
    model_cfg = model_cfg or DEFAULT_MODEL_CONFIGS[kind]()
    rng = np.random.default_rng(0)
    pvars = wrap_params(initialize(model_cfg.param_shapes(N_FEATURES), rng))
    nodes = np.flatnonzero(ds.present[5])
    [drawn] = model_cfg.draws(g, [nodes], "train", rng)
    pred = model_cfg.forward(pvars, _model_inputs(ds, g)[5], nodes, drawn)
    return mse_loss(pred, ds.targets[5, nodes])


@pytest.mark.parametrize("key", list(TAPE_SIZE))
def test_no_training_tape_node_has_three_consumers(city, key):
    # The backward adds the gradients that meet at a node in reverse creation
    # order. Two addends give the same bits in either order, as IEEE addition
    # commutes; three need not, as it does not associate.
    tape = tape_nodes(_training_step_loss(city, key))
    consumers = Counter(id(p) for node in tape for p in node._parents)
    assert max(consumers.values()) <= 2
    assert len(tape) == TAPE_SIZE[key]


@pytest.mark.parametrize("key", list(TAPE_SIZE))
def test_training_step_builds_only_tape_nodes(city, key):
    # A plain array is the only constant: features, masks, counts and
    # dropout masks stay plain, so every Var one step builds is on its tape.
    with counting_vars() as made:
        _training_step_loss(city, key)
    assert len(made) == TAPE_SIZE[key]


# ---------------------------------------------------------------- sampler


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
    budget = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return g, nodes, budget, draw(st.integers(0, 2**32 - 1))


def check_batch_invariants(g, nodes, budget, batch):
    """The layout, padding and mask rules every sampled batch obeys."""
    k1, k2 = budget[0], budget[1]
    width = max(k1, k2)
    b = len(nodes)
    assert batch.rows.shape == (b, 1 + k1) and batch.rows.dtype == np.intp
    assert batch.neighbors.shape == batch.mask.shape == (b, 1 + k1, width)
    assert batch.neighbors.dtype == np.intp and batch.mask.dtype == np.float64
    assert np.array_equal(batch.mask1, batch.mask[:, 0, :k1])
    assert np.array_equal(batch.rows[:, 0], np.asarray(nodes, dtype=np.intp))
    assert np.all((batch.rows >= 0) & (batch.rows < g.n_nodes))
    assert np.all((batch.neighbors >= 0) & (batch.neighbors < g.n_nodes))
    for i in range(b):
        for r in range(1 + k1):
            live = int(batch.mask[i, r].sum())
            # live slots come first, every mask is 0 or 1
            assert batch.mask[i, r].tolist() == [1.0] * live + [0.0] * (width - live)
            picked = batch.neighbors[i, r, :live].tolist()
            node = int(batch.rows[i, r])
            assert len(set(picked)) == live and set(picked) <= set(g.adjacency[node])
            if r == 0:
                assert live == min(len(g.adjacency[node]), k1)
                assert batch.rows[i, 1 : 1 + live].tolist() == picked
                assert not batch.rows[i, 1 + live :].any()  # padded hop-1 slots hold node 0
            elif batch.mask1[i, r - 1]:
                assert live == min(len(g.adjacency[node]), k2)
            else:
                assert live == 0


@given(graphs_and_batches())
@settings(max_examples=300, deadline=None)
def test_sample_batch_matches_per_element_loop(case):
    # The draws differ from the per-element loop's, but the layout, the
    # padding and the target rows' masks are the same.
    g, nodes, budget, seed = case
    want = reference_sample_batch(g, nodes, budget, np.random.default_rng(seed))
    batch = sample_with_rng(g, nodes, budget, np.random.default_rng(seed))
    check_batch_invariants(g, nodes, budget, want)
    check_batch_invariants(g, nodes, budget, batch)
    assert np.array_equal(batch.mask[:, 0], want.mask[:, 0])
