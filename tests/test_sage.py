"""Graph model: aggregator algebra, batched forward pass, and closed-loop
autoregressive rollout through `closed_loop_predict`."""

import gc
import itertools
import json
import sys
from datetime import datetime, timezone

import numpy as np
import pytest

from virtualsensor import (
    AggregatorKind,
    Dataset,
    SageConfig,
    SensorLocation,
    SpatialGraph,
    closed_loop_predict,
    prepare,
)
from virtualsensor.dataset import N_FEATURES, PREV_NO2
from virtualsensor.errors import SchemaError
from virtualsensor.nncore import initialize, mse_loss, wrap_params
from virtualsensor.pipeline import (
    DEFAULT_MODEL_CONFIGS,
    TrainConfig,
    TrainedModel,
    _model_inputs,
    _training_rows,
    train,
)
from virtualsensor.sage import sage_forward_batch, sample_batch

from probes import (
    aggregate,
    attention_weights,
    counting_vars,
    grad_check,
    reference_forward_two_pass,
    sage_dropout_masks,
    sample_with_rng,
    tape_nodes,
)

ALL_KINDS = list(AggregatorKind)
UTC = timezone.utc


def params_for(kind, d=6, hidden=(4, 4), seed=0):
    cfg = SageConfig(aggregator=kind, hidden=hidden, dropout=0.0)
    return cfg, initialize(cfg.param_shapes(d), np.random.default_rng(seed))


def forward_one(params, cfg, g, feats, node, rng):
    """Sampled forward pass for a single node, as a float."""
    batch = sample_with_rng(g, [node], cfg.budget, rng)
    return float(sage_forward_batch(wrap_params(params), cfg, feats, batch).value[0])


def closed_loop(params, cfg, g, ds, node, init_value):
    """The sage model's closed-loop series for one node, rng seeded with 0."""
    return closed_loop_predict(TrainedModel(TrainConfig(), cfg, params, ds.stats), g, ds,
                               node, init_value, rng=np.random.default_rng(0))


def triangle_graph(n=3):
    """Fully connected small graph; degrees stay within the default budget,
    so neighborhood sampling is deterministic."""
    adj = tuple(tuple(v for v in range(n) if v != u) for u in range(n))
    return SpatialGraph(n_nodes=n, adjacency=adj)


def small_dataset(T=30, n=3, seed=0, censor=None):
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, size=(T, n, N_FEATURES))
    targets = rng.uniform(10.0, 40.0, size=(T, n))
    if censor is not None:
        targets[:, censor] = np.nan
    locs = tuple(
        SensorLocation(f"S{i}", 51.4 + 0.01 * i, -2.6 + 0.01 * i, 10.0) for i in range(n)
    )
    ds = Dataset(
        locations=locs,
        start=datetime(2021, 1, 1, tzinfo=UTC),
        features=features,
        targets=targets,
    )
    return prepare(ds)


# ---------------------------------------------------------------- parameters


def test_init_params_all_two_dimensional():
    for kind in ALL_KINDS:
        _, params = params_for(kind)
        for name, value in params.items():
            assert value.ndim == 2, name


def test_init_params_expected_keys():
    _, p = params_for(AggregatorKind.MEAN)
    assert set(p) == {"l1.w_self", "l1.w_neigh", "l2.w_self", "l2.w_neigh", "head.w", "head.b"}
    _, p = params_for(AggregatorKind.MEAN_POOL)
    assert "l1.w_pool" in p and "l1.b_pool" in p
    _, p = params_for(AggregatorKind.ATTENTIONAL)
    assert p["l1.attn"].shape == (1, 8)  # [1, 2 * hidden]


def test_config_validation():
    with pytest.raises(SchemaError):
        SageConfig(hidden=(0, 4))
    with pytest.raises(SchemaError):
        SageConfig(dropout=1.0)


def test_sage_config_budget_is_two_ints_of_at_least_one():
    assert SageConfig().budget == (3, 5)
    assert json.loads(json.dumps(SageConfig(budget=(1, 4)).to_dict()))["budget"] == [1, 4]
    for budget in [(3,), (3, 5, 7), (0, 5), (3, -1), (3.5, 5), (3, 5.0), (True, 5), ("3", 5)]:
        with pytest.raises(SchemaError, match="budget"):
            SageConfig(budget=budget)


# ---------------------------------------------------------------- aggregators


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_aggregator_permutation_invariance_exhaustive(kind):
    # All 120 orderings of 5 neighbors must agree.
    rng = np.random.default_rng(1)
    _, params = params_for(kind)
    self_feat = rng.normal(size=6)
    neighbors = [rng.normal(size=6) for _ in range(5)]
    base = aggregate(kind, self_feat, neighbors, params)
    for perm in itertools.permutations(range(5)):
        out = aggregate(kind, self_feat, [neighbors[i] for i in perm], params)
        assert np.allclose(out, base, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_aggregator_empty_neighborhood_zero_vector(kind):
    rng = np.random.default_rng(2)
    _, params = params_for(kind)
    out = aggregate(kind, rng.normal(size=6), [], params)
    assert np.allclose(out, 0.0)
    # the width of a non-empty result: input dim for mean, hidden dim otherwise
    assert out.shape == aggregate(kind, rng.normal(size=6), rng.normal(size=(2, 6)), params).shape
    assert out.shape == ((6,) if kind is AggregatorKind.MEAN else (4,))


def test_mean_aggregator_is_plain_average():
    _, params = params_for(AggregatorKind.MEAN)
    neighbors = [np.array([2.0, 0, 0, 0, 0, 0]), np.array([4.0, 0, 0, 0, 0, 0])]
    out = aggregate(AggregatorKind.MEAN, np.zeros(6), neighbors, params)
    assert out[0] == pytest.approx(3.0)
    assert np.allclose(out[1:], 0.0)


def test_pool_aggregators_agree_on_single_neighbor():
    # With one neighbor, max-pooling and mean-pooling are the same function.
    rng = np.random.default_rng(3)
    cfg, params = params_for(AggregatorKind.MEAN_POOL)
    self_feat = rng.normal(size=6)
    neigh = [rng.normal(size=6)]
    a = aggregate(AggregatorKind.MEAN_POOL, self_feat, neigh, params)
    b = aggregate(AggregatorKind.MAX_POOL, self_feat, neigh, params)
    assert np.allclose(a, b, atol=1e-12)


def test_pool_aggregator_output_bounded_by_sigmoid():
    rng = np.random.default_rng(4)
    _, params = params_for(AggregatorKind.MAX_POOL)
    out = aggregate(AggregatorKind.MAX_POOL, rng.normal(size=6), rng.normal(size=(4, 6)), params)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_aggregate_rejects_width_mismatch():
    _, params = params_for(AggregatorKind.MEAN)
    with pytest.raises(SchemaError):
        aggregate(AggregatorKind.MEAN, np.zeros(6), np.zeros((2, 5)), params)


# ---------------------------------------------------------------- attention


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(5)
    _, params = params_for(AggregatorKind.ATTENTIONAL)
    self_x = rng.normal(size=(3, 6))
    neigh_x = rng.normal(size=(3, 4, 6))
    mask = np.ones((3, 4))
    mask[1, 2:] = 0.0  # row with only 2 live neighbors
    alpha = attention_weights(params, 1, AggregatorKind.ATTENTIONAL, self_x, neigh_x, mask)
    assert alpha.shape == (3, 4)
    assert np.all(alpha >= 0.0)
    sums = alpha.sum(axis=-1)
    assert abs(sums[0] - 1.0) < 1e-12
    assert abs(sums[1] - 1.0) < 1e-12
    assert np.allclose(alpha[1, 2:], 0.0)  # padded slots carry no weight


def test_attention_weights_empty_row_all_zero():
    rng = np.random.default_rng(6)
    _, params = params_for(AggregatorKind.ATTENTIONAL)
    alpha = attention_weights(
        params, 1, AggregatorKind.ATTENTIONAL,
        rng.normal(size=(1, 6)), rng.normal(size=(1, 3, 6)), np.zeros((1, 3)),
    )
    assert np.allclose(alpha, 0.0)


def test_attention_weights_wrong_kind_rejected():
    _, params = params_for(AggregatorKind.MEAN)
    with pytest.raises(SchemaError):
        attention_weights(params, 1, AggregatorKind.MEAN, np.zeros((1, 6)),
                          np.zeros((1, 2, 6)), np.ones((1, 2)))


# ---------------------------------------------------------------- batching


def test_sample_batch_padding_and_masks():
    g = SpatialGraph(n_nodes=4, adjacency=((1, 2, 3), (0,), (0,), (0,)))
    batch = sample_with_rng(g, [0, 1], (3, 5), np.random.default_rng(0))
    assert batch.rows.shape == (2, 4) and batch.neighbors.shape == batch.mask.shape == (2, 4, 5)
    assert batch.rows[:, 0].tolist() == [0, 1]
    assert batch.mask1.tolist() == [[1, 1, 1], [1, 0, 0]]  # node 1 has 1 neighbor, padded
    assert np.array_equal(batch.mask1, batch.mask[:, 0, :3])
    assert batch.mask[:, 0, 3:].sum() == 0  # the target's row is padded past k1
    # node 0's hop-1 slots each have one neighbor (node 0); node 1's one
    # live slot has node 0's three; its padded slots have none
    assert batch.mask[0, 1:].sum(axis=-1).tolist() == [1, 1, 1]
    assert batch.mask[1, 1:].sum(axis=-1).tolist() == [3, 0, 0]
    assert sorted(batch.rows[0, 1:].tolist()) == [1, 2, 3]
    assert batch.rows[1, 1:].tolist() == [0, 0, 0]
    assert sorted(batch.neighbors[1, 1, :3].tolist()) == [1, 2, 3]


def test_sample_batch_budget_saturation():
    # Node with 10 neighbors: exactly budget[0] sampled, all distinct.
    adj0 = tuple(range(1, 11))
    g = SpatialGraph(n_nodes=11, adjacency=(adj0,) + tuple((0,) for _ in range(10)))
    batch = sample_with_rng(g, [0], (3, 5), np.random.default_rng(9))
    live = batch.rows[0, 1:][batch.mask1[0] == 1.0]
    assert len(live) == 3 == len(set(live.tolist()))
    assert np.array_equal(batch.neighbors[0, 0, :3], batch.rows[0, 1:])


def test_sample_batch_inclusion_rates_match_budget_over_degree():
    # Complete graph on 8 nodes: every node has degree 7, so each neighbor
    # of a target is drawn at hop 1 with probability 3/7, and each neighbor
    # of a live hop-1 slot at hop 2 with probability 5/7. Over 600 draws per
    # target every per-pair rate stays within 5 binomial standard errors.
    n, draws, budget = 8, 600, (3, 5)
    g = SpatialGraph(n_nodes=n, adjacency=tuple(
        tuple(v for v in range(n) if v != u) for u in range(n)))
    batch = sample_with_rng(g, np.repeat(np.arange(n), draws), budget, np.random.default_rng(4))
    hop1 = np.zeros((n, n))
    np.add.at(hop1, (batch.rows[:, :1], batch.rows[:, 1:]), batch.mask1)
    hop2, seen = np.zeros((n, n)), np.zeros(n)
    np.add.at(hop2, (batch.rows[:, 1:, None], batch.neighbors[:, 1:]), batch.mask[:, 1:])
    np.add.at(seen, batch.rows[:, 1:], batch.mask1)
    off_diagonal = ~np.eye(n, dtype=bool)
    for counts, trials, p in ((hop1, np.full(n, draws), 3 / 7), (hop2, seen, 5 / 7)):
        rate = counts / trials[:, None]
        bound = 5.0 * np.sqrt(p * (1 - p) / trials)[:, None]
        assert np.all(np.abs(rate - p)[off_diagonal] <= np.broadcast_to(bound, (n, n))[off_diagonal])
        assert np.all(np.diag(counts) == 0)  # never a self-loop


@pytest.mark.parametrize("nodes", [[3], [-1], [0, -3], [99]])
def test_sample_batch_rejects_node_outside_graph(nodes):
    with pytest.raises(SchemaError):
        sample_with_rng(triangle_graph(), nodes, (3, 5), np.random.default_rng(0))


def test_sample_batch_isolated_node_all_zero_mask():
    g = SpatialGraph(n_nodes=3, adjacency=((1,), (0,), ()))
    batch = sample_with_rng(g, [2, 0], (2, 3), np.random.default_rng(0))
    assert not batch.mask[0].any() and not batch.mask1[0].any()
    assert batch.mask1[1].tolist() == [1, 0] and batch.mask[1, 1].tolist() == [1, 0, 0]
    g_empty = SpatialGraph(n_nodes=2, adjacency=((), ()))
    batch = sample_with_rng(g_empty, [0, 1], (2, 3), np.random.default_rng(0))
    assert batch.mask.shape == (2, 3, 3) and not batch.mask.any()


def test_sample_batch_seeded_draws_repeat():
    g = SpatialGraph(n_nodes=11, adjacency=(tuple(range(1, 11)),) + ((0,),) * 10)
    a = sample_with_rng(g, [0, 0, 3], (3, 5), np.random.default_rng(42))
    b = sample_with_rng(g, [0, 0, 3], (3, 5), np.random.default_rng(42))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_batch_rejects_keys_of_another_shape():
    g = triangle_graph()
    width = g.neighbors.shape[1]
    for keys in (np.zeros((2, 4, width + 1)), np.zeros((1, 4, width)), np.zeros((2, 3, width))):
        with pytest.raises(SchemaError, match="sampler keys"):
            sample_batch(g, [0, 1], (3, 5), keys)


def test_sample_batch_over_many_steps_matches_each_step():
    # Each target reads only its own keys, so one call over the targets of
    # several steps gives every step the sample its own call gives.
    g = random_graph()
    rng = np.random.default_rng(5)
    steps = [np.array([0, 3]), np.array([8]), np.array([2, 4, 5, 3])]
    keys = [rng.random((len(nodes), 4, g.neighbors.shape[1])) for nodes in steps]
    whole = sample_batch(g, np.concatenate(steps), (3, 5), np.concatenate(keys))
    start = 0
    for nodes, step_keys in zip(steps, keys):
        one = sample_batch(g, nodes, (3, 5), step_keys)
        assert all(np.array_equal(a[start : start + len(nodes)], b) for a, b in zip(whole, one))
        start += len(nodes)


def test_draws_leave_the_tuple_free_lists_flat():
    # CPython builds a tuple from a generator by resizing a larger one, and
    # once freed it joins a free list of up to 2000 tuples per size. Built
    # that way, each step's batch grew the free list over the first
    # leave-one-out passes and raised the peak RSS.
    g, steps = random_graph(), [np.array([0, 3])] * 3000
    gc.collect()  # a full collection empties the free lists
    before = sys.getallocatedblocks()
    for _ in SageConfig().draws(g, steps, "train", np.random.default_rng(0)):
        pass
    assert sys.getallocatedblocks() - before < 1000


# ---------------------------------------------------------------- forward pass


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_forward_eval_deterministic(kind):
    cfg, params = params_for(kind, d=19)
    g = triangle_graph()
    feats = np.random.default_rng(0).normal(size=(3, 19))
    a = forward_one(params, cfg, g, feats, 0, np.random.default_rng(1))
    b = forward_one(params, cfg, g, feats, 0, np.random.default_rng(1))
    assert a == b
    assert np.isfinite(a)


def test_forward_rejects_nonfinite_features():
    cfg, params = params_for(AggregatorKind.MEAN, d=19)
    g = triangle_graph()
    feats = np.zeros((3, 19))
    feats[1, 4] = np.nan
    with pytest.raises(SchemaError):
        forward_one(params, cfg, g, feats, 0, np.random.default_rng(0))


def test_forward_batch_matches_single():
    cfg, params = params_for(AggregatorKind.MEAN_POOL, d=19)
    g = triangle_graph()
    feats = np.random.default_rng(2).normal(size=(3, 19))
    batch = sample_with_rng(g, [0, 1, 2], cfg.budget, np.random.default_rng(0))
    out = sage_forward_batch(wrap_params(params), cfg, feats, batch).value
    for node in range(3):
        single = forward_one(params, cfg, g, feats, node, np.random.default_rng(0))
        assert out[node] == pytest.approx(single, rel=1e-12)


def random_graph(n=9, p=0.45, seed=0):
    """Undirected graph with node degrees above, at and below small budgets;
    the last node is isolated."""
    rng = np.random.default_rng(seed)
    adj = [set() for _ in range(n)]
    for u, v in itertools.combinations(range(n - 1), 2):
        if rng.random() < p:
            adj[u].add(v)
            adj[v].add(u)
    return SpatialGraph(n_nodes=n, adjacency=tuple(tuple(sorted(s)) for s in adj))


@pytest.mark.parametrize("per_hop", [(2, 4), (3, 3), (5, 2)], ids=["k1<k2", "k1==k2", "k1>k2"])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_one_pass_layer1_matches_two_pass_reference(kind, per_hop):
    # Layer 1 over the targets and hop-1 slots together computes what the
    # two separate passes computed, up to rounding.
    cfg = SageConfig(aggregator=kind, hidden=(4, 3), budget=per_hop, dropout=0.0)
    rng = np.random.default_rng(1)
    params = initialize(cfg.param_shapes(6), rng)
    params = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in params.items()}
    g = random_graph()
    assert g.degree.tolist() == [3, 1, 3, 6, 2, 3, 3, 1, 0]
    feats = rng.normal(size=(g.n_nodes, 6))
    batch = sample_with_rng(g, np.arange(g.n_nodes), cfg.budget, rng)
    for mode in ("eval", "train"):
        got = sage_forward_batch(params, cfg, feats, batch, mode=mode)
        want = reference_forward_two_pass(params, cfg, feats, batch, mode=mode)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_forward_over_constant_params_records_no_tape(kind):
    # Over the plain parameter arrays the forward builds no Var at all and
    # returns an array with the bits of the tape forward's value.
    cfg = SageConfig(aggregator=kind, hidden=(3, 3), dropout=0.5)
    params = initialize(cfg.param_shapes(5), np.random.default_rng(0))
    g, feats = triangle_graph(), np.random.default_rng(1).normal(size=(3, 5))
    batch = sample_with_rng(g, [0, 1, 2], cfg.budget, np.random.default_rng(2))
    for mode in ("eval", "train"):
        taped = sage_forward_batch(wrap_params(params), cfg, feats, batch,
                                   *sage_dropout_masks(cfg, 3, np.random.default_rng(3)),
                                   mode=mode)
        with counting_vars() as made:
            out = sage_forward_batch(params, cfg, feats, batch,
                                     *sage_dropout_masks(cfg, 3, np.random.default_rng(3)),
                                     mode=mode)
        assert made == [] and type(out) is np.ndarray
        assert out.tobytes() == taped.value.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_training_backward_leaves_data_without_grad(kind):
    # The gathered features enter as plain arrays; the tape's leaves are
    # exactly the parameters, so no feature, mask, count or dropout mask is
    # on it.
    cfg = SageConfig(aggregator=kind, hidden=(3, 3), dropout=0.5)
    params = initialize(cfg.param_shapes(5), np.random.default_rng(0))
    g, feats = triangle_graph(), np.random.default_rng(1).normal(size=(3, 5))
    batch = sample_with_rng(g, [0, 1, 2], cfg.budget, np.random.default_rng(2))
    pvars = wrap_params(params)
    out = sage_forward_batch(pvars, cfg, feats, batch,
                             *sage_dropout_masks(cfg, 3, np.random.default_rng(3)), mode="train")
    loss = mse_loss(out, np.ones(3))
    loss.backward()
    tape = tape_nodes(loss)
    assert {id(node) for node in tape if not node._parents} == {id(v) for v in pvars.values()}
    assert all(v.grad is not None for v in pvars.values())


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_forward_gradients_finite_difference(kind):
    cfg = SageConfig(aggregator=kind, hidden=(3, 3), dropout=0.5)
    rng = np.random.default_rng(0)
    params = initialize(cfg.param_shapes(5), rng)
    # jitter away from the zero-bias relu kink where subgradients are ambiguous
    params = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in params.items()}
    g = triangle_graph()
    feats = rng.normal(size=(3, 5))
    batch = sample_with_rng(g, [0, 1], cfg.budget, rng)
    y = rng.normal(size=2)

    def f(p):  # a freshly seeded generator draws the same dropout masks each call
        out = sage_forward_batch(p, cfg, feats, batch,
                                 *sage_dropout_masks(cfg, 2, np.random.default_rng(7)),
                                 mode="train")
        return mse_loss(out, y)

    assert grad_check(f, params) < 1e-4


# ---------------------------------------------------------------- training rows


def test_training_rows_skip_frame_zero_and_absent():
    ds = small_dataset(T=5, n=3, censor=2)
    rows = _training_rows(ds)
    assert not rows[0].any()
    assert not rows[:, 2].any()  # censored sensor contributes nothing
    assert rows.sum() == 4 * 2


@pytest.mark.parametrize("kind", list(DEFAULT_MODEL_CONFIGS))
def test_graph_size_check(kind):
    ds = small_dataset(T=4, n=3)
    cfg = TrainConfig(epochs=1, model=kind)
    with pytest.raises(SchemaError, match="graph has 4 nodes for 3 sensors"):
        train(ds, triangle_graph(4), cfg)
    trained = train(ds, triangle_graph(3), cfg)
    with pytest.raises(SchemaError, match="graph has 4 nodes for 3 sensors"):
        closed_loop_predict(trained, triangle_graph(4), ds, 0, 1.0, np.random.default_rng(0))


def test_model_inputs_finite():
    # Every non-finite feature becomes the standardized column mean 0.0.
    ds = small_dataset(T=4, n=3, censor=1)
    ds.features[:, 1, :11] = np.nan  # the absent sensor's readings
    ds.features[2, 0, 3] = -np.inf
    feats = _model_inputs(ds, triangle_graph())
    bad = ~np.isfinite(ds.features)
    assert np.all(feats[bad] == 0.0)
    assert np.array_equal(feats[~bad], ds.features[~bad])


# ---------------------------------------------------------------- rollout (closed_loop_predict)


def test_rollout_shape_and_finiteness():
    ds = small_dataset(T=20, n=3, censor=0)
    cfg, params = params_for(AggregatorKind.MEAN_POOL, d=19)
    preds = closed_loop(params, cfg, triangle_graph(), ds, 0, 25.0)
    assert preds.shape == (19,)
    assert np.all(np.isfinite(preds))


def test_rollout_first_step_matches_manual_forward():
    # One-step consistency: the t=1 prediction equals a forward pass with the
    # standardized init value planted in the autoregressive slot.
    ds = small_dataset(T=6, n=3)
    cfg, params = params_for(AggregatorKind.MEAN, d=19)
    g = triangle_graph()
    init = 30.0
    preds = closed_loop(params, cfg, g, ds, 1, init)
    ar = PREV_NO2
    feats = ds.features[1].copy()
    feats[1, ar] = ds.stats.transform_column(ar, init)
    manual = forward_one(params, cfg, g, feats, 1, np.random.default_rng(0))
    assert preds[0] == pytest.approx(manual, rel=1e-12)


def test_rollout_feeds_back_own_prediction():
    # Corrupting the actual targets of the held-out node must not change the
    # rollout: the loop never consults them after the init.
    ds = small_dataset(T=15, n=3)
    cfg, params = params_for(AggregatorKind.MEAN_POOL, d=19)
    g = triangle_graph()
    a = closed_loop(params, cfg, g, ds, 2, 20.0)
    poisoned = ds.targets.copy()
    poisoned[:, 2] = np.nan  # NaN tracer: any read would poison the output
    from dataclasses import replace

    ds2 = replace(ds, targets=poisoned)
    b = closed_loop(params, cfg, g, ds2, 2, 20.0)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(b))


def test_rollout_constant_model_fixed_point():
    # A model with zero weights predicts bias everywhere; feeding that back
    # keeps the series exactly constant.
    cfg = SageConfig(aggregator=AggregatorKind.MEAN, hidden=(4, 4), dropout=0.0)
    params = initialize(cfg.param_shapes(19), np.random.default_rng(0))
    params = {k: np.zeros_like(v) for k, v in params.items()}
    params["head.b"] = np.array([[7.25]])
    ds = small_dataset(T=12, n=3)
    preds = closed_loop(params, cfg, triangle_graph(), ds, 0, 99.0)
    assert np.allclose(preds, 7.25)


def test_rollout_requires_standardized_dataset():
    ds = small_dataset(T=8, n=3)
    from dataclasses import replace

    raw = replace(ds, stats=None)
    cfg, params = params_for(AggregatorKind.MEAN, d=19)
    with pytest.raises(SchemaError):
        closed_loop(params, cfg, triangle_graph(), raw, 0, 1.0)


def test_rollout_node_index_check():
    ds = small_dataset(T=8, n=3)
    cfg, params = params_for(AggregatorKind.MEAN, d=19)
    with pytest.raises(SchemaError):
        closed_loop(params, cfg, triangle_graph(), ds, 7, 1.0)


def test_rollout_rejects_nonfinite_init():
    ds = small_dataset(T=8, n=3)
    cfg, params = params_for(AggregatorKind.MEAN, d=19)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(SchemaError, match="not finite"):
            closed_loop(params, cfg, triangle_graph(), ds, 0, value)
