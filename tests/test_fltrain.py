import dataclasses
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpricing import _blas
from fedpricing import fltrain
from fedpricing.calibrate import estimate_grad_bounds
from fedpricing.core import FederatedDataset, ParticipationVector, make_population
from fedpricing.data import gen_synthetic
from fedpricing.fltrain import (
    TrainConfig,
    aggregate,
    global_loss,
    learning_rate_schedule,
    local_sgd,
    loss_and_grad,
    sample_participants,
    theoretical_lr,
    train,
    train_runs,
)
from fedpricing.fltrain import test_accuracy as accuracy_of

import oracles


def tiny_dataset(seed=0, n_clients=3):
    return gen_synthetic(
        n_clients=n_clients, dim=5, n_classes=3, alpha=1.0, beta=1.0,
        total_samples=60, seed=seed,
    )


# ---------------------------------------------------------------- model math


def test_loss_and_grad_uniform_at_zero_weights():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 3, size=20)
    w = np.zeros((3, 5))
    loss, grad = loss_and_grad(w, x, y, l2=0.0)
    assert loss == pytest.approx(np.log(3.0))
    assert grad.shape == (3, 5)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(15, 4))
    y = rng.integers(0, 3, size=15)
    w = rng.normal(size=(3, 5)) * 0.3
    _, grad = loss_and_grad(w, x, y, l2=0.01)
    h = 1e-6
    for _ in range(20):
        i, j = rng.integers(0, 3), rng.integers(0, 5)
        wp, wm = w.copy(), w.copy()
        wp[i, j] += h
        wm[i, j] -= h
        lp, _ = loss_and_grad(wp, x, y, l2=0.01)
        lm, _ = loss_and_grad(wm, x, y, l2=0.01)
        assert (lp - lm) / (2 * h) == pytest.approx(grad[i, j], rel=1e-5, abs=1e-8)


def test_full_batch_local_sgd_decreases_loss():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    w = np.zeros((3, 5))
    before, _ = loss_and_grad(w, x, y, l2=0.0)
    w2 = local_sgd(w, (x, y), local_steps=20, batch=None, lr=0.2, l2=0.0, rng=rng)
    after, _ = loss_and_grad(w2, x, y, l2=0.0)
    assert after < before
    assert np.array_equal(w, np.zeros((3, 5)))  # input not mutated


def test_local_sgd_zero_steps_is_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    w = rng.normal(size=(3, 5))
    out = local_sgd(w, (x, y), local_steps=0, batch=4, lr=0.1, l2=0.0, rng=rng)
    assert np.array_equal(out, w)


# ---------------------------------------------------------------- sampling/aggregation


def test_sample_participants_extremes():
    rng = np.random.default_rng(4)
    assert sample_participants([1.0, 1.0], rng) == [0, 1]
    assert sample_participants([0.0, 0.0], rng) == []


def test_sample_participants_frequency():
    rng = np.random.default_rng(5)
    q = [0.3, 0.8]
    counts = np.zeros(2)
    trials = 20_000
    for _ in range(trials):
        for n in sample_participants(q, rng):
            counts[n] += 1
    freq = counts / trials
    assert freq[0] == pytest.approx(0.3, abs=0.01)
    assert freq[1] == pytest.approx(0.8, abs=0.01)


def test_aggregate_full_participation_is_weighted_average():
    profiles = make_population([1, 3], [1, 1], [1, 1], [0, 0], [1, 1])
    w_prev = np.zeros((2, 2))
    updates = {0: np.full((2, 2), 4.0), 1: np.full((2, 2), 8.0)}
    q = [1.0, 1.0]
    out = aggregate(w_prev, updates, q, profiles)
    # 0.25*4 + 0.75*8 = 7
    assert np.allclose(out, 7.0)


def test_aggregate_empty_set_is_identity():
    profiles = make_population([1], [1], [1], [0], [1])
    w_prev = np.ones((2, 2))
    out = aggregate(w_prev, {}, [0.5], profiles)
    assert np.array_equal(out, w_prev)


def test_aggregate_rejects_zero_probability_update():
    profiles = make_population([1], [1], [1], [0], [1])
    with pytest.raises(ValueError, match="client 0"):
        aggregate(np.zeros((1, 1)), {0: np.ones((1, 1))}, [0.0], profiles)


def test_aggregate_inverse_probability_scaling():
    profiles = make_population([1, 1], [1, 1], [1, 1], [0, 0], [1, 1])
    w_prev = np.zeros((1, 1))
    q = [0.5, 1.0]
    out = aggregate(w_prev, {0: np.array([[2.0]])}, q, profiles)
    # a_0/q_0 = 0.5/0.5 = 1 times the delta 2.
    assert out[0, 0] == pytest.approx(2.0)


# ---------------------------------------------------------------- training loop


def test_train_is_deterministic_per_seed():
    ds = tiny_dataset()
    cfg = TrainConfig(local_steps=3, batch=8, rounds=10, seed=7,
                      participation=[0.7, 0.8, 0.9])
    m1 = train(ds, cfg)
    m2 = train(ds, cfg)
    assert [m.loss for m in m1] == [m.loss for m in m2]
    assert [m.participants for m in m1] == [m.participants for m in m2]
    m3 = train(ds, TrainConfig(local_steps=3, batch=8, rounds=10, seed=8,
                               participation=cfg.participation))
    assert [m.participants for m in m1] != [m.participants for m in m3]


def test_train_reduces_loss():
    ds = tiny_dataset()
    cfg = TrainConfig(local_steps=5, batch=8, rounds=40, seed=0, eta0=0.3,
                      participation=[1.0, 1.0, 1.0])
    metrics = train(ds, cfg)
    assert metrics[-1].loss < metrics[0].loss
    assert metrics[-1].loss < np.log(3.0)


def test_train_requires_participation():
    ds = tiny_dataset()
    with pytest.raises(ValueError, match="participation"):
        train(ds, TrainConfig(rounds=1))


def test_train_participation_length_checked():
    ds = tiny_dataset()
    with pytest.raises(ValueError, match="3 clients"):
        train(ds, TrainConfig(rounds=1, participation=[1.0]))


def test_eval_stride_thins_metrics_but_keeps_last_round():
    ds = tiny_dataset()
    cfg = TrainConfig(local_steps=1, batch=4, rounds=10, eval_stride=4, seed=0,
                      participation=[1.0, 1.0, 1.0])
    metrics = train(ds, cfg)
    assert [m.round_index for m in metrics] == [3, 7, 9]


def test_sim_time_accumulates_monotonically():
    ds = tiny_dataset()
    cfg = TrainConfig(local_steps=2, batch=4, rounds=8, seed=1,
                      participation=[0.5, 0.5, 0.5])
    metrics = train(ds, cfg)
    times = [m.sim_time for m in metrics]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[0] >= cfg.sim_t_base


def test_zero_participation_rounds_leave_model_at_init():
    ds = tiny_dataset()
    cfg = TrainConfig(local_steps=2, batch=4, rounds=5, seed=0,
                      participation=[0.0, 0.0, 0.0])
    metrics, states = train(ds, cfg, record_states=True)
    assert all(np.array_equal(s, np.zeros_like(s)) for s in states)
    assert all(m.participants == () for m in metrics)


def test_theoretical_schedule_decreases():
    lrs = [theoretical_lr(r, smoothness=2.0, mu=0.01, local_steps=5) for r in range(50)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert lrs[0] == pytest.approx(2.0 / 16.0)


def test_theoretical_schedule_trains():
    ds = tiny_dataset()
    cfg = TrainConfig(local_steps=3, batch=8, rounds=30, seed=0,
                      lr_schedule="theoretical", l2=1e-3,
                      participation=[1.0, 1.0, 1.0])
    metrics = train(ds, cfg)
    assert metrics[-1].loss < metrics[0].loss


def test_theoretical_schedule_estimates_smoothness_once(monkeypatch):
    import fedpricing.fltrain as fltrain

    calls = []
    real = fltrain.estimate_smoothness
    monkeypatch.setattr(fltrain, "estimate_smoothness", lambda *a: calls.append(a) or real(*a))
    cfg = TrainConfig(local_steps=2, batch=8, rounds=12, seed=0, lr_schedule="theoretical",
                      participation=[1.0, 1.0, 1.0])
    train(tiny_dataset(), cfg)
    assert len(calls) == 1


def test_global_loss_weighted_by_datasize():
    x0 = np.zeros((1, 2))
    x1 = np.zeros((3, 2))
    y0 = np.array([0])
    y1 = np.array([1, 1, 1])
    ds = FederatedDataset.from_shards(
        shards=((x0, y0), (x1, y1)),
        test_features=np.zeros((0, 2)), test_labels=np.zeros((0,), dtype=np.int64),
        n_classes=2, dim=2,
    )
    w = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])  # bias favors class 0
    expected = 0.25 * loss_and_grad(w, x0, y0, 0.0)[0] + 0.75 * loss_and_grad(w, x1, y1, 0.0)[0]
    assert global_loss(w, ds) == pytest.approx(expected)


def test_accuracy_counts_argmax_hits():
    w = np.array([[1.0, 0.0], [-1.0, 0.0]])  # predicts class 0 iff feature > 0
    x = np.array([[1.0], [-1.0], [2.0]])
    y = np.array([0, 1, 1])
    assert accuracy_of(w, x, y) == pytest.approx(2.0 / 3.0)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        TrainConfig(rounds=0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule="linear")
    with pytest.raises(ValueError):
        TrainConfig(local_steps=-1)
    for key, value, rule in [("eta0", 0.0, "positive"), ("eta0", -1.0, "positive"),
                             ("decay", 0.0, "positive"), ("decay", -0.5, "positive"),
                             ("sim_t_base", -1.0, "nonnegative"),
                             ("sim_t_comp", -0.001, "nonnegative")]:
        with pytest.raises(ValueError, match=f"^{key} must be {rule}, got {value}$"):
            TrainConfig(**{key: value})


def test_a_config_holds_its_levels_as_a_read_only_float_array():
    cfg = TrainConfig(participation=[0.5, 1.0])
    levels = cfg.participation
    assert isinstance(levels, np.ndarray) and levels.dtype == float and levels.shape == (2,)
    assert not levels.flags.writeable
    assert cfg == TrainConfig(participation=np.array([0.5, 1.0]))
    assert cfg != TrainConfig(participation=[0.5, 0.5]) and cfg != TrainConfig()
    assert dataclasses.replace(cfg, seed=3) == TrainConfig(seed=3, participation=(0.5, 1.0))


def test_a_config_takes_a_participation_vector_as_its_levels():
    cfg = TrainConfig(participation=ParticipationVector([0.5, 1.0]))
    assert cfg == TrainConfig(participation=[0.5, 1.0])


@pytest.mark.parametrize("levels", [[0.5, 1.5], [0.5, float("nan")]], ids=["above-1", "nan"])
def test_a_config_rejects_a_level_outside_the_unit_interval(levels):
    message = rf"^client 1: participation probability {levels[1]} outside \[0, 1\]$"
    with pytest.raises(ValueError, match=message):
        TrainConfig(participation=levels)


def test_training_evaluation_and_calibration_read_the_rows_in_place(monkeypatch):
    # Each call's traced peak stays below half the training features, so none
    # of them copies the rows: a pooled copy per call would alone exceed it.
    ds = gen_synthetic(n_clients=20, dim=60, n_classes=10, total_samples=9000, seed=2)
    assert ds.features.nbytes >= 4e6
    monkeypatch.setattr(fltrain._fork, "second_cpu", lambda: False)
    cfg = TrainConfig(local_steps=2, batch=16, rounds=3, participation=np.full(20, 0.5))
    w = np.zeros((10, 61))
    for run in (lambda: train(ds, cfg), lambda: global_loss(w, ds, 1e-4),
                lambda: estimate_grad_bounds(ds, cfg, pilot_rounds=2)):
        run()       # loads anything loaded on first use
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.features.nbytes / 2


def test_the_smoothness_estimate_squares_a_block_of_rows_at_a_time():
    # The largest of these shards holds 46% of the rows: squaring it whole
    # would alone exceed the bound.
    ds = gen_synthetic(n_clients=20, dim=60, n_classes=10, total_samples=9000, seed=2)
    assert ds.features.nbytes >= 4e6
    cfg = TrainConfig(lr_schedule="theoretical")
    learning_rate_schedule(cfg, ds)     # loads anything loaded on first use
    tracemalloc.start()
    try:
        learning_rate_schedule(cfg, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.features.nbytes / 4
    whole = max(float(np.max(np.sum(x**2, axis=1) + 1.0)) for x, _ in ds.shards)
    assert fltrain.estimate_smoothness(ds, 1e-4) == 1e-4 + whole / 4.0


# ---------------------------------------------------------------- stacked kernel against the reference


@st.composite
def datasets(draw):
    n_clients = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 30), min_size=n_clients, max_size=n_clients))
    n_test = draw(st.integers(0, 10))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shards = tuple(
        (scale * rng.normal(size=(d, dim)), rng.integers(0, n_classes, size=d)) for d in sizes
    )
    return FederatedDataset.from_shards(
        shards=shards, test_features=scale * rng.normal(size=(n_test, dim)),
        test_labels=rng.integers(0, n_classes, size=n_test), n_classes=n_classes, dim=dim,
    )


LEVEL = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def assert_same_run(got, ref):
    (metrics, states), (ref_metrics, ref_states) = got, ref
    assert len(states) == len(ref_states)
    for w, w_ref in zip(states, ref_states):
        assert np.array_equal(w, w_ref)
    assert len(metrics) == len(ref_metrics)
    for m, r in zip(metrics, ref_metrics):
        assert (m.round_index, m.participants, m.sim_time) == (r.round_index, r.participants, r.sim_time)
        assert m.accuracy == r.accuracy or (np.isnan(m.accuracy) and np.isnan(r.accuracy))
        assert abs(m.loss - r.loss) <= 1e-13 * abs(r.loss)


@settings(max_examples=80, deadline=None)
@given(
    ds=datasets(),
    data=st.data(),
    local_steps=st.integers(0, 3),
    batch=st.one_of(st.none(), st.integers(1, 9)),
    rounds=st.integers(1, 6),
    eval_stride=st.integers(1, 3),
    schedule=st.sampled_from(["exponential", "theoretical"]),
    l2=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**16),
)
def test_stacked_train_equals_the_per_participant_loop(
    ds, data, local_steps, batch, rounds, eval_stride, schedule, l2, seed
):
    q = data.draw(st.lists(LEVEL, min_size=ds.n_clients, max_size=ds.n_clients))
    cfg = TrainConfig(local_steps=local_steps, batch=batch, rounds=rounds, seed=seed, l2=l2,
                      lr_schedule=schedule, eta0=0.5, participation=q, eval_stride=eval_stride)
    with _blas.one_thread():
        ref = oracles.train(ds, cfg, record_states=True)
    assert_same_run(train(ds, cfg, record_states=True), ref)


def test_stacked_train_equals_the_reference_with_empty_rounds():
    ds = tiny_dataset(n_clients=4)
    cfg = TrainConfig(local_steps=3, batch=5, rounds=12, seed=2,
                      participation=[0.0, 0.2, 0.5, 0.1])
    with _blas.one_thread():
        ref = oracles.train(ds, cfg, record_states=True)
    assert any(m.participants == () for m in ref[0])
    assert any(len(m.participants) > 1 for m in ref[0])
    assert_same_run(train(ds, cfg, record_states=True), ref)


def test_local_sgd_equals_the_reference_step_by_step():
    ds = tiny_dataset()
    w = np.random.default_rng(0).normal(size=(3, 6))
    for batch in (None, 1, 7):
        got = local_sgd(w, ds.shards[1], 4, batch, 0.3, 1e-3, np.random.default_rng(9))
        with _blas.one_thread():
            ref = oracles.local_sgd(w, ds.shards[1], 4, batch, 0.3, 1e-3, np.random.default_rng(9))
        assert np.array_equal(got, ref)


@settings(max_examples=60, deadline=None)
@given(ds=datasets(), l2=st.sampled_from([0.0, 1e-3, 1.0]), seed=st.integers(0, 2**16),
       scale=st.sampled_from([0.0, 0.1, 3.0]))
def test_pooled_global_loss_equals_the_weighted_per_shard_sum(ds, l2, seed, scale):
    w = scale * np.random.default_rng(seed).normal(size=(ds.n_classes, ds.dim + 1))
    expected = oracles.global_loss(w, ds, l2)
    assert abs(global_loss(w, ds, l2) - expected) <= 1e-13 * abs(expected)


# ---------------------------------------------------------------- runs stepped together


def assert_identical_run(got, ref):
    assert_same_run(got, ref)
    assert [m.loss for m in got[0]] == [m.loss for m in ref[0]]


@settings(max_examples=60, deadline=None)
@given(
    ds=datasets(),
    data=st.data(),
    local_steps=st.integers(0, 3),
    batch=st.one_of(st.none(), st.just(1), st.sampled_from([3, 7]), st.just(24)),
    rounds=st.integers(1, 5),
    eval_stride=st.integers(1, 3),
    schedule=st.sampled_from(["exponential", "theoretical"]),
    l2=st.sampled_from([0.0, 1e-3]),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6),
)
def test_train_runs_equal_the_per_participant_loop_run_by_run(
    ds, data, local_steps, batch, rounds, eval_stride, schedule, l2, seeds
):
    levels = st.lists(LEVEL, min_size=ds.n_clients, max_size=ds.n_clients)
    cfgs = [
        TrainConfig(local_steps=local_steps, batch=batch, rounds=rounds, seed=seed, l2=l2,
                    lr_schedule=schedule, eta0=0.5, eval_stride=eval_stride,
                    participation=data.draw(levels))
        for seed in seeds
    ]
    runs = train_runs(ds, cfgs, record_states=True)
    assert len(runs) == len(cfgs)
    for cfg, run in zip(cfgs, runs):
        with _blas.one_thread():
            ref = oracles.train(ds, cfg, record_states=True)
        assert_identical_run(run, ref)
    assert [m.loss for m in train_runs(ds, cfgs)[-1]] == [m.loss for m in runs[-1][0]]


def test_train_runs_rejects_no_configs():
    with pytest.raises(ValueError, match="at least one"):
        train_runs(tiny_dataset(), [])


@pytest.mark.parametrize("change", [
    {"local_steps": 4}, {"batch": None}, {"batch": 9}, {"rounds": 7}, {"l2": 1e-3},
    {"lr_schedule": "theoretical"}, {"eta0": 0.2}, {"decay": 0.9}, {"eval_stride": 2},
    {"sim_t_base": 2.0}, {"sim_t_comp": 0.5},
])
def test_train_runs_rejects_configs_differing_beyond_seed_and_participation(change):
    base = TrainConfig(local_steps=2, batch=4, rounds=3, seed=0,
                       participation=[1.0, 0.5, 0.2])
    other = dataclasses.replace(base, seed=1, participation=[0.3] * 3, **change)
    with pytest.raises(ValueError, match="seed and participation"):
        train_runs(tiny_dataset(), [base, other])


def test_train_runs_checks_every_participation_vector():
    base = TrainConfig(local_steps=1, batch=4, rounds=2, participation=[1.0] * 3)
    with pytest.raises(ValueError, match="3 clients"):
        train_runs(tiny_dataset(), [base, dataclasses.replace(base, participation=[1.0])])
    with pytest.raises(ValueError, match="participation must be set"):
        train_runs(tiny_dataset(), [base, dataclasses.replace(base, participation=None)])


@pytest.mark.parametrize("size,batch,steps", [
    (1, 5, 3), (2, 1, 4), (7, 1, 1), (50, 7, 3), (10**6, 7, 5), (1000, 24, 10), (3, 9, 0),
    (2**40, 3, 2),
])
def test_one_draw_of_e_times_b_consumes_the_stream_as_e_draws_of_b(size, batch, steps):
    for seed in range(12):
        one, many = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (one, many):      # leave half a 64-bit word buffered on some seeds
            rng.integers(0, 5, size=seed % 3)
        got = one.integers(0, size, size=steps * batch).reshape(steps, batch)
        ref = np.array([many.integers(0, size, size=batch) for _ in range(steps)],
                       dtype=got.dtype).reshape(steps, batch)
        assert np.array_equal(got, ref)
        assert one.bit_generator.state == many.bit_generator.state
        assert one.integers(0, 2**20) == many.integers(0, 2**20)


SIZE = st.one_of(st.integers(1, 12), st.integers(1, 10**4),
                 st.sampled_from([2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**62]))


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(SIZE, min_size=1, max_size=40), draws=st.integers(0, 240),
       buffered=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_one_draw_with_a_bound_per_row_consumes_the_stream_as_a_draw_per_row(
    sizes, draws, buffered, seed
):
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (one, many):      # leave half a 64-bit word buffered on some examples
        rng.integers(0, 5, size=buffered)
    got = one.integers(0, np.repeat(sizes, draws))
    ref = np.concatenate([many.integers(0, size, size=draws) for size in sizes])
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert one.bit_generator.state == many.bit_generator.state
    assert one.integers(0, 2**20) == many.integers(0, 2**20)


def _axis_max_cross_entropy(z, y):
    """The row max taken with z.max(axis=1), as the cross-entropy formed it before."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e[np.arange(len(y)), y] / e.sum(axis=1)
    return -np.log(np.maximum(p, 1e-300))


def test_cross_entropy_equals_the_axis_max_formula_bit_for_bit():
    from fedpricing.fltrain import _cross_entropy

    rng = np.random.default_rng(0)
    with np.errstate(all="ignore"):
        for _ in range(200):
            n, c = int(rng.integers(0, 40)), int(rng.integers(1, 12))
            z = rng.normal(size=(n, c)) * rng.choice([1e-3, 1.0, 30.0, 800.0])
            y = rng.integers(0, c, size=n)
            if n:
                u = rng.random(size=(n, c))
                z[u < 0.05] = np.nan
                z[(u >= 0.05) & (u < 0.1)] = -np.inf
                z[(u >= 0.1) & (u < 0.12)] = np.inf
                z[(u >= 0.12) & (u < 0.15)] = -0.0
                z[rng.integers(0, n)] = -np.inf      # a whole row at -inf
                z[rng.integers(0, n)] = np.nan       # a whole row of NaN
            ref = _axis_max_cross_entropy(z, y)
            got = _cross_entropy(z.copy(), y)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def same_bits(a, b):
    """Whether a and b hold the same numbers bit for bit, and NaN in the same places.
    A NaN's sign bit is left out: x86 gives inf - inf a negative NaN, and which
    of two NaNs a max passes on is not a value."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _axis_max_loss_and_grad(w, xa, y, l2):
    """The loss and gradient with the softmax formed as before: z.max(axis=1), in new arrays."""
    z = xa @ w.T
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    n = len(y)
    ll = -np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean()
    reg = 0.5 * l2 * float(np.sum(w * w))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad = delta.T @ xa / n + l2 * w
    return ll + reg, grad


def test_loss_and_grad_equals_the_axis_max_softmax_bit_for_bit():
    from fedpricing.core import _Pooled
    from fedpricing.fltrain import _Step

    rng = np.random.default_rng(1)
    with np.errstate(all="ignore"):
        for _ in range(200):
            n, c, d = int(rng.integers(1, 40)), int(rng.integers(1, 12)), int(rng.integers(1, 6))
            w = rng.normal(size=(c, d + 1)) * rng.choice([0.0, 1e-3, 1.0, 30.0, 800.0])
            u = rng.random(size=w.shape) + (rng.random() < 0.5)   # specials in half the cases
            w[u < 0.03] = np.nan
            w[(u >= 0.03) & (u < 0.06)] = -np.inf
            w[(u >= 0.06) & (u < 0.08)] = np.inf
            w[(u >= 0.08) & (u < 0.12)] = -0.0
            xa = _Pooled.block(rng.normal(size=(n, d)), np.zeros(n, dtype=np.int64), d)[0]
            y = rng.integers(0, c, size=n)
            l2 = float(rng.choice([0.0, 1e-4, 1.0]))
            for got, ref in zip(_Step(w[None], n).loss_and_grad(w, xa, y, l2),
                                _axis_max_loss_and_grad(w, xa, y, l2)):
                assert same_bits(got, ref)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 60), classes=st.integers(2, 12), width=st.integers(1, 8),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 800.0]), l2=st.sampled_from([0.0, 1e-4, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_the_one_model_kernel_is_the_reference_loss_and_gradient_bit_for_bit(
    rows, classes, width, scale, l2, seed
):
    """At scale 800 some p_y underflow to 0, so the loss meets its 1e-300 clamp."""
    from fedpricing.core import _Pooled

    rng = np.random.default_rng(seed)
    w = scale * rng.normal(size=(classes, width + 1))
    x = rng.normal(size=(rows, width))
    y = rng.integers(0, classes, size=rows)
    xa = _Pooled.block(x, y, width)[0]
    want = oracles.loss_and_grad(w, x, y, l2)
    for loss, grad in (fltrain._Step(w[None], rows).loss_and_grad(w, xa, y, l2),
                       loss_and_grad(w, x, y, l2)):
        assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes()
        assert grad.tobytes() == want[1].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    stack=st.integers(1, 50), rows=st.integers(1, 30), classes=st.integers(2, 12),
    width=st.integers(1, 6), steps=st.integers(1, 3),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]), tied=st.integers(0, 11),
    lr=st.sampled_from([0.05, 0.5]), l2=st.sampled_from([0.0, 1e-4, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_buffered_step_equals_the_reference_step_bit_for_bit(
    stack, rows, classes, width, steps, scale, tied, lr, l2, seed
):
    rng = np.random.default_rng(seed)
    w = scale * rng.normal(size=(stack, classes, width + 1))
    w[:, 1:1 + tied] = w[:, :1]          # classes 0..tied: tied logits in every row
    batches = []
    for _ in range(steps):
        x = rng.normal(size=(stack, rows, width + 1))
        x[:, :, -1] = 1.0
        batches.append((x, rng.integers(0, classes, size=(stack, rows))))
    ref, got = w.copy(), w.copy()
    ref_norms = np.empty((stack, steps))
    step = fltrain._Step(got, rows)
    with _blas.one_thread(), np.errstate(over="ignore", under="ignore"):
        for e, (x, y) in enumerate(batches):
            ref_grad = oracles.sgd_step(ref, x, y, lr, l2)
            ref_norms[:, e] = [np.linalg.norm(g) for g in ref_grad]
            assert step(got, x, y, lr, l2).tobytes() == ref_grad.tobytes()
            assert got.tobytes() == ref.tobytes()
        # as the gradient-bound pilot steps: through _steps, with the norms asked for
        stepped, norms = w.copy(), np.empty((stack, steps))
        fltrain._steps(stepped, fltrain._Step(stepped, rows), batches, lr, l2, norms)
    assert stepped.tobytes() == ref.tobytes()
    assert norms.tobytes() == ref_norms.tobytes()


def test_local_sgd_rejects_a_label_outside_the_classes():
    x = np.zeros((4, 2))
    for bad in (3, -1):
        with pytest.raises(ValueError, match=r"label outside \[0, 3\)"):
            local_sgd(np.zeros((3, 3)), (x, np.array([0, 1, 2, bad])), 2, 2, 0.1, 0.0,
                      np.random.default_rng(0))


# ---------------------------------------------------------------- evaluation in a forked helper

LINUX = sys.platform.startswith("linux")
linux_only = pytest.mark.skipif(not LINUX, reason="the evaluation helper is forked on Linux only")


def pretend_two_cpus(mp, batch_rows=1):
    """Let train_runs fork on this machine, with a batch per evaluated round by default."""
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    mp.setattr(fltrain, "_BATCH_ROWS", batch_rows)


def count_process_starts(mp):
    starts = []
    real = multiprocessing.process.BaseProcess.start
    mp.setattr(multiprocessing.process.BaseProcess, "start",
               lambda self: starts.append(self.name) or real(self))
    return starts


def helper_config(**change):
    base = TrainConfig(local_steps=2, batch=4, rounds=5, seed=3,
                       participation=[0.9, 0.6, 0.8])
    return dataclasses.replace(base, **change)


@settings(max_examples=40, deadline=None)
@given(
    ds=datasets(),
    data=st.data(),
    local_steps=st.integers(0, 2),
    batch=st.one_of(st.none(), st.integers(1, 7)),
    rounds=st.integers(1, 7),
    eval_stride=st.integers(1, 4),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
    record_states=st.booleans(),
    rounds_per_batch=st.integers(1, 3),
)
def test_forked_evaluation_equals_inline_evaluation_bit_for_bit(
    ds, data, local_steps, batch, rounds, eval_stride, seeds, record_states, rounds_per_batch
):
    levels = st.lists(LEVEL, min_size=ds.n_clients, max_size=ds.n_clients)
    cfgs = [
        TrainConfig(local_steps=local_steps, batch=batch, rounds=rounds, seed=seed, eta0=0.5,
                    lr_schedule="theoretical", l2=1e-3, eval_stride=eval_stride,
                    participation=data.draw(levels))
        for seed in seeds
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fltrain._fork, "second_cpu", lambda: False)
        inline = train_runs(ds, cfgs, record_states=record_states)
    with pytest.MonkeyPatch.context() as mp:
        pretend_two_cpus(mp, rounds_per_batch * len(cfgs) * ds.total_samples)
        starts = count_process_starts(mp)
        forked = train_runs(ds, cfgs, record_states=record_states)
    evaluations = sum((r + 1) % eval_stride == 0 or r == rounds - 1 for r in range(rounds))
    assert len(starts) == (1 if LINUX and evaluations > rounds_per_batch else 0)
    assert multiprocessing.active_children() == []
    if record_states:
        for (_, states), (_, ref_states) in zip(forked, inline):
            assert [w.tobytes() for w in states] == [w.tobytes() for w in ref_states]
        forked, inline = [m for m, _ in forked], [m for m, _ in inline]
    # repr prints each float's shortest round-trip form, so equal reprs are equal bits.
    assert repr(forked) == repr(inline)


@linux_only
def test_the_helper_evaluates_and_leaves_no_process(monkeypatch):
    cfg = helper_config(rounds=40)
    inline = train(tiny_dataset(), cfg)
    pretend_two_cpus(monkeypatch, batch_rows=60 * 3)     # 60 rows: three rounds a batch
    starts = count_process_starts(monkeypatch)
    forked = train(tiny_dataset(), cfg)
    assert starts == ["fedpricing-eval"]
    assert repr(forked) == repr(inline)
    assert multiprocessing.active_children() == []


@linux_only
def test_the_helper_is_forked_when_the_first_batch_is_handed_off(monkeypatch):
    pretend_two_cpus(monkeypatch, batch_rows=60 * 3)     # 60 rows: three rounds a batch
    starts = count_process_starts(monkeypatch)
    started_by_round = []
    real = fltrain._sample

    def sample(levels, rng):        # called once a round, as the round starts
        started_by_round.append(len(starts))
        return real(levels, rng)

    monkeypatch.setattr(fltrain, "_sample", sample)
    train(tiny_dataset(), helper_config(rounds=40))
    # Round 3's evaluation follows a full batch of rounds 0-2 and hands it off.
    assert started_by_round == [0] * 4 + [1] * 36
    assert starts == ["fedpricing-eval"]
    assert multiprocessing.active_children() == []


@linux_only
def test_the_parent_evaluates_the_batches_a_slow_helper_has_not_reached(monkeypatch, tmp_path):
    cfg = helper_config(rounds=30)
    inline, _ = train(tiny_dataset(), cfg, record_states=True)
    pretend_two_cpus(monkeypatch)       # a batch per evaluated round
    parent = os.getpid()
    real = fltrain.global_loss
    log = tmp_path / "evaluated_by"

    def slow_in_the_helper(w, dataset, l2):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {w.tobytes().hex()}\n")
        if os.getpid() != parent:
            time.sleep(0.01)
        return real(w, dataset, l2)

    monkeypatch.setattr(fltrain, "global_loss", slow_in_the_helper)
    forked, states = train(tiny_dataset(), cfg, record_states=True)
    assert repr(forked) == repr(inline)
    evaluations = [line.split() for line in log.read_text().splitlines()]
    assert len(evaluations) == cfg.rounds
    pids = {pid for pid, _ in evaluations}
    assert str(parent) in pids and len(pids) == 2
    assert [str(parent), states[-1].tobytes().hex()] in evaluations     # the last batch
    assert multiprocessing.active_children() == []


@linux_only
def test_an_evaluation_error_in_the_helper_is_raised_in_the_parent(monkeypatch):
    pretend_two_cpus(monkeypatch)
    parent = os.getpid()

    real = fltrain.global_loss

    def fail(w, dataset, l2):
        if os.getpid() == parent:
            return real(w, dataset, l2)
        raise ValueError("no loss in process helper")

    monkeypatch.setattr(fltrain, "global_loss", fail)
    with pytest.raises(RuntimeError, match="evaluation helper failed: ValueError: no loss in process helper"):
        train(tiny_dataset(), helper_config())
    assert multiprocessing.active_children() == []


@linux_only
def test_a_helper_that_dies_is_reported_with_its_exit_code(monkeypatch):
    pretend_two_cpus(monkeypatch)
    parent = os.getpid()

    real = fltrain.global_loss

    def die(w, dataset, l2):
        if os.getpid() == parent:
            return real(w, dataset, l2)
        os._exit(7)

    monkeypatch.setattr(fltrain, "global_loss", die)
    with pytest.raises(RuntimeError, match="evaluation helper exited with code 7"):
        train(tiny_dataset(), helper_config(rounds=30))     # sends go on after it died
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("why,change", [
    ("one CPU", {}), ("one evaluation", {"eval_stride": 5}), ("one evaluation", {"eval_stride": 9}),
    ("one batch", {}),
])
def test_no_helper_on_one_cpu_or_with_one_batch_of_evaluations(monkeypatch, why, change):
    pretend_two_cpus(monkeypatch, batch_rows=60 * 5 if why == "one batch" else 1)
    if why == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    starts = count_process_starts(monkeypatch)
    metrics = train(tiny_dataset(), helper_config(**change))
    assert starts == []
    assert metrics[-1].round_index == 4


def test_no_helper_while_a_second_thread_runs(monkeypatch):
    pretend_two_cpus(monkeypatch)
    starts = count_process_starts(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        train(tiny_dataset(), helper_config())
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert starts == []


@linux_only
def test_evaluations_filling_two_batches_start_the_helper(monkeypatch):
    pretend_two_cpus(monkeypatch, batch_rows=60 * 4)     # 60 rows: four rounds a batch
    starts = count_process_starts(monkeypatch)
    train(tiny_dataset(), helper_config())
    assert starts == ["fedpricing-eval"]
