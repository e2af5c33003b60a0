import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpricing.core import FederatedDataset
from fedpricing.data import (
    IdxFormatError,
    filter_labels,
    gen_synthetic,
    load_dataset,
    load_idx,
    partition_label_limited,
    power_law_sizes,
    save_dataset,
    subsample,
)
import oracles
from oracles import write_idx


# ---------------------------------------------------------------- shard sizes


def test_power_law_sizes_exact_total_and_minimum():
    rng = np.random.default_rng(0)
    for total, n in [(100, 10), (57, 7), (10, 10), (5000, 40)]:
        sizes = power_law_sizes(n, total, 1.5, rng)
        assert sum(sizes) == total
        assert min(sizes) >= 1
        assert len(sizes) == n


def test_power_law_sizes_skewed_when_exponent_positive():
    rng = np.random.default_rng(1)
    sizes = sorted(power_law_sizes(10, 1000, 1.5, rng))
    assert sizes[-1] > 3 * sizes[0]


def test_power_law_sizes_rejects_overflow():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        power_law_sizes(10, 5, 1.5, rng)


# ---------------------------------------------------------------- synthetic generator


def test_gen_synthetic_shapes_and_determinism():
    ds1 = gen_synthetic(n_clients=4, dim=6, n_classes=3, total_samples=100, seed=5)
    ds2 = gen_synthetic(n_clients=4, dim=6, n_classes=3, total_samples=100, seed=5)
    assert ds1.n_clients == 4
    assert ds1.dim == 6
    assert sum(len(x) for x, _ in ds1.shards) == 100
    assert len(ds1.test_labels) > 0
    for (x1, y1), (x2, y2) in zip(ds1.shards, ds2.shards):
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
    ds3 = gen_synthetic(n_clients=4, dim=6, n_classes=3, total_samples=100, seed=6)
    assert not np.array_equal(ds1.shards[0][0], ds3.shards[0][0])


def test_gen_synthetic_labels_in_range():
    ds = gen_synthetic(n_clients=3, dim=5, n_classes=4, total_samples=90, seed=0)
    for _, y in ds.shards:
        assert y.min() >= 0 and y.max() < 4
        assert y.dtype == np.int64


def test_gen_synthetic_zero_spread_shares_generating_parameters():
    # In the i.i.d. limit the per-shard label marginals come from one shared
    # model, so shard means should be statistically indistinguishable; with a
    # large spread the shard feature means separate clearly.
    iid = gen_synthetic(n_clients=6, dim=8, n_classes=3, alpha=0.0, beta=0.0,
                        total_samples=1200, seed=3)
    het = gen_synthetic(n_clients=6, dim=8, n_classes=3, alpha=0.0, beta=25.0,
                        total_samples=1200, seed=3)

    def mean_spread(ds):
        means = np.array([x.mean(axis=0) for x, _ in ds.shards])
        return float(np.std(means, axis=0).mean())

    assert mean_spread(het) > 5 * mean_spread(iid)


@pytest.mark.parametrize("spread", [{"alpha": -1.0}, {"beta": -1.0}, {"alpha": float("nan")}],
                         ids=["alpha-negative", "beta-negative", "alpha-nan"])
def test_gen_synthetic_rejects_a_negative_spread(spread):
    (name, value), = spread.items()
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got {value}$"):
        gen_synthetic(n_clients=3, dim=5, n_classes=3, total_samples=90, **spread)


# ---------------------------------------------------------------- IDX format


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    images = rng.random((12, 9))
    labels = rng.integers(0, 10, size=12)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    write_idx(ip, lp, images, labels, rows=3, cols=3)
    got_x, got_y = load_idx(ip, lp)
    assert got_x.shape == (12, 9)
    assert got_x.min() >= 0.0 and got_x.max() <= 1.0
    assert np.abs(got_x - images).max() <= 0.5 / 255.0 + 1e-12
    assert np.array_equal(got_y, labels)


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 12)
    lp = tmp_path / "lb.idx"
    lp.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 4)
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(str(p), str(lp))


def test_idx_truncated(tmp_path):
    import struct
    p = tmp_path / "trunc.idx"
    p.write_bytes(struct.pack(">IIII", 0x803, 10, 2, 2) + b"\x00" * 5)
    lp = tmp_path / "lb.idx"
    lp.write_bytes(struct.pack(">II", 0x801, 10) + b"\x00" * 10)
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(str(p), str(lp))


# Headers that claim far more bytes than their files hold.
@pytest.mark.parametrize("kind,header,expected", [
    ("image", (0x803, 0xFFFFFFFF, 65535, 65535), 0xFFFFFFFF * 65535 * 65535),
    ("label", (0x801, 0xFFFFFFFF), 0xFFFFFFFF),
])
def test_an_idx_header_is_checked_against_the_file_length_before_reading(tmp_path, kind,
                                                                          header, expected):
    import struct
    rng = np.random.default_rng(8)
    paths = {"image": str(tmp_path / "im.idx"), "label": str(tmp_path / "lb.idx")}
    write_idx(paths["image"], paths["label"], rng.random((4, 4)), rng.integers(0, 2, size=4), 2, 2)
    with open(paths[kind], "r+b") as f:
        f.write(struct.pack(f">{len(header)}I", *header))
    with pytest.raises(IdxFormatError,
                       match=rf"^truncated {kind} data in .*: expected {expected} bytes, got \d+$"):
        load_idx(paths["image"], paths["label"])


def test_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(8)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    write_idx(ip, lp, rng.random((4, 4)), rng.integers(0, 2, size=4), 2, 2)
    ip2, lp2 = str(tmp_path / "im2.idx"), str(tmp_path / "lb2.idx")
    write_idx(ip2, lp2, rng.random((5, 4)), rng.integers(0, 2, size=5), 2, 2)
    with pytest.raises(IdxFormatError, match="mismatch"):
        load_idx(ip, lp2)


# ---------------------------------------------------------------- slicing helpers


def test_subsample_deterministic_and_exact():
    rng = np.random.default_rng(9)
    x = rng.random((50, 3))
    y = rng.integers(0, 5, size=50)
    x1, y1 = subsample(x, y, 20, seed=4)
    x2, y2 = subsample(x, y, 20, seed=4)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert len(y1) == 20
    with pytest.raises(ValueError):
        subsample(x, y, 51)


def test_filter_labels_remaps_contiguously():
    x = np.arange(10, dtype=float).reshape(5, 2)
    y = np.array([0, 3, 7, 3, 1])
    fx, fy = filter_labels(x, y, keep=[3, 7])
    assert np.array_equal(fy, [0, 1, 0])
    assert np.array_equal(fx, x[[1, 2, 3]])


# ---------------------------------------------------------------- partitioning


def test_partition_label_limited_invariants():
    rng = np.random.default_rng(10)
    x = rng.random((600, 4))
    y = rng.integers(0, 10, size=600).astype(np.int64)
    ds = partition_label_limited(x, y, n_clients=8,
                                 classes_per_client_min=4, classes_per_client_max=8,
                                 power_exponent=1.0, seed=11)
    assert ds.n_clients == 8
    assert sum(len(sx) for sx, _ in ds.shards) == 600
    all_idx = []
    for sx, sy in ds.shards:
        n_labels = len(set(int(l) for l in sy))
        assert 1 <= n_labels <= 8
        all_idx.extend(map(tuple, sx))
    # Disjoint union of the inputs.
    assert sorted(all_idx) == sorted(map(tuple, x))


def test_partition_label_limited_oversubscribed_class_errors():
    # 2 classes, class 1 has a single sample, but every client must hold
    # both classes: the pool cannot cover the demand.
    x = np.zeros((20, 2))
    y = np.array([0] * 19 + [1], dtype=np.int64)
    with pytest.raises(ValueError, match="class 1"):
        partition_label_limited(x, y, n_clients=5,
                                classes_per_client_min=2, classes_per_client_max=2,
                                power_exponent=0.0, seed=0)


def test_a_class_only_in_the_test_set_is_one_of_the_classes():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(60, 2)), rng.integers(0, 3, size=60)
    test_labels = np.array([0, 3, 1, 2])
    for seed in range(10):
        ds = partition_label_limited(x, y, 4, 3, 3, power_exponent=0.0, seed=seed,
                                     test_features=rng.normal(size=(4, 2)),
                                     test_labels=test_labels)
        assert ds.n_classes == 4
        assert np.array_equal(ds.test_labels, test_labels)
        # three classes asked of four: each client holds the three with training rows
        assert [sorted(set(labels.tolist())) for _, labels in ds.shards] == [[0, 1, 2]] * 4


def test_a_seeded_partition_is_pinned_bit_for_bit():
    rng = np.random.default_rng(21)
    samples, labels = rng.normal(size=(400, 5)), rng.integers(0, 10, size=400)
    ds = partition_label_limited(samples, labels, 12, 3, 7, power_exponent=0.5, seed=7)
    digests = {name: hashlib.sha256(getattr(ds, name).tobytes()).hexdigest()[:16]
               for name in ("features", "labels", "sizes")}
    assert digests == {"features": "34caff306e3b917b", "labels": "15068d3c99446743",
                       "sizes": "1d5ba8665dcd1031"}


def test_partition_invalid_class_range():
    x = np.zeros((10, 2))
    y = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError, match="invalid"):
        partition_label_limited(x, y, 2, classes_per_client_min=0,
                                classes_per_client_max=1)


# ---------------------------------------------------------------- pooled layout


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_dataset(ds: FederatedDataset, ref: FederatedDataset) -> bool:
    return (all(same_bits(getattr(ds, name), getattr(ref, name))
                for name in ("features", "labels", "sizes", "test_rows", "test_labels"))
            and ds.n_classes == ref.n_classes)


@settings(max_examples=60, deadline=None)
@given(n_clients=st.integers(1, 8), dim=st.integers(1, 9), n_classes=st.integers(1, 6),
       alpha=st.sampled_from([0.0, 0.5, 1.0]), beta=st.sampled_from([0.0, 0.5, 1.0]),
       per_client=st.integers(1, 40), exponent=st.sampled_from([0.0, 1.5]),
       seed=st.integers(0, 2**32 - 1))
def test_the_pooled_generator_is_the_per_client_one_bit_for_bit(n_clients, dim, n_classes,
                                                                 alpha, beta, per_client,
                                                                 exponent, seed):
    args = dict(n_clients=n_clients, dim=dim, n_classes=n_classes, alpha=alpha, beta=beta,
                total_samples=n_clients * per_client, power_exponent=exponent, seed=seed)
    ds, ref = gen_synthetic(**args), oracles.gen_synthetic(**args)
    assert same_dataset(ds, ref)
    for (x, y), (ref_x, ref_y) in zip(ds.shards, ref.shards, strict=True):
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
    assert ds.test_features.tobytes() == ref.test_features.tobytes()


def test_from_shards_round_trips_the_shards_bit_for_bit():
    rng = np.random.default_rng(3)
    shards = [(rng.normal(size=(size, 4)), rng.integers(0, 5, size=size)) for size in (7, 1, 12)]
    test_x, test_y = rng.normal(size=(6, 4)), rng.integers(0, 5, size=6)
    ds = FederatedDataset.from_shards(shards=shards, test_features=test_x, test_labels=test_y,
                                      n_classes=5, dim=4)
    assert ds.datasizes == [7, 1, 12] and ds.total_samples == 20 and ds.dim == 4
    for (x, y), (got_x, got_y) in zip(shards, ds.shards, strict=True):
        assert same_bits(got_x.copy(), x) and same_bits(got_y.copy(), y)
    assert same_bits(ds.test_features.copy(), test_x) and same_bits(ds.test_labels, test_y)
    assert np.all(ds.features[:, -1] == 1.0) and np.all(ds.test_rows[:, -1] == 1.0)


def test_from_shards_rejects_labels_that_are_not_integers():
    shards = [(np.zeros((2, 3)), np.array([0.0, 1.0]))]
    with pytest.raises(TypeError):
        FederatedDataset.from_shards(shards, np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2, 3)
    with pytest.raises(TypeError):
        FederatedDataset.from_shards([(np.zeros((2, 3)), np.array([0, 1]))], np.zeros((1, 3)),
                                     np.array([0.5]), 2, 3)


@pytest.mark.parametrize("n_labels", [1, 3])
def test_from_shards_names_test_sets_of_different_lengths(n_labels):
    shards = [(np.zeros((2, 3)), np.array([0, 1]))]
    with pytest.raises(ValueError, match="^test features/labels length mismatch$"):
        FederatedDataset.from_shards(shards, np.zeros((2, 3)), np.zeros(n_labels, dtype=np.int64),
                                     2, 3)


def test_the_dataset_arrays_are_read_only():
    ds = gen_synthetic(n_clients=3, dim=4, n_classes=3, total_samples=30, seed=1)
    with pytest.raises(ValueError, match="read-only"):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.weights[0] = 0.5
    for array in (ds.labels, ds.sizes, ds.test_rows, ds.test_labels, ds.shards[0][0],
                  ds.test_features):
        assert not array.flags.writeable


@pytest.mark.parametrize("change,message", [
    (dict(sizes=np.array([2, 0, 4])), "client 1: empty shard"),
    (dict(sizes=np.array([2, 3])), "add up to 5"),
    (dict(labels=np.array([0, 1, 0, 1, 9, 0])), r"client 1: label outside \[0, 2\)"),
    (dict(features=np.zeros((6, 3))), "bias column"),
    (dict(features=np.ones((6, 3), dtype=np.float32)), "float64"),
    (dict(labels=np.zeros(6, dtype=np.int32)), "int64"),
    (dict(sizes=np.zeros(0, dtype=np.int64), features=np.ones((0, 3)),
          labels=np.zeros(0, dtype=np.int64)), "at least one client"),    (dict(test_rows=np.ones((3, 3)), test_labels=np.array([1, 0, 2])),
     r"test row 2: label outside \[0, 2\)"),
])
def test_the_constructor_checks_the_layout(change, message):
    arrays = dict(features=np.ones((6, 3)), labels=np.array([0, 1, 0, 1, 1, 0]),
                  sizes=np.array([2, 4]), test_rows=np.ones((0, 3)),
                  test_labels=np.zeros(0, dtype=np.int64), n_classes=2)
    arrays.update(change)
    with pytest.raises(ValueError, match=message):
        FederatedDataset(**arrays)


# ---------------------------------------------------------------- container


def test_dataset_container_round_trip(tmp_path):
    ds = gen_synthetic(n_clients=3, dim=5, n_classes=3, total_samples=80, seed=12)
    path = str(tmp_path / "dataset.bin")
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.n_clients == ds.n_clients
    assert back.n_classes == ds.n_classes
    assert back.dim == ds.dim
    for (x1, y1), (x2, y2) in zip(ds.shards, back.shards):
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
    assert np.array_equal(ds.test_features, back.test_features)
    assert np.array_equal(ds.test_labels, back.test_labels)


def test_save_then_load_gives_the_same_arrays_bit_for_bit(tmp_path):
    rng = np.random.default_rng(4)
    samples, labels = rng.normal(size=(90, 3)), rng.integers(0, 4, size=90)
    partitioned = partition_label_limited(samples, labels, 5, 2, 4, power_exponent=0.0, seed=2,
                                          test_features=rng.normal(size=(8, 3)),
                                          test_labels=rng.integers(0, 4, size=8))
    for ds in (gen_synthetic(n_clients=4, dim=3, n_classes=4, total_samples=50, seed=9),
               partitioned):
        path = str(tmp_path / "dataset.bin")
        save_dataset(path, ds)
        assert same_dataset(load_dataset(path), ds)


def test_dataset_container_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_dataset(str(p))


def test_dataset_container_rejects_every_truncation(tmp_path):
    ds = gen_synthetic(n_clients=2, dim=2, n_classes=2, total_samples=6, seed=0)
    full = tmp_path / "full.bin"
    save_dataset(str(full), ds)
    payload = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for length in range(4, len(payload)):
        cut.write_bytes(payload[:length])
        with pytest.raises(ValueError, match=r"cut\.bin: truncated .*: expected \d+ bytes, got \d+"):
            load_dataset(str(cut))
