"""The one-thread BLAS context: pinned inside, restored after, inert without OpenBLAS."""

import pytest
import scipy.optimize  # noqa: F401  (loads scipy's OpenBLAS beside numpy's)

from fedpricing import _blas, data
from fedpricing.data import gen_synthetic
from fedpricing.fltrain import TrainConfig, train

import oracles


def counts(pools):
    return [get() for get, _ in pools]


@pytest.fixture
def pools_at_two():
    """Every loaded OpenBLAS set to two threads, and reset to its own count afterwards."""
    pools = _blas.pools()
    if not pools:
        pytest.skip("no OpenBLAS with a thread-count API is loaded")
    before = counts(pools)
    for _, set_ in pools:
        set_(2)
    yield pools
    for (_, set_), n in zip(pools, before):
        set_(n)


def test_every_pool_is_pinned_inside_and_restored_after(pools_at_two):
    with _blas.one_thread():
        assert counts(pools_at_two) == [1] * len(pools_at_two)
    assert counts(pools_at_two) == [2] * len(pools_at_two)


def test_counts_are_restored_after_an_exception(pools_at_two):
    with pytest.raises(RuntimeError, match="inside"):
        with _blas.one_thread():
            assert counts(pools_at_two) == [1] * len(pools_at_two)
            raise RuntimeError("inside")
    assert counts(pools_at_two) == [2] * len(pools_at_two)


def test_nested_contexts_restore_the_outer_counts(pools_at_two):
    with _blas.one_thread():
        with _blas.one_thread():
            pass
        assert counts(pools_at_two) == [1] * len(pools_at_two)
    assert counts(pools_at_two) == [2] * len(pools_at_two)


def test_no_library_found_is_a_no_op(pools_at_two, monkeypatch):
    monkeypatch.setattr(_blas, "_openblas_paths", lambda: [])
    with _blas.one_thread():
        assert counts(pools_at_two) == [2] * len(pools_at_two)
    assert counts(pools_at_two) == [2] * len(pools_at_two)


def test_without_a_maps_file_nothing_is_found(tmp_path, monkeypatch):
    monkeypatch.setattr(_blas, "_MAPS", str(tmp_path / "missing"))
    assert _blas.pools() == []
    with _blas.one_thread():
        pass


def test_train_leaves_the_counts_as_it_found_them(pools_at_two):
    ds = gen_synthetic(n_clients=2, dim=3, n_classes=2, total_samples=40, seed=0)
    train(ds, TrainConfig(local_steps=2, batch=4, rounds=3,
                          participation=[1.0, 0.5]))
    assert counts(pools_at_two) == [2] * len(pools_at_two)


def test_gen_synthetic_builds_every_client_on_one_thread(pools_at_two, monkeypatch):
    seen = []
    head = data._softmax_head

    def noting(z, sums):
        """The softmax head, noting the thread counts each time a client's softmax runs."""
        seen.append(counts(pools_at_two))
        return head(z, sums)

    monkeypatch.setattr(data, "_softmax_head", noting)
    gen_synthetic(n_clients=3, dim=4, n_classes=2, total_samples=30, seed=0)
    assert seen == [[1] * len(pools_at_two)] * 3
    assert counts(pools_at_two) == [2] * len(pools_at_two)


def test_the_pinned_generator_is_the_two_thread_reference_byte_for_byte(pools_at_two):
    """At this size the largest client's logits product runs on both threads
    when BLAS may use them, as the reference's does here."""
    want = oracles.gen_synthetic(n_clients=100, total_samples=20_000, seed=1)
    got = gen_synthetic(n_clients=100, total_samples=20_000, seed=1)
    for name in ("features", "labels", "sizes", "test_rows", "test_labels"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
