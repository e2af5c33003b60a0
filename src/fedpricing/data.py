"""Federated dataset generation, IDX ingestion, and non-i.i.d. partitioning.

Shard sizes follow a power law over a random client permutation (rounded with
largest remainders so totals are exact); everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

import collections
import math
import os
import struct

import numpy as np

from . import _blas
from .core import FederatedDataset, _Pooled
from .fltrain import _softmax_head

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncated payload, or count mismatch)."""


def power_law_sizes(
    n_clients: int, total: int, exponent: float, rng: np.random.Generator
) -> list:
    """Shard sizes proportional to rank^(-exponent) over a random permutation.

    Largest-remainder rounding keeps the sum exact; every shard gets at
    least one sample.
    """
    if total < n_clients:
        raise ValueError(f"cannot split {total} samples across {n_clients} clients")
    raw = (np.arange(1, n_clients + 1, dtype=float)) ** (-exponent)
    raw = raw / raw.sum() * (total - n_clients)
    sizes = np.floor(raw).astype(int)
    remainder = total - n_clients - sizes.sum()
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    sizes[order[:remainder]] += 1
    sizes += 1
    perm = rng.permutation(n_clients)
    return sizes[perm].tolist()


def gen_synthetic(
    n_clients: int,
    dim: int = 60,
    n_classes: int = 10,
    alpha: float = 1.0,
    beta: float = 1.0,
    total_samples: int = 2000,
    power_exponent: float = 1.5,
    seed: int = 0,
) -> FederatedDataset:
    """Non-i.i.d. synthetic classification data with unbalanced shard sizes.

    Per client: a generating weight matrix with entries Normal(u_n, 1),
    u_n ~ Normal(0, alpha); a feature mean vector Normal(v_n, 1) per
    coordinate, v_n ~ Normal(0, beta); diagonal feature covariance
    Sigma_jj = j^(-1.2). Labels are sampled from the softmax of the client's
    linear model. An extra 10% of each shard's size is generated into the
    shared test pool; the declared total covers training shards only.

    The inter-client spread parameters (alpha, beta) interpolate between an
    i.i.d. population (0, 0) and strongly heterogeneous clients. This recipe
    is one documented, reproducible instantiation of the "Synthetic" family;
    variants differ in inessential details.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if total_samples < n_clients:
        raise ValueError(f"total_samples={total_samples} below n_clients={n_clients}")
    for name, spread in (("alpha", alpha), ("beta", beta)):
        if not spread >= 0:
            raise ValueError(f"{name} must be nonnegative, got {spread}")
    rng = np.random.default_rng(seed)
    sizes = power_law_sizes(n_clients, total_samples, power_exponent, rng)
    cov_diag = np.arange(1, dim + 1, dtype=float) ** (-1.2)
    scale = np.sqrt(cov_diag)

    # Zero spread means every client shares one generating model/mean: the
    # i.i.d. limit. Positive spread draws per-client parameters.
    shared_w = rng.normal(0.0, 1.0, size=(n_classes, dim)) if alpha == 0 else None
    shared_b = rng.normal(0.0, 1.0, size=n_classes) if alpha == 0 else None
    shared_mean = rng.normal(0.0, 1.0, size=dim) if beta == 0 else None

    n_tests = [max(1, int(round(0.1 * size))) for size in sizes]
    train, test = _Pooled(total_samples, dim), _Pooled(sum(n_tests), dim)
    with _blas.one_thread():
        for size, n_test in zip(sizes, n_tests):
            if alpha > 0:
                u_n = rng.normal(0.0, np.sqrt(alpha))
                w_n = rng.normal(u_n, 1.0, size=(n_classes, dim))
                b_n = rng.normal(u_n, 1.0, size=n_classes)
            else:
                w_n, b_n = shared_w, shared_b
            if beta > 0:
                v_n = rng.normal(0.0, np.sqrt(beta))
                mean_n = rng.normal(v_n, 1.0, size=dim)
            else:
                mean_n = shared_mean
            count = size + n_test
            x = rng.normal(0.0, 1.0, size=(count, dim))
            x *= scale
            x += mean_n         # mean_n + normal * scale, bit for bit, in one array
            probs = x @ w_n.T + b_n
            sums = _softmax_head(probs, np.empty(count))
            probs /= sums[:, None]
            cdf = np.cumsum(probs, axis=1)
            y = (rng.random((count, 1)) < cdf).argmax(axis=1)
            train.add(x[:size], y[:size])
            test.add(x[size:], y[size:])
    return FederatedDataset(*train.done(), np.array(sizes, dtype=np.int64), *test.done(),
                            n_classes)


def _read_exact(f, count: int, what: str, file_size: int, error=ValueError) -> bytes:
    """The next ``count`` bytes of ``f``, a file of ``file_size`` bytes. A file
    too short to hold them raises ``error`` before anything is read."""
    left = file_size - f.tell()
    if left < count:
        raise error(f"truncated {what}: expected {count} bytes, got {left}")
    return f.read(count)


def _read_idx(path: str, magic: int, kind: str, dims: int) -> np.ndarray:
    """The uint8 payload of the IDX file at ``path``, one row per item."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        header = _read_exact(f, 4 * (1 + dims), f"{kind} header in {path}", file_size,
                             IdxFormatError)
        found, *shape = struct.unpack(f">{1 + dims}I", header)
        if found != magic:
            raise IdxFormatError(f"bad {kind} magic 0x{found:08x} in {path}")
        raw = _read_exact(f, math.prod(shape), f"{kind} data in {path}", file_size,
                          IdxFormatError)
        return np.frombuffer(raw, dtype=np.uint8).reshape(shape[0], math.prod(shape[1:]))


def load_idx(images_path: str, labels_path: str):
    """Parse a big-endian IDX image/label pair; pixels scaled to [0, 1].

    Returns (samples: float64 array of shape (count, rows*cols), labels:
    int64 array). Image and label counts must match. Each file's length is
    checked against its header before its payload is read.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "image", 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", 1)[:, 0].astype(np.int64)
    if len(images) != len(labels):
        raise IdxFormatError(f"count mismatch: {len(images)} images but {len(labels)} labels")
    return images.astype(np.float64) / 255.0, labels


def subsample(samples: np.ndarray, labels: np.ndarray, n: int, seed: int = 0):
    """Uniform subsample without replacement, deterministic per seed."""
    if n > len(labels):
        raise ValueError(f"cannot subsample {n} from {len(labels)} samples")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(labels), size=n, replace=False)
    return samples[idx], labels[idx]


def filter_labels(samples: np.ndarray, labels: np.ndarray, keep: list):
    """Keep only samples whose label is in ``keep``, remapping labels to 0..k-1.

    Raises when no sample has a label in ``keep``.
    """
    keep = sorted(set(keep))
    mask = np.isin(labels, keep)
    if not mask.any():
        raise ValueError(f"label_filter {keep} names no label in the data "
                         f"(its labels: {np.unique(labels).tolist()})")
    return samples[mask], np.searchsorted(keep, labels[mask])


def _max_flow(capacity: np.ndarray, src: int, sink: int) -> np.ndarray:
    """A maximum flow from src to sink under the integer capacity matrix, by
    Edmonds–Karp: augment along a shortest path of the residual graph until
    none is left. Returns the flow matrix, antisymmetric (flow[v, u] is
    -flow[u, v])."""
    flow = np.zeros_like(capacity)
    while True:
        parent = {src: src}
        queue = collections.deque([src])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in np.flatnonzero(capacity[u] > flow[u]).tolist():
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = [sink]
        while path[-1] != src:
            path.append(parent[path[-1]])
        edges = list(zip(path[1:], path))
        push = min(capacity[u, v] - flow[u, v] for u, v in edges)
        for u, v in edges:
            flow[u, v] += push
            flow[v, u] -= push


def _route_residual(
    assigned: list,
    residual_need: np.ndarray,
    residual_supply: np.ndarray,
    n_clients: int,
    n_classes: int,
) -> np.ndarray:
    """Split each client's remaining shard size across its assigned classes.

    Max-flow on source -> clients -> classes -> sink with pool capacities;
    a saturating flow is exactly a feasible split. Raises naming a deficient
    class when the pools cannot cover the shard sizes.
    """
    total_need = int(residual_need.sum())
    if total_need == 0:
        return np.zeros((n_clients, n_classes), dtype=np.int64)

    src = 0
    sink = 1 + n_clients + n_classes
    capacity = np.zeros((sink + 1, sink + 1), dtype=np.int64)
    capacity[src, 1:1 + n_clients] = residual_need
    for n, classes in enumerate(assigned):
        capacity[1 + n, [1 + n_clients + c for c in classes]] = residual_need[n]
    capacity[1 + n_clients:sink, sink] = residual_supply
    flow = _max_flow(capacity, src, sink)
    if flow[src].sum() < total_need:
        # Name the tightest saturated class pool touched by an unmet client.
        for n in np.flatnonzero(flow[src, 1:1 + n_clients] < residual_need).tolist():
            for c in assigned[n]:
                if flow[1 + n_clients + c, sink] >= residual_supply[c]:
                    need = int(residual_need[n]) + len(assigned[n])
                    raise ValueError(
                        f"class {c}: partition needs more samples than the "
                        f"{int(residual_supply[c])} left in its pool "
                        f"(client shard of {need} cannot be filled)"
                    )
        raise ValueError("partition infeasible: class pools cannot cover shard sizes")
    return flow[1:1 + n_clients, 1 + n_clients:sink]     # a client's flow to each class


def partition_label_limited(
    samples: np.ndarray,
    labels: np.ndarray,
    n_clients: int,
    classes_per_client_min: int,
    classes_per_client_max: int,
    power_exponent: float = 1.5,
    seed: int = 0,
    n_classes: int | None = None,
    test_features: np.ndarray | None = None,
    test_labels: np.ndarray | None = None,
) -> FederatedDataset:
    """Unbalanced, label-limited partition: each client holds a random number
    of distinct classes in [min, max], with power-law shard sizes.

    Shards are disjoint and their union is exactly the input sample set.
    Raises when some class pool cannot cover its assignments. ``n_classes``
    defaults to the largest training or test label plus one, so a class only
    in the test set is still predictable; clients hold only classes with rows.
    """
    if n_classes is None:
        seen = labels if test_labels is None else np.concatenate([labels, test_labels])
        n_classes = int(seen.max()) + 1
    if not 1 <= classes_per_client_min <= classes_per_client_max <= n_classes:
        raise ValueError(
            f"class count range [{classes_per_client_min}, {classes_per_client_max}] "
            f"invalid for {n_classes} classes"
        )
    rng = np.random.default_rng(seed)
    sizes = power_law_sizes(n_clients, len(labels), power_exponent, rng)

    pools = [rng.permutation(np.flatnonzero(labels == c)) for c in range(n_classes)]
    supply = np.array([len(pool) for pool in pools])
    held = np.flatnonzero(supply)

    # Assign class sets, then split each shard's size across its classes by
    # solving the transportation problem exactly: every assigned class gets
    # at least one sample, the rest is routed by max-flow so any feasible
    # split is found. Total demand equals total supply, so a feasible demand
    # matrix uses every sample exactly once.
    assigned = []
    for n in range(n_clients):
        k = int(rng.integers(classes_per_client_min, classes_per_client_max + 1))
        # a shard cannot hold more classes than samples, nor a class without training rows
        k = min(k, sizes[n], len(held))
        assigned.append([int(c) for c in rng.choice(held, size=k, replace=False)])

    mandatory = np.bincount(np.concatenate(assigned), minlength=n_classes)
    short = np.flatnonzero(mandatory > supply)
    if short.size:
        c = int(short[0])
        raise ValueError(f"class {c}: partition needs {mandatory[c]} samples but only "
                         f"{supply[c]} available")

    residual_need = np.array([sizes[n] - len(assigned[n]) for n in range(n_clients)])
    residual_supply = supply - mandatory
    demand = _route_residual(assigned, residual_need, residual_supply, n_clients, n_classes)
    for n, classes in enumerate(assigned):
        demand[n, classes] += 1

    # Client n takes the demand[n, c] entries of class c's pool after those
    # of clients 0 to n-1.
    dim = samples.shape[1]
    ends = np.cumsum(demand, axis=0)
    pooled = _Pooled(len(labels), dim)
    for n, classes in enumerate(assigned):
        idx = np.sort(np.concatenate([pools[c][ends[n, c] - demand[n, c]:ends[n, c]]
                                      for c in classes]))
        pooled.add(samples[idx], labels[idx])

    if test_features is None:
        test_features, test_labels = np.empty((0, dim)), np.empty(0, dtype=np.int64)
    return FederatedDataset(*pooled.done(), np.array(sizes, dtype=np.int64),
                            *_Pooled.block(test_features, test_labels, dim), n_classes)


# Binary dataset container: magic "FPDS", version, header, then little-endian
# float64 feature blocks and int64 label blocks, shards in client order, test
# set last. See README FORMATS for the byte layout.
_CONTAINER_MAGIC = b"FPDS"
_CONTAINER_VERSION = 1
_CONTAINER_HEADER = struct.Struct("<IIIIQ")    # version, n_clients, dim, n_classes, n_test


def save_dataset(path: str, dataset: FederatedDataset) -> None:
    with open(path, "wb") as f:
        f.write(_CONTAINER_MAGIC)
        f.write(_CONTAINER_HEADER.pack(_CONTAINER_VERSION, dataset.n_clients, dataset.dim,
                                       dataset.n_classes, len(dataset.test_labels)))
        f.write(dataset.sizes.astype("<u8"))
        for x, y in dataset.shards:
            f.write(np.ascontiguousarray(x, dtype="<f8"))
            f.write(np.ascontiguousarray(y, dtype="<i8"))
        f.write(np.ascontiguousarray(dataset.test_features, dtype="<f8"))
        f.write(np.ascontiguousarray(dataset.test_labels, dtype="<i8"))


def load_dataset(path: str) -> FederatedDataset:
    """The dataset in the container at ``path``, read straight into the pooled layout.

    The header and the shard-size table imply the file's exact length, which
    is checked before anything else is read or allocated. Every error is a
    ``ValueError`` that names the path.
    """
    try:
        with open(path, "rb") as f:
            return _read_container(f, os.fstat(f.fileno()).st_size)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_container(f, file_size: int) -> FederatedDataset:
    magic = f.read(4)
    if magic != _CONTAINER_MAGIC:
        raise ValueError(f"not a dataset container (magic {magic!r})")
    version, n_clients, dim, n_classes, n_test = _CONTAINER_HEADER.unpack(
        _read_exact(f, _CONTAINER_HEADER.size, "header", file_size))
    if version != _CONTAINER_VERSION:
        raise ValueError(f"unsupported container version {version}")
    if n_clients == 0:
        raise ValueError("no client shards")
    sizes = np.frombuffer(_read_exact(f, 8 * n_clients, "shard sizes", file_size), dtype="<u8")
    if not np.all(sizes > 0):
        raise ValueError(f"client {int(np.argmin(sizes))}: empty shard")
    n_rows = sum(sizes.tolist())
    expected = f.tell() + 8 * (dim + 1) * (n_rows + n_test)
    if file_size != expected:
        problem = "truncated" if file_size < expected else "overlong"
        raise ValueError(f"{problem} file: expected {expected} bytes, got {file_size}")
    sizes = sizes.astype(np.int64)      # each below the file's length now

    # Each block is its features, then its labels: the clients in order, then the test set.
    train, test = _Pooled(n_rows, dim), _Pooled(n_test, dim)
    blocks = [(train, f"client {n}", size) for n, size in enumerate(sizes.tolist())]
    for pooled, what, size in blocks + [(test, "test", n_test)]:
        x = _read_exact(f, 8 * size * dim, f"{what} features", file_size)
        y = _read_exact(f, 8 * size, f"{what} labels", file_size)
        pooled.add(np.frombuffer(x, dtype="<f8").reshape(size, dim), np.frombuffer(y, dtype="<i8"))
    return FederatedDataset(*train.done(), sizes, *test.done(), n_classes)
