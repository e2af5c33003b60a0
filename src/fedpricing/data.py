"""Federated dataset generation, IDX ingestion, and non-i.i.d. partitioning.

Shard sizes follow a power law over a random client permutation (rounded with
largest remainders so totals are exact); everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

import collections
import os
import struct

import numpy as np

from . import _blas
from .core import FederatedDataset, _int_labels, _with_bias

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
    return [int(sizes[perm[i]]) for i in range(n_clients)]


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
    features = np.empty((total_samples, dim + 1))
    labels = np.empty(total_samples, dtype=np.int64)
    test_rows = np.empty((sum(n_tests), dim + 1))
    test_labels = np.empty(len(test_rows), dtype=np.int64)
    start = test_start = 0
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
            logits = x @ w_n.T + b_n
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            cdf = np.cumsum(probs, axis=1)
            y = (rng.random((count, 1)) < cdf).argmax(axis=1)
            features[start:start + size, :-1] = x[:size]
            labels[start:start + size] = y[:size]
            test_rows[test_start:test_start + n_test, :-1] = x[size:]
            test_labels[test_start:test_start + n_test] = y[size:]
            start += size
            test_start += n_test
    features[:, -1] = 1.0
    test_rows[:, -1] = 1.0
    return FederatedDataset(features=features, labels=labels,
                            sizes=np.array(sizes, dtype=np.int64), test_rows=test_rows,
                            test_labels=test_labels, n_classes=n_classes)


def _read_exact(f, count: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise IdxFormatError(f"truncated IDX file: expected {count} bytes for {what}, got {len(buf)}")
    return buf


def load_idx(images_path: str, labels_path: str):
    """Parse a big-endian IDX image/label pair; pixels scaled to [0, 1].

    Returns (samples: float64 array of shape (count, rows*cols), labels:
    int64 array). Image and label counts must match.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(f"bad image magic 0x{magic:08x} in {images_path}")
        raw = _read_exact(f, count * rows * cols, "pixel data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(f"bad label magic 0x{magic:08x} in {labels_path}")
        raw = _read_exact(f, label_count, "label data")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise IdxFormatError(f"count mismatch: {count} images but {label_count} labels")
    return images.astype(np.float64) / 255.0, labels


def subsample(samples: np.ndarray, labels: np.ndarray, n: int, seed: int = 0):
    """Uniform subsample without replacement, deterministic per seed."""
    if n > len(labels):
        raise ValueError(f"cannot subsample {n} from {len(labels)} samples")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(labels), size=n, replace=False)
    return samples[idx], labels[idx]


def filter_labels(samples: np.ndarray, labels: np.ndarray, keep: list):
    """Keep only samples whose label is in ``keep``, remapping labels to 0..k-1."""
    keep = sorted(set(keep))
    remap = {lbl: i for i, lbl in enumerate(keep)}
    mask = np.isin(labels, keep)
    new_labels = np.array([remap[int(l)] for l in labels[mask]], dtype=np.int64)
    return samples[mask], new_labels


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
    demand = np.zeros((n_clients, n_classes), dtype=np.int64)
    if total_need == 0:
        return demand

    src = 0
    sink = 1 + n_clients + n_classes
    capacity = np.zeros((sink + 1, sink + 1), dtype=np.int64)
    for n in range(n_clients):
        capacity[src, 1 + n] = residual_need[n]
        for c in assigned[n]:
            capacity[1 + n, 1 + n_clients + c] = residual_need[n]
    capacity[1 + n_clients:sink, sink] = residual_supply
    flow = _max_flow(capacity, src, sink)
    if flow[src].sum() < total_need:
        # Name the tightest saturated class pool touched by an unmet client.
        sent = flow[src, 1:1 + n_clients]
        unmet = [n for n in range(n_clients) if sent[n] < residual_need[n]]
        for n in unmet:
            for c in assigned[n]:
                if flow[1 + n_clients + c, sink] >= residual_supply[c]:
                    need = int(residual_need[n]) + len(assigned[n])
                    raise ValueError(
                        f"class {c}: partition needs more samples than the "
                        f"{int(residual_supply[c])} left in its pool "
                        f"(client shard of {need} cannot be filled)"
                    )
        raise ValueError("partition infeasible: class pools cannot cover shard sizes")
    for n in range(n_clients):
        for c in assigned[n]:
            demand[n, c] = flow[1 + n, 1 + n_clients + c]
    return demand


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

    pools = {c: list(rng.permutation(np.flatnonzero(labels == c))) for c in range(n_classes)}
    supply = np.array([len(pools[c]) for c in range(n_classes)])
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

    mandatory = np.zeros(n_classes, dtype=np.int64)
    for classes in assigned:
        mandatory[classes] += 1
    for c in range(n_classes):
        if mandatory[c] > supply[c]:
            raise ValueError(
                f"class {c}: partition needs {int(mandatory[c])} samples but only "
                f"{int(supply[c])} available"
            )

    residual_need = np.array([sizes[n] - len(assigned[n]) for n in range(n_clients)])
    residual_supply = supply - mandatory
    demand = _route_residual(assigned, residual_need, residual_supply, n_clients, n_classes)
    for n, classes in enumerate(assigned):
        demand[n, classes] += 1

    dim = samples.shape[1]
    features = np.empty((len(labels), dim + 1))
    pooled_labels = np.empty(len(labels), dtype=np.int64)
    start = 0
    for n in range(n_clients):
        idx = []
        for c in assigned[n]:
            count = int(demand[n, c])
            idx.extend(pools[c][:count])
            pools[c] = pools[c][count:]
        idx = np.array(sorted(idx))
        features[start:start + len(idx), :-1] = samples[idx]
        pooled_labels[start:start + len(idx)] = labels[idx]
        start += len(idx)
    features[:, -1] = 1.0

    if test_features is None:
        test_features = np.empty((0, dim))
        test_labels = np.empty((0,), dtype=np.int64)
    return FederatedDataset(features=features, labels=pooled_labels,
                            sizes=np.array(sizes, dtype=np.int64),
                            test_rows=_with_bias([test_features], dim),
                            test_labels=_int_labels([test_labels]), n_classes=n_classes)


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
    def read(count: int, what: str) -> bytes:
        buf = f.read(count)
        if len(buf) != count:
            raise ValueError(f"truncated {what}: expected {count} bytes, got {len(buf)}")
        return buf

    magic = f.read(4)
    if magic != _CONTAINER_MAGIC:
        raise ValueError(f"not a dataset container (magic {magic!r})")
    version, n_clients, dim, n_classes, n_test = _CONTAINER_HEADER.unpack(
        read(_CONTAINER_HEADER.size, "header"))
    if version != _CONTAINER_VERSION:
        raise ValueError(f"unsupported container version {version}")
    if n_clients == 0:
        raise ValueError("no client shards")
    table_end = f.tell() + 8 * n_clients
    if file_size < table_end:
        raise ValueError(f"truncated shard sizes: expected {table_end} bytes, got {file_size}")
    sizes = np.frombuffer(read(8 * n_clients, "shard sizes"), dtype="<u8")
    if not np.all(sizes > 0):
        raise ValueError(f"client {int(np.argmin(sizes))}: empty shard")
    n_rows = sum(sizes.tolist())
    expected = table_end + 8 * (dim + 1) * (n_rows + n_test)
    if file_size != expected:
        problem = "truncated" if file_size < expected else "overlong"
        raise ValueError(f"{problem} file: expected {expected} bytes, got {file_size}")
    sizes = sizes.astype(np.int64)      # each below the file's length now

    features = np.empty((n_rows, dim + 1))
    labels = np.empty(n_rows, dtype=np.int64)
    start = 0
    for n, size in enumerate(sizes.tolist()):
        rows = slice(start, start + size)
        features[rows, :-1] = np.frombuffer(read(8 * size * dim, f"client {n} features"),
                                            dtype="<f8").reshape(size, dim)
        labels[rows] = np.frombuffer(read(8 * size, f"client {n} labels"), dtype="<i8")
        start += size
    features[:, -1] = 1.0
    test_rows = np.empty((n_test, dim + 1))
    test_rows[:, :-1] = np.frombuffer(read(8 * n_test * dim, "test features"),
                                      dtype="<f8").reshape(n_test, dim)
    test_rows[:, -1] = 1.0
    test_labels = np.frombuffer(read(8 * n_test, "test labels"), dtype="<i8").astype(np.int64)
    return FederatedDataset(features=features, labels=labels, sizes=sizes, test_rows=test_rows,
                            test_labels=test_labels, n_classes=n_classes)
