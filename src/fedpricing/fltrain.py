"""Simulated federated training with Bernoulli participation and unbiased aggregation.

Each round, every client joins independently with its own probability;
participants run local SGD on the shared multinomial logistic model, and the
server applies the inverse-probability-weighted update whose expectation over
participant sets equals the full-participation average. Wall time is
simulated, not measured.

Independent runs that share everything but their seed and participation
vector step together (``train_runs``): each round, every participant of
every run takes its local steps in one stacked gradient step (``_sgd_step``),
which per model performs the same operations as a lone ``loss_and_grad``
step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _blas
from .core import FederatedDataset, ParticipationVector


@dataclass(frozen=True)
class ModelState:
    """Multinomial logistic weights, classes x (features + 1), bias folded in."""

    w: np.ndarray
    round_index: int = 0

    @classmethod
    def zeros(cls, n_classes: int, dim: int) -> "ModelState":
        return cls(w=np.zeros((n_classes, dim + 1)), round_index=0)


@dataclass(frozen=True)
class TrainConfig:
    """One training run's knobs. ``batch=None`` means deterministic full-batch steps.

    ``lr_schedule`` is "exponential" (eta0 * decay^r) or "theoretical"
    (2 / (max(8L, mu*E) + mu*r) with mu the regularization strength and L
    estimated from the feature norms).
    """

    local_steps: int = 10
    batch: int | None = 24
    rounds: int = 200
    seed: int = 0
    l2: float = 1e-4
    lr_schedule: str = "exponential"
    eta0: float = 0.1
    decay: float = 0.996
    participation: ParticipationVector | None = None
    eval_stride: int = 1
    sim_t_base: float = 1.0
    sim_t_comp: float = 0.001

    def __post_init__(self):
        if self.local_steps < 0:
            raise ValueError(f"local_steps must be >= 0, got {self.local_steps}")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.l2 < 0.0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        if self.lr_schedule not in ("exponential", "theoretical"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.eval_stride < 1:
            raise ValueError(f"eval_stride must be >= 1, got {self.eval_stride}")


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    participants: tuple
    loss: float
    accuracy: float
    sim_time: float      # cumulative simulated seconds at the end of the round


def _augment(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((len(x), 1))])


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Regularized cross-entropy over (x, y) and its gradient in w."""
    return _loss_and_grad(w, _augment(x), y, l2)


def _loss_and_grad(w: np.ndarray, xa: np.ndarray, y: np.ndarray, l2: float):
    """loss_and_grad on rows that already carry the bias column."""
    probs = _softmax(xa @ w.T)
    n = len(y)
    ll = -np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean()
    reg = 0.5 * l2 * float(np.sum(w * w))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad = delta.T @ xa / n + l2 * w
    return ll + reg, grad


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy of the logits z against y, formed as in loss_and_grad.

    Overwrites z. The row max is taken column by column: max does no
    rounding, so this equals ``z.max(axis=1)`` bit for bit, and on these
    few-column rows it is about three times faster.
    """
    m = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(m, z[:, j], out=m)
    z -= m[:, None]
    e = np.exp(z, out=z)
    p = e[np.arange(len(y)), y] / e.sum(axis=1)
    return -np.log(np.maximum(p, 1e-300))


def sample_loss(w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    """loss_and_grad's loss, without the gradient."""
    return float(_cross_entropy(_augment(x) @ w.T, y).mean() + 0.5 * l2 * float(np.sum(w * w)))


def _sgd_step(w: np.ndarray, x: np.ndarray, y: np.ndarray, lr: float, l2: float) -> np.ndarray:
    """One gradient step of each stacked model w[s] on its own batch, in place.

    w is (S, C, D+1), x is (S, B, D+1) with the bias column, y is (S, B).
    Each slice goes through the operations of loss_and_grad's gradient, so
    each model moves bit for bit as a lone step would move it. Returns the
    gradients; the loss is never formed.
    """
    z = x @ w.transpose(0, 2, 1)
    z -= z.max(axis=2, keepdims=True)
    probs = np.exp(z, out=z)
    probs /= probs.sum(axis=2, keepdims=True)
    n = y.shape[1]
    probs[np.arange(len(y))[:, None], np.arange(n), y] -= 1.0
    grad = probs.transpose(0, 2, 1) @ x / n + l2 * w
    w -= lr * grad
    return grad


class _Shards:
    """Every client's bias-augmented rows, stacked once in client order.

    Client n's shard is rows ``rows[n]`` of ``xa`` and ``y``: a slice, not a
    second copy.
    """

    def __init__(self, shards):
        self.sizes = [len(x) for x, _ in shards]
        total = sum(self.sizes)
        self.weights = [size / total for size in self.sizes]     # a_n = d_n / D
        self.starts = np.cumsum([0] + self.sizes[:-1])
        self.rows = [slice(start, start + size)
                     for start, size in zip(self.starts.tolist(), self.sizes)]
        self.xa = _augment(np.concatenate([x for x, _ in shards]))
        self.y = np.concatenate([y for _, y in shards])

    def loss(self, w: np.ndarray, l2: float) -> float:
        """sum_n a_n * (regularized loss on shard n): global_loss, bit for bit.

        The logits are formed shard by shard, because OpenBLAS picks its
        kernel by matrix size and a single product over all rows differs in
        the last bit on some of them; everything after runs once over all rows.
        """
        z = np.empty((len(self.y), len(w)))
        for rows in self.rows:
            np.matmul(self.xa[rows], w.T, out=z[rows])
        losses = _cross_entropy(z, self.y)
        reg = 0.5 * l2 * float(np.sum(w * w))
        total = 0.0
        for a, rows, size in zip(self.weights, self.rows, self.sizes):
            total += a * (np.add.reduce(losses[rows]) / size + reg)   # the shard's mean
        return float(total)

    def local_sgd(self, models, clients, rngs, local_steps, batch, lr, l2, norms=None):
        """Local SGD in place: row s of the stacked models steps on client
        ``clients[s]``'s shard, with minibatches drawn from ``rngs[s]``.

        Minibatches are drawn with replacement, with one draw of E*B indices
        per row, in row order. That consumes a generator exactly as E draws
        of B do, so rows that keep a run's participant order draw the indices
        of a per-participant loop. Each step gathers its own rows, so memory
        does not grow with E. ``batch=None`` steps on the whole shard, one row
        at a time. When ``norms`` is given, an array of shape (len(clients),
        local_steps), it receives each step's gradient norm.
        """
        if batch is None:
            for s, n in enumerate(clients):
                rows = self.rows[n]
                whole = (self.xa[None, rows], self.y[None, rows])
                self._steps(models[s:s + 1], [whole] * local_steps, lr, l2,
                            None if norms is None else norms[s:s + 1])
            return
        draws = [rng.integers(0, self.sizes[n], size=local_steps * batch)
                 for n, rng in zip(clients, rngs)]
        idx = np.array(draws, dtype=np.intp).reshape(len(clients), local_steps, batch)
        idx += self.starts[clients][:, None, None]
        steps = idx.transpose(1, 0, 2)
        self._steps(models, ((self.xa[i], self.y[i]) for i in steps), lr, l2, norms)

    @staticmethod
    def _steps(models, batches, lr, l2, norms):
        for e, (x, y) in enumerate(batches):
            grad = _sgd_step(models, x, y, lr, l2)
            if norms is not None:
                norms[:, e] = [np.linalg.norm(g) for g in grad]


def local_sgd(
    w: np.ndarray,
    shard: tuple,
    local_steps: int,
    batch: int | None,
    lr: float,
    l2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run E minibatch gradient steps on the shard; batches drawn with replacement.

    ``batch=None`` uses the whole shard every step (deterministic full-batch
    gradient descent).
    """
    if len(shard[0]) == 0:
        raise ValueError("empty shard")
    models = w[None].copy()
    _Shards([shard]).local_sgd(models, [0], [rng], local_steps, batch, lr, l2)
    return models[0]


def sample_participants(q: ParticipationVector, rng: np.random.Generator) -> list:
    """Independent Bernoulli inclusion per client; any subset can occur."""
    return np.flatnonzero(rng.random(len(q)) < np.asarray(q.q)).tolist()


def _aggregate(w_prev: np.ndarray, models, coefs) -> np.ndarray:
    """w_prev + sum_i coefs[i] (models[i] - w_prev), summed in the given order."""
    w = w_prev.copy()
    for model, coef in zip(models, coefs):
        w += coef * (model - w_prev)
    return w


def aggregate(
    w_prev: np.ndarray,
    local_updates: dict,
    q: ParticipationVector,
    profiles: list,
) -> np.ndarray:
    """Inverse-probability-weighted update over the participant set.

    w_next = w_prev + sum_{n in S} (a_n / q_n) (w_n - w_prev). An empty
    participant set leaves the model unchanged.
    """
    order = sorted(local_updates)
    for n in order:
        if q.q[n] == 0.0:
            raise ValueError(f"client {n}: update received but participation probability is 0")
    return _aggregate(w_prev, [local_updates[n] for n in order],
                      [profiles[n].weight / q.q[n] for n in order])


def global_loss(w: np.ndarray, dataset: FederatedDataset, l2: float = 0.0) -> float:
    """Datasize-weighted average of the per-client regularized losses."""
    if dataset.n_clients == 0:
        raise ValueError("empty dataset")
    return _Shards(dataset.shards).loss(w, l2)


def _accuracy(w: np.ndarray, test_xa: np.ndarray, test_labels: np.ndarray) -> float:
    return float(np.mean((test_xa @ w.T).argmax(axis=1) == test_labels))


def test_accuracy(w: np.ndarray, test_features: np.ndarray, test_labels: np.ndarray) -> float:
    """Fraction of correct argmax predictions on the test set."""
    if len(test_features) == 0:
        raise ValueError("empty test set")
    return _accuracy(w, _augment(test_features), test_labels)


def theoretical_lr(round_index: int, smoothness: float, mu: float, local_steps: int) -> float:
    return 2.0 / (max(8.0 * smoothness, mu * local_steps) + mu * round_index)


def estimate_smoothness(dataset: FederatedDataset, l2: float) -> float:
    """Crude smoothness constant for the logistic objective: l2 + max ||x~||^2 / 4."""
    max_norm_sq = max(
        float(np.max(np.sum(x**2, axis=1) + 1.0)) for x, _ in dataset.shards
    )
    return l2 + max_norm_sq / 4.0


def learning_rate_schedule(cfg: TrainConfig, dataset: FederatedDataset):
    """The learning rate of cfg's schedule as a function of the round index.

    The theoretical schedule's smoothness estimate is computed here, once
    per run, not once per round.
    """
    if cfg.lr_schedule == "exponential":
        return lambda round_index: cfg.eta0 * cfg.decay**round_index
    mu = cfg.l2 if cfg.l2 > 0.0 else 1e-4
    smoothness = estimate_smoothness(dataset, cfg.l2)
    local_steps = max(cfg.local_steps, 1)
    return lambda round_index: theoretical_lr(round_index, smoothness, mu, local_steps)


def train(
    dataset: FederatedDataset,
    cfg: TrainConfig,
    profiles: list | None = None,
    record_states: bool = False,
):
    """Run the full simulated federated loop and return per-round metrics.

    Deterministic for a fixed seed. Rounds with no participant advance the
    counter without touching the model. When ``record_states`` is set, the
    per-round models are returned alongside the metrics. The weights a_n
    come from ``profiles`` when given, from the datasizes otherwise. Every
    loaded OpenBLAS runs on one thread for the length of the call.
    """
    return train_runs(dataset, [cfg], profiles, record_states)[0]


def train_runs(
    dataset: FederatedDataset,
    cfgs: list,
    profiles: list | None = None,
    record_states: bool = False,
) -> list:
    """Run several training runs as one loop: one ``train`` result per config, in order.

    The configs may differ only in ``seed`` and ``participation``. Each run
    samples its participants and draws its minibatches from its own
    generator, and aggregates, advances its simulated time and is evaluated
    on its own, so each result equals ``train`` on that config alone, bit for
    bit. Only the local steps are shared: each round, one stacked step moves
    the participants of every run at once.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("train_runs needs at least one config")
    if len({replace(c, seed=0, participation=None) for c in cfgs}) > 1:
        raise ValueError("the configs of train_runs may differ only in seed and participation")
    for c in cfgs:
        if c.participation is None:
            raise ValueError("cfg.participation must be set")
        if len(c.participation) != dataset.n_clients:
            raise ValueError(
                f"participation has {len(c.participation)} entries for {dataset.n_clients} clients"
            )
    cfg = cfgs[0]

    shards = _Shards(dataset.shards)
    a = shards.weights if profiles is None else [p.weight for p in profiles]
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    ws = [np.zeros((dataset.n_classes, dataset.dim + 1)) for _ in cfgs]
    runs = [([], []) for _ in cfgs]      # (metrics, states) per run
    sim_times = [0.0] * len(cfgs)
    has_test = len(dataset.test_labels) > 0
    test_xa = _augment(dataset.test_features)
    learning_rate = learning_rate_schedule(cfg, dataset)
    with _blas.one_thread():
        for r in range(cfg.rounds):
            participants = [sample_participants(c.participation, rng) for c, rng in zip(cfgs, rngs)]
            owners = [k for k, p in enumerate(participants) for _ in p]
            if owners:
                models = np.stack(ws)[owners]
                shards.local_sgd(models, [n for p in participants for n in p],
                                 [rngs[k] for k in owners], cfg.local_steps, cfg.batch,
                                 learning_rate(r), cfg.l2)
            first = 0
            evaluate = (r + 1) % cfg.eval_stride == 0 or r == cfg.rounds - 1
            for k, (c, p) in enumerate(zip(cfgs, participants)):
                if p:
                    q = c.participation.q
                    ws[k] = _aggregate(ws[k], models[first:first + len(p)],
                                       [a[n] / q[n] for n in p])
                    first += len(p)
                    max_shard = max(shards.sizes[n] for n in p)
                    batch = cfg.batch if cfg.batch is not None else max_shard
                    sim_times[k] += cfg.sim_t_base + cfg.sim_t_comp * (max_shard * cfg.local_steps / batch)
                else:
                    sim_times[k] += cfg.sim_t_base
                metrics, states = runs[k]
                if evaluate:
                    w = ws[k]
                    metrics.append(
                        RoundMetrics(
                            round_index=r,
                            participants=tuple(p),
                            loss=shards.loss(w, cfg.l2),
                            accuracy=(_accuracy(w, test_xa, dataset.test_labels)
                                      if has_test else float("nan")),
                            sim_time=sim_times[k],
                        )
                    )
                if record_states:
                    states.append(ws[k].copy())
    if record_states:
        return runs
    return [metrics for metrics, _ in runs]
