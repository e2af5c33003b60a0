"""Simulated federated training with Bernoulli participation and unbiased aggregation.

Each round, every client joins independently with its own probability;
participants run local SGD on the shared multinomial logistic model, and the
server applies the inverse-probability-weighted update whose expectation over
participant sets equals the full-participation average. Wall time is
simulated, not measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    xa = _augment(x)
    probs = _softmax(xa @ w.T)
    n = len(y)
    ll = -np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean()
    reg = 0.5 * l2 * float(np.sum(w * w))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad = delta.T @ xa / n + l2 * w
    return ll + reg, grad


def sample_loss(w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    loss, _ = loss_and_grad(w, x, y, l2)
    return loss


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
    x, y = shard
    if len(x) == 0:
        raise ValueError("empty shard")
    w = w.copy()
    for _ in range(local_steps):
        if batch is None:
            bx, by = x, y
        else:
            idx = rng.integers(0, len(x), size=batch)
            bx, by = x[idx], y[idx]
        _, grad = loss_and_grad(w, bx, by, l2)
        w -= lr * grad
    return w


def sample_participants(q: ParticipationVector, rng: np.random.Generator) -> list:
    """Independent Bernoulli inclusion per client; any subset can occur."""
    draws = rng.random(len(q))
    return [n for n, (u, qn) in enumerate(zip(draws, q.q)) if u < qn]


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
    w = w_prev.copy()
    for n in sorted(local_updates):
        qn = q.q[n]
        if qn == 0.0:
            raise ValueError(f"client {n}: update received but participation probability is 0")
        w += profiles[n].weight / qn * (local_updates[n] - w_prev)
    return w


def global_loss(w: np.ndarray, dataset: FederatedDataset, l2: float = 0.0) -> float:
    """Datasize-weighted average of the per-client regularized losses."""
    if dataset.n_clients == 0:
        raise ValueError("empty dataset")
    total = 0.0
    for (x, y), a in zip(dataset.shards, _weights(dataset)):
        total += a * sample_loss(w, x, y, l2)
    return total


def test_accuracy(w: np.ndarray, test_features: np.ndarray, test_labels: np.ndarray) -> float:
    """Fraction of correct argmax predictions on the test set."""
    if len(test_features) == 0:
        raise ValueError("empty test set")
    preds = (_augment(test_features) @ w.T).argmax(axis=1)
    return float(np.mean(preds == test_labels))


def _weights(dataset: FederatedDataset) -> list:
    total = dataset.total_samples
    return [len(x) / total for x, _ in dataset.shards]


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
    per-round models are returned alongside the metrics.
    """
    if cfg.participation is None:
        raise ValueError("cfg.participation must be set")
    q = cfg.participation
    if len(q) != dataset.n_clients:
        raise ValueError(f"participation has {len(q)} entries for {dataset.n_clients} clients")

    class _Prof:
        __slots__ = ("weight",)

        def __init__(self, weight):
            self.weight = weight

    if profiles is None:
        profiles = [_Prof(a) for a in _weights(dataset)]

    rng = np.random.default_rng(cfg.seed)
    w = np.zeros((dataset.n_classes, dataset.dim + 1))
    metrics = []
    states = []
    sim_time = 0.0
    has_test = len(dataset.test_labels) > 0
    learning_rate = learning_rate_schedule(cfg, dataset)
    for r in range(cfg.rounds):
        participants = sample_participants(q, rng)
        lr = learning_rate(r)
        updates = {}
        for n in participants:
            updates[n] = local_sgd(
                w, dataset.shards[n], cfg.local_steps, cfg.batch, lr, cfg.l2, rng
            )
        w = aggregate(w, updates, q, profiles)
        if participants:
            max_shard = max(len(dataset.shards[n][0]) for n in participants)
            batch = cfg.batch if cfg.batch is not None else max_shard
            sim_time += cfg.sim_t_base + cfg.sim_t_comp * (max_shard * cfg.local_steps / batch)
        else:
            sim_time += cfg.sim_t_base
        if (r + 1) % cfg.eval_stride == 0 or r == cfg.rounds - 1:
            loss = global_loss(w, dataset, cfg.l2)
            acc = test_accuracy(w, dataset.test_features, dataset.test_labels) if has_test else float("nan")
            metrics.append(
                RoundMetrics(
                    round_index=r,
                    participants=tuple(participants),
                    loss=loss,
                    accuracy=acc,
                    sim_time=sim_time,
                )
            )
        if record_states:
            states.append(w.copy())
    if record_states:
        return metrics, states
    return metrics
