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

Where a second CPU is free (``_fork_helper``), a forked helper process
evaluates the evaluated rounds' models, sent in batches, while the parent
trains the following rounds; it runs the same evaluation code on the same
arrays, so the metrics are bit-identical to evaluating in place.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _blas, _fork
from .core import FederatedDataset, ParticipationVector, Population


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
        for name in ("local_steps", "rounds", "eval_stride", "batch"):
            value = getattr(self, name)
            if name == "batch" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("l2", "eta0", "decay", "sim_t_base", "sim_t_comp"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
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
        if not shards:
            raise ValueError("no client shards")
        self.sizes = [len(x) for x, _ in shards]
        total = sum(self.sizes)
        self.weights = [size / total for size in self.sizes]     # a_n = d_n / D
        self.starts = np.cumsum([0] + self.sizes[:-1])
        self.rows = [slice(start, start + size)
                     for start, size in zip(self.starts.tolist(), self.sizes)]
        self.xa = np.empty((total, shards[0][0].shape[1] + 1))
        for (x, _), rows in zip(shards, self.rows):
            self.xa[rows, :-1] = x
        self.xa[:, -1] = 1.0
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
    population: Population,
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
                      [population.a[n] / q.q[n] for n in order])


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


# The parent sends evaluated rounds to the forked helper in batches of at
# least this many model-rows (models times pooled training rows), some tens
# of milliseconds of evaluation. Each message wakes a sleeping helper, which
# then spends more CPU than the evaluation alone: a few tenths of a
# millisecond per message on a 2-core x86-64 machine, enough that one
# message per round raised the desk workload's CPU time by 7%.
_BATCH_ROWS = 100_000
# Batches the helper may fall behind the parent. The helper answers every
# batch it receives, so at most this many replies, a few floats per model,
# wait in the pipe: the helper never blocks on a full buffer, and the parent,
# which reads before it sends more, only ever waits for the helper.
_BATCHES_IN_FLIGHT = 4


def _fork_helper(cfg: TrainConfig, runs: int, rows: int) -> bool:
    """Whether train_runs evaluates in a forked helper process.

    Only where ``_fork.second_cpu`` allows one, and only when the
    evaluations of ``runs`` models on ``rows`` pooled rows each fill more
    than one batch. The last batch is evaluated after the last round, so a
    lone batch overlaps nothing: runs evaluated at their last round only
    (``eval_stride >= rounds``) never fork.
    """
    evaluations = -(-cfg.rounds // cfg.eval_stride)
    rounds_per_batch = -(-_BATCH_ROWS // (runs * rows))
    return evaluations > rounds_per_batch and _fork.second_cpu()


class _InlineEvaluator:
    """Evaluates each submitted round at once, in this process."""

    def __init__(self, evaluate):
        self._evaluate = evaluate
        self._results = []

    def submit(self, models) -> None:
        self._results.append(self._evaluate(models))

    def results(self) -> list:
        return self._results

    def close(self) -> None:
        pass


def _serve(evaluate, conn) -> None:
    """The helper's loop: evaluate each received batch of rounds, reply in order."""
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            return
        conn.send([evaluate(models) for models in batch])


class _ForkedEvaluator:
    """Evaluates submitted rounds in a forked helper process, in order.

    Forked once the shards, the test rows and the one-thread BLAS are in
    place, the helper shares those arrays copy-free and runs the same code on
    them. Rounds are sent in batches of ``_BATCH_ROWS``; before each send the
    parent collects any replies that are ready.
    """

    def __init__(self, evaluate, rows: int):
        """``rows``: the pooled training rows each model is evaluated on."""
        self._helper = _fork.Helper("fedpricing-eval", "evaluation",
                                    functools.partial(_serve, evaluate))
        self._rows = rows
        self._batch = []
        self._results = []
        self._in_flight = 0

    def submit(self, models) -> None:
        self._batch.append(list(models))      # the models themselves are never changed
        if len(self._batch) * len(models) * self._rows >= _BATCH_ROWS:
            self._send()

    def results(self) -> list:
        if self._batch:
            self._send()
        while self._in_flight:
            self._receive()
        return self._results

    def close(self) -> None:
        self._helper.close()

    def _send(self) -> None:
        conn = self._helper.conn
        while self._in_flight and (self._in_flight >= _BATCHES_IN_FLIGHT or conn.poll()):
            self._receive()
        try:
            conn.send(self._batch)
        except OSError:         # the helper is gone: raise its last reply's error, if any
            while self._in_flight:
                self._receive()
            raise self._helper.exited() from None
        self._batch = []
        self._in_flight += 1

    def _receive(self) -> None:
        self._results.extend(self._helper.receive())
        self._in_flight -= 1


def train(dataset: FederatedDataset, cfg: TrainConfig, *, record_states: bool = False):
    """Run the full simulated federated loop and return per-round metrics.

    Deterministic for a fixed seed. Rounds with no participant advance the
    counter without touching the model. When ``record_states`` is set, the
    per-round models are returned alongside the metrics. The weights are
    the shards' data shares, a_n = d_n / sum(d). Every loaded OpenBLAS runs
    on one thread for the length of the call.
    """
    return train_runs(dataset, [cfg], record_states=record_states)[0]


def train_runs(dataset: FederatedDataset, cfgs: list, *, record_states: bool = False) -> list:
    """Run several training runs as one loop: one ``train`` result per config, in order.

    The configs may differ only in ``seed`` and ``participation``. Each run
    samples its participants and draws its minibatches from its own
    generator, and aggregates, advances its simulated time and is evaluated
    on its own, so each result equals ``train`` on that config alone, bit for
    bit. Only the local steps are shared: each round, one stacked step moves
    the participants of every run at once.

    When ``_fork_helper`` allows, the evaluation runs in a forked helper
    process while the following rounds train; the metrics are the same bit
    for bit. An error in the helper is raised here as a RuntimeError, and the
    helper is stopped and reaped before this returns or raises.
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
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    ws = [np.zeros((dataset.n_classes, dataset.dim + 1)) for _ in cfgs]
    states = [[] for _ in cfgs]
    evaluated = []          # (round, participants of each run, sim time of each run)
    sim_times = [0.0] * len(cfgs)
    has_test = len(dataset.test_labels) > 0
    test_xa = _augment(dataset.test_features)
    learning_rate = learning_rate_schedule(cfg, dataset)

    def evaluate(models):
        return [(shards.loss(w, cfg.l2),
                 _accuracy(w, test_xa, dataset.test_labels) if has_test else float("nan"))
                for w in models]

    def start_evaluator():
        if _fork_helper(cfg, len(cfgs), len(shards.y)):
            return _ForkedEvaluator(evaluate, len(shards.y))
        return _InlineEvaluator(evaluate)

    with _blas.one_thread(), contextlib.closing(start_evaluator()) as evaluator:
        for r in range(cfg.rounds):
            participants = [sample_participants(c.participation, rng) for c, rng in zip(cfgs, rngs)]
            owners = [k for k, p in enumerate(participants) for _ in p]
            if owners:
                models = np.stack(ws)[owners]
                shards.local_sgd(models, [n for p in participants for n in p],
                                 [rngs[k] for k in owners], cfg.local_steps, cfg.batch,
                                 learning_rate(r), cfg.l2)
            first = 0
            for k, (c, p) in enumerate(zip(cfgs, participants)):
                if p:
                    q = c.participation.q
                    ws[k] = _aggregate(ws[k], models[first:first + len(p)],
                                       [shards.weights[n] / q[n] for n in p])
                    first += len(p)
                    max_shard = max(shards.sizes[n] for n in p)
                    batch = cfg.batch if cfg.batch is not None else max_shard
                    sim_times[k] += cfg.sim_t_base + cfg.sim_t_comp * (max_shard * cfg.local_steps / batch)
                else:
                    sim_times[k] += cfg.sim_t_base
                if record_states:
                    states[k].append(ws[k].copy())
            if (r + 1) % cfg.eval_stride == 0 or r == cfg.rounds - 1:
                evaluator.submit(ws)
                evaluated.append((r, participants, list(sim_times)))
        scores = evaluator.results()
    runs = [[] for _ in cfgs]
    for (r, participants, times), round_scores in zip(evaluated, scores):
        for metrics, p, sim_time, (loss, accuracy) in zip(runs, participants, times, round_scores):
            metrics.append(RoundMetrics(round_index=r, participants=tuple(p), loss=loss,
                                        accuracy=accuracy, sim_time=sim_time))
    if record_states:
        return list(zip(runs, states))
    return runs
