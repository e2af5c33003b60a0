"""Simulated federated training with Bernoulli participation and unbiased aggregation.

Each round, every client joins independently with its own probability;
participants run local SGD on the shared multinomial logistic model, and the
server applies the inverse-probability-weighted update whose expectation over
participant sets equals the full-participation average. Wall time is
simulated, not measured.

Independent runs that share everything but their seed and participation
vector step together (``train_runs``): each round, every participant of
every run takes its local steps in one stacked gradient step (``_Step``),
the package's one loss gradient and, with the scores, its one softmax.

The evaluated rounds' models are evaluated in batches (``_Evaluator``).
When a run's evaluations fill more than one batch and a second CPU is free,
a helper forked at the first full batch evaluates batches while the parent
trains the following rounds; the parent evaluates the batches the helper
has not reached, and the last one. Both run the same evaluation code on the
same arrays, so the metrics are bit-identical to evaluating in place.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import _blas, _fork
from .core import (FederatedDataset, Population, _FieldwiseEq, _Pooled, check_rules,
                   is_finite, is_integer, participation_levels)


@dataclass(frozen=True, eq=False)
class TrainConfig(_FieldwiseEq):
    """One training run's knobs. ``batch=None`` means deterministic full-batch steps.

    ``participation`` is None or the levels, any array-like, held as a
    checked read-only array. Two configs are equal when every field is.

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
    participation: np.ndarray | None = None
    eval_stride: int = 1
    sim_t_base: float = 1.0
    sim_t_comp: float = 0.001

    def __post_init__(self):
        for names, is_kind, kind in (
            (("local_steps", "rounds", "eval_stride", "batch"), is_integer, "an integer"),
            (("l2", "eta0", "decay", "sim_t_base", "sim_t_comp"), is_finite, "a finite number"),
        ):
            for name in names:
                value = getattr(self, name)
                if not (is_kind(value) or name == "batch" and value is None):
                    raise ValueError(f"{name} must be {kind}, got {value!r}")
        check_rules(vars(self), (
            ("local_steps", self.local_steps >= 0, ">= 0"),
            ("batch", self.batch is None or self.batch >= 1, ">= 1"),
            ("rounds", self.rounds >= 1, ">= 1"),
            ("l2", self.l2 >= 0.0, "nonnegative"),
            ("eta0", self.eta0 > 0.0, "positive"),
            ("decay", self.decay > 0.0, "positive"),
            ("sim_t_base", self.sim_t_base >= 0.0, "nonnegative"),
            ("sim_t_comp", self.sim_t_comp >= 0.0, "nonnegative"),
            ("eval_stride", self.eval_stride >= 1, ">= 1"),
        ))
        if self.lr_schedule not in ("exponential", "theoretical"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.participation is not None:
            object.__setattr__(self, "participation", participation_levels(self.participation))


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    participants: tuple
    loss: float
    accuracy: float
    sim_time: float      # cumulative simulated seconds at the end of the round


def loss_and_grad(w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Regularized cross-entropy over (x, y) and its gradient in w."""
    xa, y = _Pooled.block(x, y, np.shape(x)[1], "shard")
    return _Step(w[None], len(y)).loss_and_grad(w, xa, y, l2)


def _row_max(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1)`` into ``out``, taken column by column: max does no
    rounding, so this equals the axis max bit for bit, and on these
    few-column rows it is about three times faster."""
    np.copyto(out, z[..., 0])
    for j in range(1, z.shape[-1]):
        np.maximum(out, z[..., j], out=out)
    return out


def _softmax_head(z: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """z <- exp(z - row max) in place; returns its row sums, in ``sums``."""
    z -= _row_max(z, sums)[..., None]
    np.exp(z, out=z)
    return np.add.reduce(z, axis=-1, out=sums)


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy of the logits z against y. Overwrites z."""
    sums = _softmax_head(z, np.empty(len(z)))
    p = z[np.arange(len(y)), y] / sums
    return -np.log(np.maximum(p, 1e-300))


class _Step:
    """One gradient step of each stacked model on its own batch, with the step's
    arrays allocated once and reused by every call.

    For the S stacked models of shape (C, D+1) of ``models``, on batches of
    ``rows`` rows.
    """

    def __init__(self, models: np.ndarray, rows: int):
        stack, classes, _ = models.shape
        self._z = np.empty((stack, rows, classes))
        self._row = np.empty((stack, rows))
        self._first = np.arange(0, stack * rows * classes, classes).reshape(stack, rows)
        self._labels = np.empty_like(self._first)
        self._grad = np.empty_like(models)
        self._tmp = np.empty_like(models)

    def gradient(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float, loss=None):
        """The gradients at w, which the next call overwrites. w is (S, C, D+1),
        x is (S, B, D+1) with the bias column, y is (S, B); ``loss``, an array
        of S if given, receives each model's mean cross-entropy."""
        z, m, grad, tmp = self._z, self._row, self._grad, self._tmp
        np.matmul(x, w.transpose(0, 2, 1), out=z)
        _softmax_head(z, m)
        z /= m[:, :, None]
        np.add(self._first, y, out=self._labels)
        if loss is not None:
            np.mean(-np.log(np.maximum(z.reshape(-1)[self._labels], 1e-300)), axis=-1, out=loss)
        z.reshape(-1)[self._labels] -= 1.0
        np.matmul(z.transpose(0, 2, 1), x, out=grad)
        grad /= y.shape[1]
        np.multiply(l2, w, out=tmp)
        grad += tmp
        return grad

    def __call__(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, lr: float, l2: float):
        """Step w in place by -lr times the gradients, and return them."""
        grad = self.gradient(w, x, y, l2)
        np.multiply(lr, grad, out=self._tmp)
        w -= self._tmp
        return grad

    def loss_and_grad(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
        """One model's regularized loss and a copy of its gradient, on x (B, D+1) and y (B,)."""
        loss = np.empty(1)
        grad = self.gradient(w[None], x[None], y[None], l2, loss)[0].copy()
        return loss[0] + 0.5 * l2 * float(np.sum(w * w)), grad


def _local_sgd(dataset: FederatedDataset, models, clients, rngs, local_steps, batch, lr, l2,
               norms=None):
    """Local SGD in place: row s of the stacked models steps on client
    ``clients[s]``'s rows of the dataset, read in place, with minibatches
    drawn from ``rngs[s]``.

    Minibatches are drawn with replacement, E*B indices per row, in row
    order: one draw per stretch of rows that share a generator, its bound
    each row's shard size repeated E*B times. That consumes a generator
    exactly as one draw of E*B per row does, and so as E draws of B, so
    rows that keep a run's participant order draw the indices of a
    per-participant loop. Each step gathers its own rows, so memory
    does not grow with E. ``batch=None`` steps on the whole shard, one row
    at a time. When ``norms`` is given, an array of shape (len(clients),
    local_steps), it receives each step's gradient norm.
    """
    x, y, sizes = dataset.features, dataset.labels, dataset.datasizes
    if batch is None:
        for s, n in enumerate(clients):
            rows = dataset.client_rows[n]
            whole = (x[None, rows], y[None, rows])
            model = models[s:s + 1]
            _steps(model, _Step(model, sizes[n]), [whole] * local_steps, lr, l2,
                   None if norms is None else norms[s:s + 1])
        return
    draws = [rng.integers(0, np.repeat([sizes[n] for n, _ in rows], local_steps * batch))
             for rng, rows in itertools.groupby(zip(clients, rngs), key=lambda row: row[1])]
    idx = np.concatenate(draws).reshape(len(clients), local_steps, batch)
    idx += np.array([dataset.client_rows[n].start for n in clients])[:, None, None]
    steps = idx.transpose(1, 0, 2)
    _steps(models, _Step(models, batch), ((x[i], y[i]) for i in steps), lr, l2, norms)


def _steps(models, step, batches, lr, l2, norms):
    """Step the models on each (x, y) of ``batches`` in turn, through the
    ``_Step`` ``step``; ``norms[:, e]`` receives step e's gradient norms."""
    for e, (x, y) in enumerate(batches):
        grad = step(models, x, y, lr, l2)
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
    classes, columns = w.shape
    dataset = FederatedDataset.from_shards([shard], np.empty((0, columns - 1)),
                                           np.empty(0, dtype=np.int64), classes, columns - 1)
    models = w[None].copy()
    _local_sgd(dataset, models, [0], [rng], local_steps, batch, lr, l2)
    return models[0]


def _sample(levels: np.ndarray, rng: np.random.Generator) -> list:
    return np.flatnonzero(rng.random(len(levels)) < levels).tolist()


def sample_participants(q, rng: np.random.Generator) -> list:
    """Independent Bernoulli inclusion per client; any subset can occur."""
    return _sample(participation_levels(q), rng)


def _aggregate(w_prev: np.ndarray, models, coefs) -> np.ndarray:
    """w_prev + sum_i coefs[i] (models[i] - w_prev), summed in the given order."""
    w = w_prev.copy()
    for model, coef in zip(models, coefs):
        w += coef * (model - w_prev)
    return w


def aggregate(
    w_prev: np.ndarray,
    local_updates: dict,
    q,
    population: Population,
) -> np.ndarray:
    """Inverse-probability-weighted update over the participant set.

    w_next = w_prev + sum_{n in S} (a_n / q_n) (w_n - w_prev). An empty
    participant set leaves the model unchanged.
    """
    levels = participation_levels(q, len(population))
    order = sorted(local_updates)
    for n in order:
        if levels[n] == 0.0:
            raise ValueError(f"client {n}: update received but participation probability is 0")
    return _aggregate(w_prev, [local_updates[n] for n in order],
                      [population.a[n] / levels[n] for n in order])


def global_loss(w: np.ndarray, dataset: FederatedDataset, l2: float = 0.0) -> float:
    """sum_n a_n * (regularized loss on client n's rows): the datasize-weighted
    average of the per-client losses, and the loss that training evaluates
    and calibration reports.

    The logits are formed shard by shard, because OpenBLAS picks its kernel
    by matrix size and a single product over all rows differs in the last
    bit on some of them; everything after runs once over all rows.
    """
    z = np.empty((dataset.total_samples, len(w)))
    for rows in dataset.client_rows:
        np.matmul(dataset.features[rows], w.T, out=z[rows])
    losses = _cross_entropy(z, dataset.labels)
    reg = 0.5 * l2 * float(np.sum(w * w))
    total = 0.0
    for a, rows, size in zip(dataset.weights.tolist(), dataset.client_rows, dataset.datasizes):
        total += a * (np.add.reduce(losses[rows]) / size + reg)   # the shard's mean
    return float(total)


def _accuracy(w: np.ndarray, test_xa: np.ndarray, test_labels: np.ndarray) -> float:
    return float(np.mean((test_xa @ w.T).argmax(axis=1) == test_labels))


def test_accuracy(w: np.ndarray, test_features: np.ndarray, test_labels: np.ndarray) -> float:
    """Fraction of correct argmax predictions on the test set."""
    if len(test_features) == 0:
        raise ValueError("empty test set")
    return _accuracy(w, *_Pooled.block(test_features, test_labels, np.shape(test_features)[1]))


def theoretical_lr(round_index: int, smoothness: float, mu: float, local_steps: int) -> float:
    return 2.0 / (max(8.0 * smoothness, mu * local_steps) + mu * round_index)


# Rows estimate_smoothness squares at once, so its temporary stays small however
# large a shard is; each row's sum is its own reduction, so blocks keep the bits.
_SMOOTHNESS_BLOCK_ROWS = 1024


def estimate_smoothness(dataset: FederatedDataset, l2: float) -> float:
    """Crude smoothness constant for the logistic objective: l2 + max ||x~||^2 / 4."""
    x, block = dataset.features[:, :-1], _SMOOTHNESS_BLOCK_ROWS
    max_norm_sq = max(float(np.max(np.sum(x[i:i + block] ** 2, axis=1) + 1.0))
                      for i in range(0, len(x), block))
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
# Batches the helper may hold unanswered. A full batch goes to the helper
# only while it holds fewer; otherwise the parent evaluates that batch itself,
# so neither process waits for the other until the last batch. The helper
# answers every batch it receives, so at most this many replies, a few floats
# per model, wait in the pipe: the helper never blocks on a full buffer.
_BATCHES_IN_FLIGHT = 2


def _serve(evaluate, conn) -> None:
    """The helper's loop: evaluate each received batch of rounds, reply in order."""
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            return
        conn.send([evaluate(models) for models in batch])


class _Evaluator:
    """Evaluates submitted rounds in batches of ``_BATCH_ROWS``.

    A full batch is dispatched when the next round is submitted, so the last
    batch is never dispatched: ``results`` evaluates it here. The first
    dispatch forks a helper where ``_fork.second_cpu`` allows; it runs the
    same code on the parent's arrays. A dispatched batch goes to the helper
    while it holds fewer than ``_BATCHES_IN_FLIGHT`` unanswered batches, and
    is evaluated here otherwise. A reply fills the slot of the oldest batch
    the helper holds, so the scores stay in round order.
    """

    def __init__(self, evaluate, rows: int):
        """``rows``: the pooled training rows each model is evaluated on."""
        self._evaluate = evaluate
        self._rows = rows
        self._helper = None
        self._batch = []
        self._slots = []            # each batch's scores, or None while the helper holds it
        self._held = collections.deque()    # the slots of the batches the helper holds

    def submit(self, models) -> None:
        if len(self._batch) * len(models) * self._rows >= _BATCH_ROWS:
            self._dispatch()
        self._batch.append(list(models))      # the models themselves are never changed

    def results(self) -> list:
        if self._batch:
            self._evaluate_here()
        while self._held:
            self._receive()
        return [scores for slot in self._slots for scores in slot]

    def close(self) -> None:
        if self._helper is not None:
            self._helper.close()

    def _dispatch(self) -> None:
        if not self._slots and _fork.second_cpu():      # the first dispatch
            self._helper = _fork.Helper("fedpricing-eval", "evaluation",
                                        functools.partial(_serve, self._evaluate))
        while self._held and self._helper.conn.poll():
            self._receive()
        if self._helper is not None and len(self._held) < _BATCHES_IN_FLIGHT:
            self._send()
        else:
            self._evaluate_here()

    def _evaluate_here(self) -> None:
        self._slots.append([self._evaluate(models) for models in self._batch])
        self._batch = []

    def _send(self) -> None:
        try:
            self._helper.conn.send(self._batch)
        except OSError:         # the helper is gone: raise its last reply's error, if any
            while self._held:
                self._receive()
            raise self._helper.exited() from None
        self._held.append(len(self._slots))
        self._slots.append(None)
        self._batch = []

    def _receive(self) -> None:
        self._slots[self._held.popleft()] = self._helper.receive()


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

    Where ``_Evaluator`` forks a helper, part of the evaluation runs in it
    while the following rounds train; the metrics are the same bit for bit.
    An error in the helper is raised here as a RuntimeError, and the helper
    is stopped and reaped before this returns or raises.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("train_runs needs at least one config")
    cfg = cfgs[0]
    shared = replace(cfg, seed=0, participation=None)
    if any(replace(c, seed=0, participation=None) != shared for c in cfgs[1:]):
        raise ValueError("the configs of train_runs may differ only in seed and participation")
    for c in cfgs:
        if c.participation is None:
            raise ValueError("cfg.participation must be set")
        participation_levels(c.participation, dataset.n_clients)

    weights, sizes = dataset.weights.tolist(), dataset.datasizes
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    ws = [np.zeros((dataset.n_classes, dataset.dim + 1)) for _ in cfgs]
    states = [[] for _ in cfgs]
    evaluated = []          # (round, participants of each run, sim time of each run)
    sim_times = [0.0] * len(cfgs)
    has_test = len(dataset.test_labels) > 0
    learning_rate = learning_rate_schedule(cfg, dataset)

    def evaluate(models):
        return [(global_loss(w, dataset, cfg.l2),
                 _accuracy(w, dataset.test_rows, dataset.test_labels) if has_test
                 else float("nan"))
                for w in models]

    evaluator = _Evaluator(evaluate, dataset.total_samples)
    with _blas.one_thread(), contextlib.closing(evaluator):
        for r in range(cfg.rounds):
            participants = [_sample(c.participation, rng) for c, rng in zip(cfgs, rngs)]
            owners = [k for k, p in enumerate(participants) for _ in p]
            if owners:
                models = np.stack(ws)[owners]
                _local_sgd(dataset, models, [n for p in participants for n in p],
                           [rngs[k] for k in owners], cfg.local_steps, cfg.batch,
                           learning_rate(r), cfg.l2)
            first = 0
            for k, (c, p) in enumerate(zip(cfgs, participants)):
                if p:
                    ws[k] = _aggregate(ws[k], models[first:first + len(p)],
                                       [weights[n] / c.participation[n] for n in p])
                    first += len(p)
                    max_shard = max(sizes[n] for n in p)
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
