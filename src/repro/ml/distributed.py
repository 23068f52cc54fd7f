"""Data-parallel distributed training with simulated communication.

Gradient math is **exact**: each global batch is split across W virtual
workers, per-shard gradients are computed with real backprop, and the
weighted average is applied — bitwise the same update a single worker doing
the whole batch would make (the equivalence property tested in the suite).
What is *simulated* is time: per-step compute scales with the shard size and
each synchronisation pays the collective's cost from
:mod:`repro.cluster.comm`.

Strategies: ``allreduce`` (ring), ``parameter_server``, ``broadcast``.

Fault tolerance (experiment E17):

* **elastic recovery** — with a :class:`~repro.faults.FaultInjector`, a
  worker that crashes drops out at the next step boundary; its data shard is
  skipped and the gradient average is rescaled over the examples the
  survivors actually processed, so every update remains *mathematically
  exact* for the data it saw (the same update a single worker computing
  exactly those examples would make);
* **checkpoint/restore** — ``checkpoint_every`` writes model + optimizer +
  progress to an ``.npz`` (reusing ``Sequential.state_dict``); a restored
  trainer resumes the loss trajectory bitwise.

Observability: with an :class:`~repro.obs.Observability` bundle the trainer
reports the comm-vs-compute split per strategy (``ml.compute_time_s`` /
``ml.comm_time_s`` counters in simulated seconds), a per-step total-time
histogram (``ml.step_time_s``), step/crash/checkpoint counters, and the
surviving worker count as a gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import MLError
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
from repro.cluster.comm import (
    NetworkModel,
    broadcast_time_s,
    parameter_server_time_s,
    ring_allreduce_time_s,
)
from repro.ml.losses import softmax_cross_entropy
from repro.ml.network import Sequential
from repro.ml.optimizers import Optimizer, WarmupLinearScalingSchedule

STRATEGIES = ("allreduce", "parameter_server", "broadcast")


@dataclass
class TrainingReport:
    """Per-run accounting: losses plus the simulated time breakdown."""

    steps: int = 0
    losses: List[float] = field(default_factory=list)
    compute_time_s: float = 0.0
    comm_time_s: float = 0.0
    worker_crashes: int = 0
    checkpoints_written: int = 0

    @property
    def total_time_s(self) -> float:
        return self.compute_time_s + self.comm_time_s

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise MLError("no steps recorded")
        return self.losses[-1]

    def throughput(self, examples_per_step: int) -> float:
        """Simulated examples/second."""
        if self.total_time_s == 0.0:
            return 0.0
        return self.steps * examples_per_step / self.total_time_s


class DataParallelTrainer:
    """Synchronous data-parallel SGD over virtual workers."""

    def __init__(
        self,
        model: Sequential,
        optimizer: Optimizer,
        workers: int = 1,
        strategy: str = "allreduce",
        servers: int = 1,
        network: NetworkModel = NetworkModel(),
        example_cost_s: float = 1e-4,
        schedule: Optional[WarmupLinearScalingSchedule] = None,
        loss_fn: Callable = softmax_cross_entropy,
        injector: Optional["FaultInjector"] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        obs: Optional[Observability] = None,
    ):
        if workers < 1:
            raise MLError(f"workers must be >= 1, got {workers}")
        if strategy not in STRATEGIES:
            raise MLError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
        if example_cost_s < 0:
            raise MLError("example_cost_s must be non-negative")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise MLError("checkpoint_every must be >= 1")
        if checkpoint_every is not None and checkpoint_path is None:
            raise MLError("checkpoint_every requires checkpoint_path")
        self.model = model
        self.optimizer = optimizer
        self.workers = workers
        self.strategy = strategy
        self.servers = servers
        self.network = network
        self.example_cost_s = example_cost_s
        self.schedule = schedule
        self.loss_fn = loss_fn
        self.injector = injector
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.obs = resolve(obs)
        self.report = TrainingReport()
        self._active: List[int] = list(range(workers))

    @property
    def active_workers(self) -> Tuple[int, ...]:
        """Worker slots still alive (all of them unless chaos killed some)."""
        return tuple(self._active)

    # ------------------------------------------------------------------
    # One synchronous step
    # ------------------------------------------------------------------

    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One synchronous data-parallel step over the global batch (x, y)."""
        n = x.shape[0]
        if n < self.workers:
            raise MLError(
                f"global batch of {n} cannot be split across {self.workers} workers"
            )
        if self.schedule is not None:
            self.schedule.apply(self.optimizer, self.report.steps)
        if self.injector is not None:
            self._collect_crashes()

        # Data ownership is fixed by the original worker count; dead workers'
        # shards are skipped and the average is rescaled over the examples
        # the survivors actually process, keeping the update exact for them.
        shards = np.array_split(np.arange(n), self.workers)
        if len(self._active) == self.workers:
            processed = n
        else:
            processed = sum(shards[w].size for w in self._active)
            if processed == 0:
                raise MLError("surviving workers hold no examples this step")
        self.model.zero_grad()
        parameters = self.model.parameters()
        accumulated = [np.zeros_like(p.value) for p in parameters]
        total_loss = 0.0
        largest_shard = 0

        for worker in self._active:
            shard = shards[worker]
            if shard.size == 0:
                continue
            largest_shard = max(largest_shard, shard.size)
            self.model.zero_grad()
            logits = self.model.forward(x[shard], training=True)
            loss, dlogits = self.loss_fn(logits, y[shard])
            self.model.backward(dlogits)
            weight = shard.size / processed
            total_loss += loss * weight
            for accumulator, parameter in zip(accumulated, parameters):
                accumulator += parameter.grad * weight

        # Install the averaged gradient and step once — exactly the update a
        # single worker with the processed examples would apply.
        for parameter, accumulator in zip(parameters, accumulated):
            parameter.grad[...] = accumulator
        self.optimizer.step()

        # Simulated time: workers compute their shard in parallel, then sync.
        compute_s = largest_shard * self.example_cost_s
        comm_s = self.sync_time_s(len(self._active))
        self.report.compute_time_s += compute_s
        self.report.comm_time_s += comm_s
        self.report.steps += 1
        self.report.losses.append(total_loss)
        metrics = self.obs.metrics
        metrics.counter("ml.steps", strategy=self.strategy).inc()
        metrics.counter("ml.compute_time_s", strategy=self.strategy).inc(compute_s)
        metrics.counter("ml.comm_time_s", strategy=self.strategy).inc(comm_s)
        metrics.histogram("ml.step_time_s", strategy=self.strategy).observe(
            compute_s + comm_s
        )
        metrics.gauge("ml.active_workers").set(len(self._active))
        if (
            self.checkpoint_every is not None
            and self.report.steps % self.checkpoint_every == 0
        ):
            self.save_checkpoint()
        return total_loss

    def _collect_crashes(self) -> None:
        """Retire workers the plan kills at (or before) the current step."""
        for worker in list(self._active):
            if self.injector.worker_crashed(worker, self.report.steps):
                self._active.remove(worker)
                self.report.worker_crashes += 1
                self.obs.metrics.counter("ml.worker_crashes").inc()
        if not self._active:
            raise MLError("all workers crashed; no survivors to train on")

    def sync_time_s(self, workers: Optional[int] = None) -> float:
        """Cost of one gradient synchronisation for the current model size.

        ``workers`` defaults to the configured worker count; the elastic
        path passes the surviving count so a shrunken ring costs less.
        """
        count = self.workers if workers is None else workers
        message = self.model.parameter_bytes
        if self.strategy == "allreduce":
            return ring_allreduce_time_s(count, message, self.network)
        if self.strategy == "parameter_server":
            return parameter_server_time_s(
                count, message, self.servers, self.network
            )
        return broadcast_time_s(count, message, self.network)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    @staticmethod
    def _npz(path: str) -> str:
        return path if path.endswith(".npz") else path + ".npz"

    def save_checkpoint(self, path: Optional[str] = None) -> str:
        """Write model + optimizer + progress to one ``.npz`` file.

        Returns the path written. Restoring from it resumes the loss
        trajectory bitwise (tested in the suite).
        """
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise MLError("no checkpoint path configured")
        path = self._npz(path)
        payload: Dict[str, np.ndarray] = {}
        for key, value in self.model.state_dict().items():
            payload[f"model.{key}"] = value
        for key, value in self.optimizer.state_dict().items():
            payload[f"optimizer.{key}"] = value
        payload["report.steps"] = np.int64(self.report.steps)
        payload["report.losses"] = np.asarray(self.report.losses, dtype=np.float64)
        payload["report.compute_time_s"] = np.float64(self.report.compute_time_s)
        payload["report.comm_time_s"] = np.float64(self.report.comm_time_s)
        payload["report.worker_crashes"] = np.int64(self.report.worker_crashes)
        payload["active_workers"] = np.asarray(self._active, dtype=np.int64)
        np.savez(path, **payload)
        self.report.checkpoints_written += 1
        self.obs.metrics.counter("ml.checkpoints").inc()
        return path

    def load_checkpoint(self, path: Optional[str] = None) -> None:
        """Restore model, optimizer state, and progress from a checkpoint."""
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise MLError("no checkpoint path configured")
        with np.load(self._npz(path)) as data:
            model_state = {
                key[len("model."):]: data[key]
                for key in data.files
                if key.startswith("model.")
            }
            optimizer_state = {
                key[len("optimizer."):]: data[key]
                for key in data.files
                if key.startswith("optimizer.")
            }
            self.model.load_state_dict(model_state)
            self.optimizer.load_state_dict(optimizer_state)
            self.report.steps = int(data["report.steps"])
            self.report.losses = [float(v) for v in data["report.losses"]]
            self.report.compute_time_s = float(data["report.compute_time_s"])
            self.report.comm_time_s = float(data["report.comm_time_s"])
            self.report.worker_crashes = int(data["report.worker_crashes"])
            self._active = [int(w) for w in data["active_workers"]]

    # ------------------------------------------------------------------
    # Epoch driver
    # ------------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        shuffle_seed: int = 0,
    ) -> TrainingReport:
        """Train for *epochs* over (x, y) with a fixed global batch size."""
        if epochs < 1:
            raise MLError("epochs must be >= 1")
        n = x.shape[0]
        if batch_size < self.workers:
            raise MLError("batch_size must be >= workers")
        rng = np.random.default_rng(shuffle_seed)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n - self.workers + 1, batch_size):
                batch = order[start : start + batch_size]
                if batch.size < self.workers:
                    continue
                self.train_step(x[batch], y[batch])
        return self.report

