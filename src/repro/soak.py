"""The one experiment harness: what every soak driver and gated bench shares.

PAPER.md has no evaluation section, so this repo's evidence is its
experiment gates (E18, E21, E23, E24, E25, ...): each turns a sentence of
the paper into a pass/fail number. A scenario module (``soaks/serving.py``,
``soaks/resilience.py``, ``soaks/governor.py``, ``soaks/dist.py``,
``datacube/bench.py``) keeps only what is particular to it — the arrivals,
the system under test, the ledger, and *one* gate function beside the report
class that owns the acceptance thresholds. Everything else lives here, once:

* :func:`percentile` (nearest rank) and :func:`jain_index`;
* :func:`stream_seed`, the per-purpose stream seed of the soak workloads;
* :class:`ServerPool` — the arrivals -> free-server -> take -> schedule ->
  finish -> take loop on a :class:`~repro.cluster.simclock.Simulation`;
* :func:`gateway_residual` — the end-of-run drain and ticket-leak audit;
* :class:`Gate` — the one idiom every acceptance gate is written in;
* :func:`run_cli` — ``--smoke``/``--seed`` parsing, summary printing, the
  ``BENCH_<E>.json`` snapshot (re-read and checked for the experiment's
  required metric names) and the exit code. There is no ``--check`` flag:
  the CLI always gates, so in CI the command *is* the gate.
"""

from __future__ import annotations

import argparse
import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.simclock import Simulation
from repro.errors import ReproError
from repro.faults import derive_seed
from repro.obs import Observability, write_bench_snapshot


def stream_seed(seed: int, purpose: str) -> int:
    """Seed of one per-purpose workload stream (arrivals, tenants, ...).

    The domain is ``"breaker"`` because these streams were first derived
    through the circuit breaker's per-key helper; any other domain would
    move every arrival, and with it every recorded experiment number.
    """
    return derive_seed(seed, "breaker", purpose)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile for ``q`` in [0, 1]; 0.0 without samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index; 1.0 = perfectly even, 1/n = winner-take-all."""
    values = list(values)
    if not values:
        return 0.0
    total = float(sum(values))
    squares = sum(v * v for v in values)
    if squares <= 0.0:
        return 0.0
    return (total * total) / (len(values) * squares)


class ServerPool:
    """``servers`` simulated workers draining jobs on one simulation clock.

    Whenever a worker is free the pool asks ``take()`` for the next job
    (``None``: nothing can be dispatched right now) and ``start(job)`` for
    ``(service_s, *outcome)``, then schedules ``finish(job, *outcome)`` that
    far ahead. A finishing worker is freed *before* ``finish`` runs and the
    pool pumps again after it, so work that ``finish`` releases can take the
    same worker at the same instant. Events are scheduled in call order and
    the simulation breaks time ties by scheduling order, so a run is a pure
    function of the scenario's callbacks.
    """

    def __init__(self, sim: Simulation, servers: int,
                 take: Callable[[], object], start: Callable[..., tuple],
                 finish: Callable[..., None]):
        self.sim = sim
        self.servers = servers
        self.free = servers
        self._take = take
        self._start = start
        self._finish = finish

    @property
    def busy(self) -> int:
        return self.servers - self.free

    def pump(self) -> None:
        """Dispatch until the workers or the dispatchable jobs run out."""
        while self.free > 0:
            job = self._take()
            if job is None:
                return
            self.free -= 1
            service_s, *outcome = self._start(job)
            self.sim.schedule(
                service_s,
                lambda job=job, outcome=outcome: self._done(job, outcome),
            )

    def _done(self, job, outcome) -> None:
        self.free += 1
        self._finish(job, *outcome)
        self.pump()

    def run(self, arrivals: Iterable[tuple], arrive: Callable[..., None],
            report) -> None:
        """Play one scenario to the end: ``arrive(*job)`` at every
        ``(at_s, *job)`` of *arrivals*, the clock run dry, then the run's
        length and any still-busy worker stamped on *report*."""
        for at_s, *job in arrivals:
            self.sim.schedule_at(at_s, lambda job=job: arrive(*job))
        self.sim.run()
        report.duration_s = self.sim.now
        report.events_processed = self.sim.events_processed
        report.residual["busy_servers"] = self.busy


def gateway_residual(gateway) -> Dict[str, int]:
    """What a finished gateway run left behind; every value must be zero.

    ``assert_drained`` fails hard on a queued entry, a live coalesce key,
    tenant in-flight residue or a ticket that outlived its request; the
    returned ledger lets the report's ``verify()`` name the leak again.
    """
    gateway.assert_drained()
    return {
        "queued": len(gateway.queue),
        "coalesce_in_flight": gateway.coalescer.in_flight,
        "ticket_leak": gateway.tickets_issued - gateway.tickets_released,
    }


class Gate:
    """An experiment's acceptance criteria, written as a table.

    ``with Gate(ServingError) as check:`` collects every criterion that does
    not hold — ``check(what, value, op, bound)`` for a number against its
    threshold, ``check.that(holds, what)`` for a yes/no invariant — and on
    exit raises the one typed error naming *all* of them with the values
    that broke them, so a failing CI step shows the whole verdict at once.
    """

    _OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}

    def __init__(self, error):
        self._error = error
        self._violations: List[str] = []

    def __call__(self, what: str, value, op: str, bound) -> None:
        if not self._OPS[op](value, bound):
            self._violations.append(
                f"{what}: {_format(value)} is not {op} {_format(bound)}"
            )

    def that(self, holds: bool, what: str) -> None:
        if not holds:
            self._violations.append(what)

    def drained(self, residual: Dict[str, int]) -> None:
        """Every entry of an end-of-run residual ledger must be zero."""
        for name, value in residual.items():
            self.that(value == 0, f"soak did not drain: {name}={value}")

    def __enter__(self) -> "Gate":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None and self._violations:
            raise self._error("; ".join(self._violations))


def _format(value) -> str:
    return f"{value:.5g}" if isinstance(value, float) else str(value)


def run_cli(
    experiment: str,
    description: str,
    scenario: Callable[
        [bool, int, Optional[int]],
        Tuple[Observability, List[Tuple[str, Dict]], Dict],
    ],
    *,
    seed: int,
    require: Sequence[str] = (),
    size: Optional[Tuple[str, int, int]] = None,
    argv: Optional[Sequence[str]] = None,
) -> int:
    """The command line of one experiment; its exit code is the gate.

    ``scenario(smoke, seed, size)`` runs the experiment, applies its gate
    function and returns ``(obs, [(label, summary), ...], meta)``; a violated
    gate raises a :class:`~repro.errors.ReproError`. *size* is
    ``(flag, smoke_default, full_default)`` for the experiments that let the
    caller scale the run (``--requests``/``--queries``). The snapshot is
    written to ``BENCH_<experiment>.json``, read back through the schema
    validator and must carry every metric named in *require*.
    """
    parser = argparse.ArgumentParser(description=f"{experiment} {description}")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI-sized run")
    parser.add_argument("--seed", type=int, default=seed)
    if size is not None:
        flag, smoke_size, full_size = size
        parser.add_argument(flag, dest="size", type=int, default=None)
    args = parser.parse_args(argv)
    amount = getattr(args, "size", None)
    if size is not None and amount is None:
        amount = smoke_size if args.smoke else full_size
    try:
        obs, summaries, meta = scenario(args.smoke, args.seed, amount)
        for label, summary in summaries:
            print(f"[{label}] " + " ".join(
                f"{key}={_format(value)}" for key, value in summary.items()
            ))
        path = write_bench_snapshot(experiment, obs, meta, require)
    except ReproError as violation:
        print(f"FAILED {experiment}: {violation}")
        return 1
    print(f"[obs] snapshot written: {path}")
    return 0
