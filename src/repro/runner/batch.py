"""Batch simulation runner with process fan-out.

The paper's evaluation is inherently a batch problem — Table II
workloads x policies x cooling modes x 2/4-layer stacks — and every
design-space sweep built on top of it (hysteresis, inlet-temperature,
stack-depth studies) multiplies that matrix further. This module runs
such batches:

* :class:`BatchRunner` takes a list of
  :class:`~repro.sim.config.SimulationConfig` (plus optional
  pre-generated traces) and runs them in-process, characterizing
  lazily on each run's own system, or pre-warms one
  :class:`~repro.sim.cache.CharacterizationCache` in the parent
  process and fans the runs out over a
  :class:`concurrent.futures.ProcessPoolExecutor`;
* results come back as a structured :class:`BatchResult` in input
  order, bit-identical to serial execution: every run is fully
  determined by its config (the trace is generated from
  ``config.seed`` inside the worker) and the characterizations are
  finished artifacts shipped to the workers, never re-derived;
* :mod:`repro.io.batch` exports a :class:`BatchResult` as JSON or CSV.

Deterministic per-run seeding: configs carry their own seeds; when a
sweep wants distinct stochastic instances of one scenario,
:func:`reseeded` derives ``seed = base_seed + index`` replacements so a
batch is reproducible run-for-run regardless of worker scheduling.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runner.cohort import group_cohorts, split_cohort
from repro.sim import engine
from repro.sim.cache import CharacterizationCache
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.workload.generator import ThreadTrace


def reseeded(
    configs: Sequence[SimulationConfig], base_seed: int
) -> list[SimulationConfig]:
    """Copies of ``configs`` with deterministic per-run seeds.

    Run ``i`` gets ``seed = base_seed + i``, so a batch of otherwise
    identical configs becomes distinct-but-reproducible stochastic
    instances (and the assignment never depends on worker scheduling).
    """
    return [replace(config, seed=base_seed + i) for i, config in enumerate(configs)]


@dataclass
class BatchRun:
    """One completed run of a batch.

    Attributes
    ----------
    index:
        Position in the submitted config list.
    config:
        The run's configuration.
    result:
        The simulation output.
    elapsed:
        Wall-clock seconds the run took in its process (excludes
        queueing and transport).
    """

    index: int
    config: SimulationConfig
    result: SimulationResult
    elapsed: float


@dataclass
class BatchResult:
    """All runs of a batch, in submission order.

    Attributes
    ----------
    runs:
        One :class:`BatchRun` per submitted config.
    wall_time:
        Wall-clock seconds for the whole batch (excluding cache
        warm-up, which is shared and reported separately).
    warm_time:
        Seconds spent pre-warming the characterization cache; 0.0 on
        serial runs, which characterize inside the runs (and so
        inside ``wall_time``).
    n_workers:
        Worker processes used (1 = serial in-process execution).
    """

    runs: list[BatchRun]
    wall_time: float
    warm_time: float
    n_workers: int

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def results(self) -> list[SimulationResult]:
        """The bare simulation results, in submission order."""
        return [run.result for run in self.runs]

    @property
    def configs(self) -> list[SimulationConfig]:
        """The run configurations, in submission order."""
        return [run.config for run in self.runs]

    def summary_rows(self) -> list[dict]:
        """One flat dict per run: config descriptor + scalar digest.

        The row layout feeds :func:`repro.io.batch.write_batch_csv`
        and the ``repro batch`` CLI table.
        """
        from repro.io.batch import config_descriptor
        from repro.io.serialize import result_summary

        rows = []
        for run in self.runs:
            row = {"run": run.index}
            row.update(config_descriptor(run.config))
            row.update(result_summary(run.result))
            row["elapsed_s"] = run.elapsed
            rows.append(row)
        return rows


@dataclass
class ReducedRun:
    """One completed run, collapsed to its reducer payload.

    What :meth:`BatchRunner.iter_reduced` yields instead of a
    :class:`BatchRun`: the full :class:`SimulationResult` (megabytes of
    time series) is reduced *in the worker process* and only the
    payload crosses the pool boundary — the transport the sweep and
    distributed layers use, since their folds never need the series.
    """

    index: int
    config: SimulationConfig
    payload: Any
    elapsed: float


#: A worker-side reducer: ``(tag, config, result) -> payload``. Must be
#: picklable (a module-level function or a class instance) and pure —
#: it runs on whatever process executed the run.
RunReducer = Callable[[Any, SimulationConfig, Any], Any]


def _execute_group(
    task: tuple[list[tuple], Optional[RunReducer]],
) -> Iterator:
    """Run one task group (a cohort or a slice of one) as a plain loop,
    yielding each member as soon as it completes.

    ``task`` is ``(group, reducer)`` with ``group`` a list of
    ``(index, config, trace, tag)``. Each member builds its own
    :class:`~repro.sim.engine.Simulator`, which is dropped before the
    next one is built; members share only what the process-wide system
    memo holds. With a reducer, each result collapses to a
    :class:`ReducedRun` before leaving the process.
    """
    group, reducer = task
    runs = _metrics.counter("runner.runs")
    with _trace.span("cohort.execute", n_members=len(group)):
        for index, config, trace, tag in group:
            start = time.perf_counter()
            with _trace.span(
                "run", index=index, policy=config.policy, solver=config.solver
            ):
                result = engine.Simulator(config, trace=trace).run()
            elapsed = time.perf_counter() - start
            runs.inc()
            if reducer is None:
                yield BatchRun(index, config, result, elapsed)
            else:
                payload = reducer(tag, config, result)
                yield ReducedRun(index, config, payload, elapsed)


def _execute_group_remote(task: tuple) -> tuple[list, dict]:
    """Pool entrypoint: run a group and ship its metric delta back.

    Workers snapshot the telemetry registry around the group so only
    the group's *own* activity travels back (under ``fork`` the child
    inherits the parent's counter values; the diff cancels them). The
    parent merges every delta, so campaign counters aggregate across
    the pool exactly as they do serially.
    """
    before = _metrics.snapshot()
    items = list(_execute_group(task))
    return items, _metrics.snapshot_diff(before, _metrics.snapshot())


def _worker_init(
    cache: CharacterizationCache, trace_context: Optional[dict] = None
) -> None:
    """Install the parent's pre-warmed cache as the worker's default.

    Redundant under the ``fork`` start method (the child inherits the
    parent's module state) but required for ``spawn``/``forkserver``.
    Also activates the parent's trace context, so worker-side spans
    feed the worker's ``span.*`` timers (merged back per group).
    """
    engine.set_default_cache(cache)
    _trace.install_trace_context(trace_context)


class BatchRunner:
    """Runs a list of simulation configs, serially or across processes.

    Parameters
    ----------
    configs:
        The runs to execute, in order.
    traces:
        Optional pre-generated traces, one per config (``None`` entries
        fall back to the config's own seeded generator). Useful for
        replayed mpstat traces or the diurnal scenario shared across
        policies.
    max_workers:
        ``None`` or ``<= 1`` executes serially in-process; otherwise a
        :class:`~concurrent.futures.ProcessPoolExecutor` with that many
        workers is used (capped at the batch size).
    cache:
        The characterization cache the runs draw from (and that a
        parallel batch warms and ships to workers); defaults to the
        process-wide engine cache so batches share characterizations
        with prior in-process runs.

    A parallel batch pre-derives every needed characterization in the
    parent before fanning out, so the artifacts are computed once
    instead of once per worker. A serial batch never pre-warms: each
    run derives what it needs on the system it already holds, so no
    system is built twice.

    Runs are ordered by thermal cohort (see :mod:`repro.runner.cohort`)
    so runs sharing a network execute back to back and reuse its
    memoized factorizations and steady initial field; results still
    come back in submission order, bit-identical to running each
    config alone.
    """

    def __init__(
        self,
        configs: Sequence[SimulationConfig],
        traces: Optional[Sequence[Optional[ThreadTrace]]] = None,
        max_workers: Optional[int] = None,
        cache: Optional[CharacterizationCache] = None,
    ) -> None:
        if not configs:
            raise ConfigurationError("a batch needs at least one config")
        if traces is not None and len(traces) != len(configs):
            raise ConfigurationError(
                f"got {len(traces)} traces for {len(configs)} configs"
            )
        self.configs = list(configs)
        self.traces: list[Optional[ThreadTrace]] = (
            list(traces) if traces is not None else [None] * len(configs)
        )
        self.cache = cache if cache is not None else engine.default_cache()
        if max_workers is None:
            self.max_workers = 1
        elif max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        else:
            self.max_workers = min(max_workers, len(self.configs))

    @classmethod
    def suggested_workers(cls) -> int:
        """A sensible default worker count: the cores this process may
        run on (its CPU affinity), not the host total."""
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # platforms without sched_getaffinity
            return max(1, os.cpu_count() or 1)

    def warm_cache(self) -> float:
        """Pre-warm the cache for every config; returns elapsed seconds."""
        start = time.perf_counter()
        self.cache.warm(self.configs)
        return time.perf_counter() - start

    def _plan_groups(self) -> list[list[int]]:
        """The task groups this batch executes, as index lists.

        The :func:`repro.runner.cohort.group_cohorts` partition, with
        each cohort further split into balanced slices in parallel mode
        so a single large cohort still occupies every worker (members
        are independent runs, so slicing never changes results).
        Groups are ordered by first member; members keep submission
        order.
        """
        groups = group_cohorts(self.configs)
        if self.max_workers > 1:
            groups = [
                part
                for members in groups
                for part in split_cohort(members, self.max_workers)
            ]
        return groups

    def _iter_grouped(
        self,
        reducer: Optional[RunReducer],
        tags: Optional[Sequence],
    ) -> Iterator:
        """Shared engine behind :meth:`iter_runs` / :meth:`iter_reduced`:
        pre-warm a parallel batch's cache on first use, then execute."""
        if self.max_workers > 1:
            self.warm_cache()
        yield from self._execute(reducer, tags)

    def _execute(
        self,
        reducer: Optional[RunReducer],
        tags: Optional[Sequence],
    ) -> Iterator:
        """Execute the planned groups and re-emit their members in
        global submission order: a member is buffered until every
        earlier index has landed, so downstream folds stay
        deterministic however runs were grouped or scheduled. Serial
        groups stream member by member; a pool worker ships its whole
        group at once.
        """
        tasks = [
            (
                [
                    (
                        i,
                        self.configs[i],
                        self.traces[i],
                        None if tags is None else tags[i],
                    )
                    for i in members
                ],
                reducer,
            )
            for members in self._plan_groups()
        ]
        buffered: dict[int, Any] = {}
        emit_next = 0

        def ready():
            nonlocal emit_next
            while emit_next in buffered:
                yield buffered.pop(emit_next)
                emit_next += 1

        if self.max_workers <= 1:
            # Serial path: run in-process; each run fills the cache.
            previous = engine.default_cache()
            engine.set_default_cache(self.cache)
            try:
                for task in tasks:
                    for item in _execute_group(task):
                        buffered[item.index] = item
                        yield from ready()
            finally:
                engine.set_default_cache(previous)
        else:
            pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_worker_init,
                initargs=(self.cache, _trace.trace_context()),
            )
            try:
                # pool.map yields groups in submission order as they land.
                for items, delta in pool.map(
                    _execute_group_remote, tasks, chunksize=1
                ):
                    _metrics.merge(delta)
                    for item in items:
                        buffered[item.index] = item
                    yield from ready()
            finally:
                pool.shutdown(wait=True, cancel_futures=True)

    def iter_runs(self) -> Iterator[BatchRun]:
        """Stream completed runs in submission order.

        The workhorse behind :meth:`run` and the sweep layer
        (:class:`repro.sweep.SweepRunner`): each :class:`BatchRun` is
        yielded as soon as it (and everything before it) has finished,
        so a consumer holds O(in-flight) results instead of O(batch)
        (a parallel batch's in-flight bound is O(cohort slice): each
        worker ships its slice at once). Yield order is always submission order — downstream
        folds (aggregators, journals) are therefore deterministic
        regardless of worker scheduling. Closing the generator early
        cancels the unconsumed remainder of a parallel batch.
        """
        return self._iter_grouped(None, None)

    def iter_reduced(
        self, reducer: RunReducer, tags: Optional[Sequence] = None
    ) -> Iterator[ReducedRun]:
        """Stream runs collapsed to reducer payloads, in submission order.

        ``reducer(tag, config, result)`` executes on whatever process
        ran the simulation, so a parallel batch ships only its payload
        (an export row, fold payloads — kilobytes) back to the parent
        instead of pickling full result arrays. ``tags`` optionally
        aligns one opaque value per config (e.g. a sweep point's
        ``(index, key)``) for the reducer's benefit. Identical math to
        :meth:`iter_runs` + reducing in the parent — the reducer must
        be pure, and fold payloads are defined to be state-independent.
        """
        if tags is not None and len(tags) != len(self.configs):
            raise ConfigurationError(
                f"got {len(tags)} tags for {len(self.configs)} configs"
            )
        return self._iter_grouped(reducer, tags)

    def run(self) -> BatchResult:
        """Execute the batch; results come back in submission order."""
        warm_time = self.warm_cache() if self.max_workers > 1 else 0.0
        start = time.perf_counter()
        runs = list(self._execute(None, None))
        return BatchResult(
            runs=runs,
            wall_time=time.perf_counter() - start,
            warm_time=warm_time,
            n_workers=self.max_workers,
        )
