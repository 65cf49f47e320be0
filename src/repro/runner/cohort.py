"""Cohort planning: order a batch so runs sharing a thermal kernel
execute back to back.

A sweep over policies, controllers, workloads, or seeds revisits the
*same* 3D stack run after run — every config maps to one assembled
:class:`~repro.sim.system.ThermalSystem` and its cached LU
factorizations. This module groups a batch's configs by that identity
(:func:`cohort_signature`). :class:`repro.runner.BatchRunner` executes
each group as a plain loop of independent runs; grouping only decides
the run order, so consecutive runs hit the process-wide system memo:

* the assembled networks and LU factorizations, so a cohort factorizes
  each (setting, dt) system at most once however many members step
  through it;
* the steady initial field (the paper starts every run "with steady
  state temperature values", a leakage fixed point costing six sparse
  solves), memoized per ``(utilization, initial pump setting)`` in the
  system's memo entry;
* for ``solver="krylov"`` neighbor cohorts, the preconditioner LU pool.

Per-run state — scheduler queues, DPM, controller, forecaster,
workload trace, recorders — is never shared, so results are
bit-identical to running each config alone.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.cache import _system_memo_key
from repro.sim.config import SimulationConfig
from repro.telemetry import trace as _trace
from repro.thermal.rc_network import ThermalParams


def cohort_signature(config: SimulationConfig) -> tuple:
    """The thermal-kernel identity of a config.

    The projection of the config onto the fields that decide which
    assembled network *and* which backward-Euler system matrix a run
    steps through: the system-memo key (layers, cooling kind, grid,
    thermal params — see :func:`repro.sim.cache._system_memo_key`)
    plus the sampling interval (the LU depends on dt). Configs with
    equal signatures share every factorization; nothing else about
    them (policy, controller, workload, seed, duration) matters to the
    numeric kernel.
    """
    return _system_memo_key(config) + (config.sampling_interval,)


def structural_signature(config: SimulationConfig) -> tuple:
    """The *structural* thermal identity of a config.

    :func:`cohort_signature` with the swept thermal-parameter values
    projected out: layers, cooling kind, grid resolution, solver tier,
    and sampling interval — everything that decides the sparsity
    structure of the system matrices, but not their values. Configs
    that agree here but differ in ``thermal_params`` build *different*
    networks of the *same* shape, which is exactly the neighborhood a
    ``solver="krylov"`` run preconditions across.
    """
    return tuple(
        part
        for part in _system_memo_key(config)
        if not isinstance(part, ThermalParams)
    ) + (config.sampling_interval,)


def group_cohorts(configs: Sequence[SimulationConfig]) -> list[list[int]]:
    """Partition config indices into cohorts sharing one thermal kernel.

    Returns index lists: every index appears in exactly one cohort (a
    true partition — property-tested over arbitrary sweep expansions),
    cohorts are ordered by first appearance, and members keep
    submission order.

    Exact-solver configs group by the full :func:`cohort_signature`.
    ``solver="krylov"`` configs group by :func:`structural_signature`
    instead, so design points that differ only in ``thermal_params``
    values land in one *neighbor cohort* and share the preconditioner
    pool (and the in-process LRU caches) by running back to back.
    """
    with _trace.span("cohort.plan", n_configs=len(configs)) as plan_span:
        groups: dict[tuple, list[int]] = {}
        for i, config in enumerate(configs):
            if config.solver == "krylov":
                key: tuple = ("structural",) + structural_signature(config)
            else:
                key = ("exact",) + cohort_signature(config)
            groups.setdefault(key, []).append(i)
        plan_span.set_attrs(n_cohorts=len(groups))
        return list(groups.values())


def split_cohort(members: list[int], parts: int) -> list[list[int]]:
    """Split one cohort into up to ``parts`` balanced, ordered slices.

    The parallel batch path uses this so a single large cohort still
    occupies every pool worker; members are independent runs, so
    slicing never changes results. Slice sizes differ by at most one
    and concatenate back to ``members``.
    """
    parts = max(1, min(parts, len(members)))
    base, extra = divmod(len(members), parts)
    out, at = [], 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append(members[at:at + size])
        at += size
    return out
