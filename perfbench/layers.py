"""Outside-in per-layer tracing for the benchmark's traced campaigns.

Nothing under ``src/`` changes. Two sources of intervals are merged:

* the spans ``repro.telemetry.trace`` already records (``step``,
  ``factorize``, ``gmres``, ``fold``, ...), read from its ring buffer;
* wrappers this module installs, from inside the benchmark process,
  around public methods of layers that emit no span (scheduler, power,
  DPM, controller, transient solve, grid gathers, caches, journal
  writes, ``os.fsync``).

Every interval carries a layer name. Self time is an interval's
duration minus the parts of it covered by its children, so per-layer
self times plus the root's own self time (``unattributed.s``) sum to
the traced wall time. Spans whose name is not mapped below are dropped
from the merge, which hands their time to the enclosing layer, so a
span added to ``src/`` later never breaks the sum.

Counters come from ``repro.telemetry.metrics`` snapshot diffs and from
call counts the wrappers keep.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

#: Existing telemetry span name -> benchmark layer.
SPAN_LAYERS = {
    "assemble": "thermal.assemble",
    "factorize": "thermal.factorize",
    "steady": "thermal.steady",
    "gmres": "thermal.gmres",
    "step": "sim.engine",
    "step_begin": "sim.engine",
    "step_finish": "sim.engine",
    "run": "runner",
    "cohort.plan": "runner",
    "cohort.execute": "runner",
    "fold": "sweep.fold",
    "facility.advance": "facility.advance",
}

#: Registry role -> (method names, layer) wrapped on each created
#: component's class, so user-registered components are covered too.
REGISTRY_LAYERS = {
    "policy": (("dispatch_target", "rebalance"), "sched"),
    "flow controller": (("update",), "control"),
    "forecaster": (("observe", "predict"), "control"),
    "workload": (("build_trace",), "workload.trace_build"),
}

#: Layers whose self time is reported, in report order. ``root`` is the
#: campaign interval itself; its self time is ``unattributed.s``.
TIME_LAYERS = (
    "thermal.transient",
    "thermal.assemble",
    "thermal.factorize",
    "thermal.steady",
    "thermal.gmres",
    "thermal.grid",
    "thermal.system",
    "sim.characterize",
    "sim.steady_init",
    "sim.system",
    "sim.engine",
    "workload.trace_build",
    "sched",
    "power",
    "power.dpm",
    "control",
    "facility.advance",
    "facility.coupling",
    "runner",
    "sweep.runner",
    "sweep.fold",
    "sweep.journal",
    "sweep.export",
    "dist.plan",
    "dist.worker",
    "dist.merge",
    "io.fsync",
)

ROOT = "root"

#: Ring-buffer capacity for one traced campaign; a campaign that fills
#: it is reported as a trace failure rather than silently truncated.
TRACE_CAPACITY = 2_000_000

#: Tolerance when checking that a child interval ends inside its parent
#: (perf_counter readings taken on either side of a return).
NEST_TOLERANCE_S = 1.0e-6


def metric_name(layer: str) -> str:
    """The per-layer metric a layer's self time is reported under."""
    if layer == "sim.engine":
        return "sim.engine.self_s"
    if layer == "dist.worker":
        return "dist.worker_overhead.s"
    return layer + ".s"


class LayerTracer:
    """Installs the wrappers around one traced campaign.

    :meth:`run_traced` installs them, runs the campaign with telemetry
    spans on, and restores every patched attribute before returning,
    so untraced campaigns run the program untouched.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped_classes: set[tuple[type, str]] = set()
        self.intervals: list[tuple[float, float, str]] = []
        self.calls: Counter = Counter()

    # --- wrapping ---------------------------------------------------------

    def _timed(self, fn: Callable, layer: str, count: Optional[str]) -> Callable:
        intervals = self.intervals
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((t0, clock(), layer))
                if count is not None:
                    calls[count] += 1

        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self, owner: object, attr: str, layer: str, count: Optional[str] = None
    ) -> None:
        """Time ``owner.attr`` (a plain function or method) as ``layer``."""
        self._patch(owner, attr, self._timed(getattr(owner, attr), layer, count))

    def count_only(self, owner: object, attr: str, count: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        fn = getattr(owner, attr)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[count] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _wrap_component_class(self, cls: type, methods, layer: str) -> None:
        count = "sched.calls" if layer == "sched" else None
        for name in methods:
            if (cls, name) in self._wrapped_classes or not hasattr(cls, name):
                continue
            self._wrapped_classes.add((cls, name))
            # An inherited method is recorded as None: uninstall deletes
            # the class attribute again instead of pinning a copy.
            self._patches.append((cls, name, cls.__dict__.get(name)))
            setattr(cls, name, self._timed(getattr(cls, name), layer, count))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark times from outside."""
        import repro.dist
        import repro.sim.cache as sim_cache
        import repro.sim.engine as engine
        from repro.io.jsonl import JsonlAppender
        from repro.io.sweep import SweepCsvWriter
        from repro.power.components import PowerModel
        from repro.power.dpm import DpmPolicy
        from repro.pump.laing_ddc import PumpState
        from repro.registry import Registry
        from repro.sim.system import ThermalSystem
        from repro.sweep.runner import SweepResult, SweepRunner
        from repro.thermal.grid import ThermalGrid
        from repro.thermal.rc_network import RCNetwork
        from repro.thermal.solver import KrylovTransientSolver, TransientSolver

        for cls in (TransientSolver, KrylovTransientSolver):
            self.wrap(cls, "step", "thermal.transient", "thermal.transient.solves")
            self.wrap(cls, "step_many", "thermal.transient")
        for name in (
            "unit_temperature_vector", "power_vector_from_array", "max_die_temperature",
        ):
            self.wrap(ThermalGrid, name, "thermal.grid")
        for name in ("network", "transient_solver", "steady_solver"):
            self.wrap(ThermalSystem, name, "thermal.system")
        self.wrap(
            ThermalSystem, "initial_temperatures", "sim.steady_init",
            "runner.steady_inits",
        )
        for name in ("table", "floor", "thermal_weights", "warm"):
            self.wrap(sim_cache.CharacterizationCache, name, "sim.characterize")
        self.wrap(
            sim_cache.CharacterizationCache, "thread_trace", "workload.trace_build"
        )
        # system_for is imported by name into the engine; patch both.
        self.wrap(sim_cache, "system_for", "sim.system")
        self.wrap(engine, "system_for", "sim.system")
        for name in ("__init__", "run", "result"):
            self.wrap(engine.Simulator, name, "sim.engine")
        self.wrap(PowerModel, "unit_power_vector", "power")
        for name in ("observe", "wake", "states"):
            self.wrap(DpmPolicy, name, "power.dpm")
        self.wrap(PumpState, "advance", "control")
        for name in ("inlet_boundary_delta", "coolant_heat_rejected"):
            self.wrap(RCNetwork, name, "facility.coupling")
        self.wrap(SweepRunner, "run", "sweep.runner")
        self.wrap(JsonlAppender, "append", "sweep.journal")
        for name in ("write", "finish"):
            self.wrap(SweepCsvWriter, name, "sweep.export")
        self.wrap(SweepResult, "save_json", "sweep.export")
        self.wrap(repro.dist, "plan_campaign", "dist.plan")
        self.wrap(repro.dist, "run_worker", "dist.worker")
        self.wrap(repro.dist, "merge_campaign", "dist.merge")
        self.wrap(repro.dist.MergeResult, "save_json", "dist.merge")
        self.wrap(os, "fsync", "io.fsync", "io.fsync.calls")
        self.count_only(os, "replace", "io.rename.calls")
        self.count_only(os, "rename", "io.rename.calls")

        create = Registry.create
        tracer = self

        @functools.wraps(create)
        def create_and_wrap(registry, *args, **kwargs):
            component = create(registry, *args, **kwargs)
            methods_layer = REGISTRY_LAYERS.get(registry.role)
            if methods_layer is not None and component is not None:
                tracer._wrap_component_class(type(component), *methods_layer)
            return component

        self._patch(Registry, "create", create_and_wrap)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._wrapped_classes.clear()

    # --- one traced campaign ------------------------------------------------

    def run_traced(self, campaign: Callable[[], object]) -> "TracedCampaign":
        """Run ``campaign()`` with spans and wrappers on; returns its record."""
        from repro.telemetry import metrics, trace

        self.intervals.clear()
        self.calls.clear()
        trace.clear()
        before = metrics.snapshot()
        self.install()
        trace.enable(capacity=TRACE_CAPACITY)
        try:
            t0 = time.perf_counter()
            output = campaign()
            t1 = time.perf_counter()
        finally:
            trace.disable()
            self.uninstall()
        events = trace.events()
        trace.clear()
        delta = metrics.snapshot_diff(before, metrics.snapshot())
        return TracedCampaign(
            output=output,
            wall_s=t1 - t0,
            start=t0,
            end=t1,
            spans=events,
            intervals=list(self.intervals),
            calls=Counter(self.calls),
            metrics=delta,
        )


@dataclass
class TracedCampaign:
    """The raw record of one traced campaign."""

    output: object
    wall_s: float
    start: float
    end: float
    #: Telemetry span events recorded during the campaign.
    spans: list[dict]
    #: Wrapper intervals ``(start, end, layer)``.
    intervals: list[tuple[float, float, str]]
    calls: Counter
    #: Telemetry metrics snapshot diff over the campaign.
    metrics: dict

    def merged_intervals(self) -> tuple[list[tuple[float, float, str]], set]:
        """Wrapper intervals plus mapped telemetry spans, and the names of
        spans left unmapped (their time stays with the enclosing layer)."""
        merged = list(self.intervals)
        unmapped = set()
        for event in self.spans:
            layer = SPAN_LAYERS.get(event["name"])
            if layer is None:
                unmapped.add(event["name"])
                continue
            start = event["t_start"]
            merged.append((start, start + event["duration_s"], layer))
        return merged, unmapped

    def self_times(self) -> tuple[dict[str, float], int]:
        """Per-layer self time, and the number of intervals that did not
        nest inside their parent (0 when the trace is consistent)."""
        merged, _ = self.merged_intervals()
        merged = [iv for iv in merged if iv[0] >= self.start and iv[1] <= self.end]
        merged.sort(key=lambda iv: (iv[0], -iv[1]))
        self_s: dict[str, float] = defaultdict(float)
        self_s[ROOT] = self.end - self.start
        stack: list[tuple[float, str]] = [(self.end, ROOT)]
        misnested = 0
        for start, end, layer in merged:
            while stack[-1][0] <= start and len(stack) > 1:
                stack.pop()
            parent_end, parent = stack[-1]
            if end > parent_end + NEST_TOLERANCE_S:
                misnested += 1
            duration = end - start
            self_s[parent] -= duration
            self_s[layer] += duration
            stack.append((end, layer))
        return dict(self_s), misnested

    def counter(self, prefix: str) -> int:
        """Sum of every counter series named ``prefix`` (any labels)."""
        total = 0
        for key, value in self.metrics.get("counters", {}).items():
            if key == prefix or key.startswith(prefix + "{"):
                total += value
        return total

    def span_count(self, name: str, attr: Optional[str] = None) -> int:
        """Spans called ``name``; with ``attr``, the sum of that attribute
        (default 1 when a span lacks it)."""
        total = 0
        for event in self.spans:
            if event["name"] == name:
                total += int(event.get("attrs", {}).get(attr, 1)) if attr else 1
        return total
