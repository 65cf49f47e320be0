"""The four campaign workloads: specs, campaigns, set-up and output checks.

Every campaign goes through the public entry points users call —
:class:`repro.SweepRunner`, or :func:`repro.plan_campaign` →
:func:`repro.run_worker` → :func:`repro.merge_campaign` — serially in
this process (``max_workers`` unset). Checks run outside the timed
region and name every run whose outputs are wrong; those runs count
as failed.
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import repro
import repro.dist as dist
import repro.sim.engine as engine
from repro import CharacterizationCache, SimulationConfig, SweepRunner, SweepSpec
from repro.io.sweep import sweep_row
from repro.sim.cache import clear_system_memo
from repro.sim.config import CoolingMode
from repro.sweep.spec import config_signature
from repro.thermal.solver import KRYLOV_TEMPERATURE_TOLERANCE, clear_neighbor_cache

#: Seed at which ``reference.json`` was recorded.
DEFAULT_SEED = 1

#: Die temperatures must stay finite and inside
#: [coolant inlet - slack, upper bound] (degC).
TEMPERATURE_UPPER_C = 150.0
INLET_SLACK_K = 1.0

#: The closed-loop facility's inlet may move from its initial value
#: toward the setpoint, and no further than this beyond either (K).
INLET_BAND_K = 2.0

#: Accepted deviation from the stored reference and between exact-tier
#: paths (K for temperatures, relative for energies). The exact tier is
#: deterministic; this only absorbs last-digit differences across
#: machines.
EXACT_TOLERANCE = 1.0e-9

#: Runs of ``policy_sweep`` re-run through a serial ``Simulator.run``.
CROSS_PATH_SAMPLES = 2

REFERENCE_FIELDS = ("peak_temperature_cell", "chip_energy_j", "pump_energy_j")
FACILITY_REFERENCE_FIELDS = ("mean_inlet_temperature", "pue")


def reset_caches() -> None:
    """Cold start: drop the system memo, the neighbor-LU pool and every
    characterization, through the public helpers."""
    clear_system_memo()
    clear_neighbor_cache()
    engine.set_default_cache(CharacterizationCache())
    # Free the dropped factorizations now, not at a later collection
    # inside a timed campaign (which would also move peak RSS).
    gc.collect()


def signature_key(config: SimulationConfig) -> str:
    return json.dumps(config_signature(config), sort_keys=True)


class OutputProbe:
    """Records each finished run's per-interval series.

    Wraps :meth:`repro.Simulator.result` (one call per run) so checks
    can compare per-interval peak die temperatures of the very runs a
    campaign executed, whichever path executed them.
    """

    def __init__(self) -> None:
        self.keys: dict[str, str] = {}
        self.series: dict[str, tuple[np.ndarray, Optional[np.ndarray]]] = {}
        self._original = None

    def expect(self, spec: SweepSpec) -> None:
        """Map the configs of ``spec`` to their point keys; clear records."""
        self.keys = {signature_key(p.config): p.key for p in spec.iter_points()}
        self.series = {}

    def install(self) -> None:
        original = self._original = engine.Simulator.result
        probe = self

        def result(sim):
            res = original(sim)
            if sim.finished:
                key = probe.keys.get(signature_key(sim.config))
                if key is not None:
                    probe.series[key] = (res.tmax_cell, res.facility_inlet)
            return res

        engine.Simulator.result = result

    def uninstall(self) -> None:
        if self._original is not None:
            engine.Simulator.result = self._original
            self._original = None


@dataclass
class Output:
    """What one campaign produced."""

    rows: list[dict]
    series: dict
    journal_bytes: int = 0
    export: bytes = b""

    @property
    def intervals(self) -> int:
        return sum(int(row["intervals"]) for row in self.rows)


@dataclass
class Context:
    """Per-process state a workload runs against."""

    workload: "Workload"
    seed: int
    tiny: bool
    workdir: Path
    probe: OutputProbe
    spec: Optional[SweepSpec] = None
    #: Extra figures a check measured, printed with the result.
    notes: dict = field(default_factory=dict)

    def scratch_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.workdir))


class Checks:
    """Collects failing run keys and the largest temperature deviation."""

    def __init__(self) -> None:
        self.failures: dict[str, list[str]] = {}
        self.max_dt = 0.0

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, []).append(reason)

    def deviation(self, key: str, a, b, tolerance: float, what: str) -> None:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            self.fail(key, f"{what}: {a.shape} vs {b.shape} intervals")
            return
        dt = float(np.max(np.abs(a - b))) if a.size else 0.0
        if not math.isfinite(dt) or dt > tolerance:
            self.fail(key, f"{what}: |dT| {dt:.3g} K > {tolerance:.3g} K")
        elif dt > self.max_dt:
            self.max_dt = dt


# --- shared checks -------------------------------------------------------------


def check_physics(checks: Checks, spec: SweepSpec, output: Output) -> None:
    """Finite, bounded temperatures; facility inlet in band; PUE > 1."""
    points = {p.key: p.config for p in spec.iter_points()}
    if len(output.rows) != len(points):
        checks.fail("campaign", f"{len(output.rows)} rows for {len(points)} runs")
    for key, config in points.items():
        if key not in output.series:
            checks.fail(key, "run produced no result")
            continue
        tmax_cell, inlet = output.series[key]
        if len(tmax_cell) != int(round(config.duration / config.sampling_interval)):
            checks.fail(key, f"{len(tmax_cell)} intervals recorded")
        floor = config.thermal_params.inlet_temperature
        if inlet is not None:
            if not np.all(np.isfinite(inlet)):
                checks.fail(key, "non-finite facility inlet")
                continue
            setpoint = float(config.facility_params["supply_setpoint_c"])
            initial = config.thermal_params.inlet_temperature
            low = min(initial, setpoint) - INLET_BAND_K
            high = max(initial, setpoint) + INLET_BAND_K
            if inlet.min() < low or inlet.max() > high:
                checks.fail(
                    key, f"facility inlet {inlet.min():.2f}..{inlet.max():.2f} "
                    f"degC outside [{low:.1f}, {high:.1f}]",
                )
            floor = float(inlet.min())
        if not np.all(np.isfinite(tmax_cell)):
            checks.fail(key, "non-finite die temperature")
        elif tmax_cell.min() < floor - INLET_SLACK_K or tmax_cell.max() > TEMPERATURE_UPPER_C:
            checks.fail(
                key, f"die temperature {tmax_cell.min():.2f}..{tmax_cell.max():.2f} "
                "degC out of bounds",
            )
    for row in output.rows:
        pue = row.get("pue")
        if pue is not None and not pue > 1.0:
            checks.fail(row["key"], f"PUE {pue} <= 1")


def check_same_series(checks: Checks, a: Output, b: Output, tolerance: float, what: str) -> None:
    for key, (series, _) in a.series.items():
        other = b.series.get(key)
        if other is None:
            checks.fail(key, f"{what}: run missing")
        else:
            checks.deviation(key, series, other[0], tolerance, what)


def check_reference(checks: Checks, reference: dict, output: Output, tolerance: float) -> None:
    """Compare each run's summary with the stored default-seed reference."""
    for row in output.rows:
        expected = reference.get(row["key"])
        if expected is None:
            checks.fail(row["key"], "no reference row")
            continue
        for name, value in expected.items():
            got = row.get(name)
            if name == "peak_temperature_cell":
                checks.deviation(row["key"], [got], [value], tolerance, "reference")
            elif got is None or not math.isclose(got, value, rel_tol=tolerance, abs_tol=0.0):
                checks.fail(row["key"], f"reference {name}: {got!r} vs {value!r}")


def reference_rows(output: Output) -> dict:
    """The summary fields ``reference.json`` stores for one campaign."""
    out = {}
    for row in output.rows:
        fields = REFERENCE_FIELDS + (
            FACILITY_REFERENCE_FIELDS if row.get("pue") is not None else ()
        )
        out[row["key"]] = {name: row[name] for name in fields}
    return out


# --- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build_spec: Callable[[int, bool], SweepSpec]
    campaign: Callable[[Context], Output]
    #: Untimed reset before every timed campaign (cold workloads).
    prepare: Callable[[Context], None]
    #: The repeated part of set-up, after imports.
    setup: Callable[[Context], None]
    #: Cross-path checks that run at any seed (repeat campaigns are
    #: compared with each other for every workload).
    cross_check: Callable[[Context, Checks, list], None]
    tolerance: float = EXACT_TOLERANCE


def _nothing(*_args) -> None:
    return None


def _sweep_campaign(ctx: Context) -> Output:
    """Plain ``SweepRunner`` run, as a design sweep is usually run."""
    ctx.probe.expect(ctx.spec)
    result = SweepRunner(ctx.spec).run()
    if not result.complete:
        raise RuntimeError(f"sweep stopped at {result.folded}/{result.n_runs}")
    return Output(rows=result.rows, series=ctx.probe.series)


def _checkpointed_campaign(ctx: Context) -> Output:
    """``repro sweep run --checkpoint ck.jsonl --save-csv out.csv``."""
    ctx.probe.expect(ctx.spec)
    directory = ctx.scratch_dir()
    try:
        checkpoint = directory / "checkpoint.jsonl"
        result = SweepRunner(
            ctx.spec, checkpoint=checkpoint, csv_path=directory / "runs.csv"
        ).run()
        if not result.complete:
            raise RuntimeError(f"sweep stopped at {result.folded}/{result.n_runs}")
        return Output(
            rows=result.rows,
            series=ctx.probe.series,
            journal_bytes=checkpoint.stat().st_size,
        )
    finally:
        shutil.rmtree(directory)


def _dist_campaign(ctx: Context) -> Output:
    """Plan, one in-process worker, merge, save the completion JSON."""
    ctx.probe.expect(ctx.spec)
    directory = ctx.scratch_dir()
    try:
        campaign_dir = directory / "campaign"
        dist.plan_campaign(ctx.spec, campaign_dir, chunk_size=DIST_CHUNK)
        report = dist.run_worker(campaign_dir, worker_id="bench", wait=False)
        merged = dist.merge_campaign(campaign_dir)
        merged_json = directory / "merged.json"
        merged.save_json(merged_json)
        if not merged.complete or report.runs_executed != ctx.spec.run_count:
            raise RuntimeError(
                f"campaign merged {merged.folded}/{merged.n_runs} runs, "
                f"worker executed {report.runs_executed}"
            )
        return Output(
            rows=merged.rows,
            series=ctx.probe.series,
            journal_bytes=sum(
                p.stat().st_size for p in campaign_dir.rglob("*") if p.is_file()
            ),
            export=merged_json.read_bytes(),
        )
    finally:
        shutil.rmtree(directory)


# policy_sweep: warm, one thermal network.


def _policy_spec(seed: int, tiny: bool) -> SweepSpec:
    n = 12 if tiny else 32
    base = SimulationConfig(
        nx=n, ny=n, cooling=CoolingMode.LIQUID_VARIABLE,
        duration=0.3 if tiny else 3.0,
    )
    return SweepSpec(
        base=base,
        grid={
            "policy": ["TALB", "LB", "Mig", "RR"],
            "benchmark": ["gzip", "Web-high"],
            "seed": [2 * seed, 2 * seed + 1],
        },
        name="policy_sweep",
    )


def _warm_setup(ctx: Context) -> None:
    """Expand the spec and run one untimed campaign to fill the
    characterizations and the system memo."""
    reset_caches()
    ctx.spec = ctx.workload.build_spec(ctx.seed, ctx.tiny)
    ctx.spec.validate_all()
    ctx.workload.campaign(ctx)


def _policy_cross_check(ctx: Context, checks: Checks, outputs: list) -> None:
    """Cohort campaign against serial ``Simulator.run``, bitwise."""
    ctx.probe.expect(ctx.spec)
    points = list(ctx.spec.iter_points())
    sample = random.Random(ctx.seed).sample(points, CROSS_PATH_SAMPLES)
    rows = {row["key"]: row for row in outputs[0].rows}
    for point in sample:
        result = repro.Simulator(point.config).run()
        serial_row = sweep_row(point.index, point.key, point.config, result)
        if serial_row != rows[point.key]:
            checks.fail(point.key, "cohort row differs from serial Simulator.run")
        for output in outputs:
            checks.deviation(
                point.key, output.series[point.key][0], result.tmax_cell,
                0.0, "cohort vs serial",
            )


# design_sweep / design_sweep_krylov: cold; every point a different network.

DESIGN_POINTS = 8
DESIGN_GRID = 24
#: Krylov runs ~4x slower than exact here (see NOTES.md), so its grid
#: is smaller to fit several campaigns in one run.
KRYLOV_GRID = 16


def _design_spec(solver: str, n: int) -> Callable[[int, bool], SweepSpec]:
    def build(seed: int, tiny: bool) -> SweepSpec:
        base = SimulationConfig(
            nx=8 if tiny else n, ny=8 if tiny else n,
            cooling=CoolingMode.LIQUID_VARIABLE, policy="TALB",
            duration=0.2 if tiny else 0.5, seed=seed, solver=solver,
        )
        points = 3 if tiny else DESIGN_POINTS
        return SweepSpec(
            base=base,
            grid={
                "thermal_params.resistance_scale": [
                    round(4.0 + 0.1 * i, 6) for i in range(points)
                ]
            },
            name=f"design_sweep_{solver}",
        )

    return build


def _cold_setup(ctx: Context) -> None:
    """Expand the spec, then run its first point for one interval, cold,
    so interpreter-level first-use costs stay out of the timed loop."""
    reset_caches()
    ctx.spec = ctx.workload.build_spec(ctx.seed, ctx.tiny)
    ctx.spec.validate_all()
    first = next(iter(ctx.spec.iter_points())).config
    repro.Simulator(replace(first, duration=first.sampling_interval)).run()
    reset_caches()


def _cold_prepare(ctx: Context) -> None:
    reset_caches()


def _krylov_cross_check(ctx: Context, checks: Checks, outputs: list) -> None:
    """Krylov against exact on the same points (same point keys), per
    interval; the exact campaign's wall time is kept for the gap."""
    krylov_spec = ctx.spec
    ctx.spec = _design_spec("exact", KRYLOV_GRID)(ctx.seed, ctx.tiny)
    try:
        reset_caches()
        start = time.perf_counter()
        exact = _sweep_campaign(ctx)
        ctx.notes["exact_campaign_s"] = time.perf_counter() - start
    finally:
        ctx.spec = krylov_spec
    for output in outputs:
        check_same_series(
            checks, output, exact, KRYLOV_TEMPERATURE_TOLERANCE, "krylov vs exact"
        )


# dist_facility: many short closed-loop runs through the dist fabric.

DIST_CHUNK = 8


def _dist_spec(seed: int, tiny: bool) -> SweepSpec:
    side = 2 if tiny else 12
    base = SimulationConfig(
        nx=8 if tiny else 16, ny=8 if tiny else 16,
        cooling=CoolingMode.LIQUID_VARIABLE, benchmark_name="Web-med",
        duration=0.3, facility="closed-loop",
    )
    # Every run gets its own thread trace (seed 1000*seed + run index),
    # so one heavy or light trace does not set the whole campaign's cost.
    return SweepSpec(
        base=base,
        grid={
            "facility_params.wet_bulb_c": [5.0 + 2.0 * i for i in range(side)],
            "facility_params.supply_setpoint_c": [30.0 + 3.0 * i for i in range(side)],
        },
        reseed=1000 * seed,
        name="dist_facility",
    )


def _dist_cross_check(ctx: Context, checks: Checks, outputs: list) -> None:
    """Merged completion JSON byte-identical to a single-host sweep."""
    ctx.probe.expect(ctx.spec)
    directory = ctx.scratch_dir()
    try:
        single = SweepRunner(ctx.spec).run()
        path = directory / "single.json"
        single.save_json(path)
        expected = path.read_bytes()
    finally:
        shutil.rmtree(directory)
    reference = Output(rows=single.rows, series=ctx.probe.series)
    for output in outputs:
        if output.export != expected:
            checks.fail("campaign", "merged JSON differs from single-host sweep")
        check_same_series(checks, output, reference, 0.0, "dist vs single-host")


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="policy_sweep",
            build_spec=_policy_spec,
            campaign=_checkpointed_campaign,
            prepare=_nothing,
            setup=_warm_setup,
            cross_check=_policy_cross_check,
        ),
        Workload(
            name="design_sweep",
            build_spec=_design_spec("exact", DESIGN_GRID),
            campaign=_sweep_campaign,
            prepare=_cold_prepare,
            setup=_cold_setup,
            cross_check=_nothing,
        ),
        Workload(
            name="design_sweep_krylov",
            build_spec=_design_spec("krylov", KRYLOV_GRID),
            campaign=_sweep_campaign,
            prepare=_cold_prepare,
            setup=_cold_setup,
            cross_check=_krylov_cross_check,
            tolerance=KRYLOV_TEMPERATURE_TOLERANCE,
        ),
        Workload(
            name="dist_facility",
            build_spec=_dist_spec,
            campaign=_dist_campaign,
            prepare=_nothing,
            setup=_warm_setup,
            cross_check=_dist_cross_check,
        ),
    )
}
