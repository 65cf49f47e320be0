"""Shared test fixtures and factories."""

from __future__ import annotations

import collections
import dataclasses
from pathlib import Path

import numpy as np

from repro.io.sweep import sweep_row, write_sweep_csv
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.sweep.aggregate import default_aggregators
from repro.sweep.runner import SweepResult
from repro.telemetry import metrics


def make_result(
    tmax: np.ndarray,
    core_temperatures: np.ndarray | None = None,
    unit_temperatures: np.ndarray | None = None,
    chip_power: np.ndarray | None = None,
    pump_power: np.ndarray | None = None,
    completed: np.ndarray | None = None,
    interval: float = 0.1,
) -> SimulationResult:
    """Build a synthetic :class:`SimulationResult` for metric tests."""
    tmax = np.asarray(tmax, dtype=float)
    n = len(tmax)
    if core_temperatures is None:
        core_temperatures = np.tile(tmax[:, None], (1, 2))
    if unit_temperatures is None:
        unit_temperatures = np.tile(tmax[:, None], (1, 3))
    if chip_power is None:
        chip_power = np.full(n, 30.0)
    if pump_power is None:
        pump_power = np.zeros(n)
    if completed is None:
        completed = np.ones(n, dtype=int)
    return SimulationResult(
        times=np.arange(1, n + 1) * interval,
        tmax=tmax,
        tmax_cell=tmax + 0.5,
        core_temperatures=np.asarray(core_temperatures, dtype=float),
        unit_temperatures=np.asarray(unit_temperatures, dtype=float),
        unit_names=[f"0:u{i}" for i in range(np.asarray(unit_temperatures).shape[1])],
        core_names=[f"core{i}" for i in range(np.asarray(core_temperatures).shape[1])],
        chip_power=np.asarray(chip_power, dtype=float),
        pump_power=np.asarray(pump_power, dtype=float),
        flow_setting=np.full(n, -1, dtype=int),
        completed_threads=np.asarray(completed, dtype=int),
        forecast_tmax=np.full(n, np.nan),
        migrations=np.zeros(n, dtype=int),
    )


def assert_results_identical(a: SimulationResult, b: SimulationResult) -> None:
    """Bitwise equality of every field of two results (NaN == NaN)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=field.name)
        else:
            assert x == y, field.name


def export_outputs(result, stem: Path) -> dict:
    """Rows, aggregate rows and export bytes of a finished sweep or
    merge: writes its JSON to ``stem.json`` and reads back that and the
    CSV at ``stem.csv``."""
    result.save_json(stem.with_suffix(".json"))
    return {
        "rows": result.rows,
        "agg_rows": [agg.rows() for agg in result.aggregators],
        "json": stem.with_suffix(".json").read_bytes(),
        "csv": stem.with_suffix(".csv").read_bytes(),
    }


def simulator_loop(spec, directory: Path) -> tuple[list[SimulationResult], dict]:
    """The plain reference for a sweep spec: one ``Simulator(config).run()``
    per point, folded in order with the default aggregators. Returns the
    results and their :func:`export_outputs`."""
    aggregators = default_aggregators()
    results, rows = [], []
    for point in spec.iter_points():
        result = Simulator(point.config).run()
        results.append(result)
        rows.append(sweep_row(point.index, point.key, point.config, result))
        for agg in aggregators:
            agg.update(point.config, result)
    write_sweep_csv(rows, directory / "ref.csv")
    reference = SweepResult(
        name=spec.name,
        fingerprint=spec.fingerprint(),
        n_runs=spec.run_count,
        folded=len(rows),
        resumed=0,
        rows=rows,
        aggregators=aggregators,
    )
    return results, export_outputs(reference, directory / "ref")


def counter_deltas(before: dict) -> collections.Counter:
    """Registry counter increments since ``before`` (a
    ``metrics.snapshot()``), keyed by counter name; names that did not
    move read 0."""
    return collections.Counter(
        metrics.snapshot_diff(before, metrics.snapshot())["counters"]
    )
