"""Batch runner: parallel/serial equivalence, ordering, and export."""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.io.batch import config_descriptor, save_batch, write_batch_csv
from repro.io.serialize import result_from_payload
from repro.runner import BatchRunner, reseeded
from repro.sim.cache import CharacterizationCache
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.workload.benchmarks import benchmark
from repro.workload.generator import WorkloadGenerator


def _configs():
    return [
        SimulationConfig(
            benchmark_name="gzip",
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=2.0,
            seed=1,
        ),
        SimulationConfig(
            benchmark_name="Web-high",
            policy=PolicyKind.LB,
            cooling=CoolingMode.AIR,
            duration=2.0,
            seed=2,
        ),
        SimulationConfig(
            benchmark_name="Database",
            policy=PolicyKind.MIGRATION,
            cooling=CoolingMode.LIQUID_MAX,
            duration=2.0,
            seed=3,
        ),
    ]


def _assert_identical(a, b):
    for name in (
        "times",
        "tmax",
        "tmax_cell",
        "core_temperatures",
        "unit_temperatures",
        "chip_power",
        "pump_power",
        "flow_setting",
        "completed_threads",
        "migrations",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # NaN-aware comparison for the forecast series.
    assert np.array_equal(a.forecast_tmax, b.forecast_tmax, equal_nan=True)
    assert a.sojourn_sum == b.sojourn_sum
    assert a.sojourn_count == b.sojourn_count
    assert a.retrain_count == b.retrain_count


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        configs = _configs()
        serial = BatchRunner(configs, cache=CharacterizationCache()).run()
        parallel = BatchRunner(
            configs, max_workers=2, cache=CharacterizationCache()
        ).run()
        assert serial.n_workers == 1
        assert parallel.n_workers == 2
        assert len(serial) == len(parallel) == len(configs)
        for run_s, run_p in zip(serial.runs, parallel.runs):
            assert run_s.index == run_p.index
            assert run_s.config == run_p.config
            _assert_identical(run_s.result, run_p.result)

    def test_results_in_submission_order(self):
        configs = _configs()
        batch = BatchRunner(
            configs, max_workers=3, cache=CharacterizationCache()
        ).run()
        assert [run.index for run in batch.runs] == [0, 1, 2]
        assert [run.config.benchmark_name for run in batch.runs] == [
            "gzip",
            "Web-high",
            "Database",
        ]

    def test_shared_trace_used(self):
        config = SimulationConfig(
            benchmark_name="gzip",
            policy=PolicyKind.LB,
            cooling=CoolingMode.AIR,
            duration=2.0,
            seed=7,
        )
        trace = WorkloadGenerator(
            benchmark("gzip"), n_cores=config.n_cores, seed=123
        ).generate(config.duration)
        with_trace = BatchRunner(
            [config], traces=[trace], cache=CharacterizationCache()
        ).run()
        without = BatchRunner([config], cache=CharacterizationCache()).run()
        # The explicit trace (seed 123) differs from the config's own
        # (seed 7), so the runs must differ.
        assert (
            with_trace.results[0].total_completed()
            != without.results[0].total_completed()
            or not np.array_equal(with_trace.results[0].tmax, without.results[0].tmax)
        )


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner([])

    def test_trace_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(_configs(), traces=[None])

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(_configs(), max_workers=0)

    def test_workers_capped_at_batch_size(self):
        runner = BatchRunner(_configs(), max_workers=64)
        assert runner.max_workers == 3

    def test_suggested_workers_counts_usable_cores(self, monkeypatch):
        """An affinity-restricted process gets its usable cores, not
        the host total."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert BatchRunner.suggested_workers() == 1

    def test_suggested_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert BatchRunner.suggested_workers() == 3


class TestReseeding:
    def test_reseeded_assigns_sequential_seeds(self):
        base = SimulationConfig(benchmark_name="gzip", duration=2.0, seed=0)
        out = reseeded([base] * 4, base_seed=100)
        assert [c.seed for c in out] == [100, 101, 102, 103]
        # Everything else is untouched.
        assert all(c.benchmark_name == "gzip" for c in out)

    def test_reseeded_runs_are_distinct_but_reproducible(self):
        base = SimulationConfig(
            benchmark_name="Web-high",
            policy=PolicyKind.LB,
            cooling=CoolingMode.AIR,
            duration=2.0,
        )
        configs = reseeded([base] * 2, base_seed=50)
        first = BatchRunner(configs, cache=CharacterizationCache()).run()
        again = BatchRunner(configs, cache=CharacterizationCache()).run()
        assert not np.array_equal(first.results[0].tmax, first.results[1].tmax)
        _assert_identical(first.results[0], again.results[0])
        _assert_identical(first.results[1], again.results[1])


class TestExport:
    @pytest.fixture(scope="class")
    def batch(self):
        return BatchRunner(_configs()[:2], cache=CharacterizationCache()).run()

    def test_summary_rows(self, batch):
        rows = batch.summary_rows()
        assert len(rows) == 2
        assert rows[0]["label"] == "TALB (Var)"
        assert rows[0]["benchmark"] == "gzip"
        assert rows[0]["peak_temperature_sensor"] > 0.0
        assert rows[0]["elapsed_s"] > 0.0

    def test_config_descriptor_round_trips_enums(self):
        desc = config_descriptor(_configs()[0])
        assert desc["policy"] == "TALB"
        assert desc["cooling"] == "Var"
        assert desc["label"] == "TALB (Var)"

    def test_save_batch_json(self, batch, tmp_path):
        path = tmp_path / "batch.json"
        save_batch(batch, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert payload["n_runs"] == 2
        assert payload["runs"][0]["config"]["benchmark"] == "gzip"
        assert "result" not in payload["runs"][0]

    def test_save_batch_with_series_reloads(self, batch, tmp_path):
        path = tmp_path / "batch_full.json"
        save_batch(batch, path, include_series=True)
        payload = json.loads(path.read_text())
        restored = result_from_payload(payload["runs"][0]["result"])
        _assert_identical(restored, batch.results[0])

    def test_write_batch_csv(self, batch, tmp_path):
        path = tmp_path / "batch.csv"
        write_batch_csv(batch, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 runs
        assert lines[0].startswith(
            "run,benchmark,policy,policy_params,cooling,controller"
        )
