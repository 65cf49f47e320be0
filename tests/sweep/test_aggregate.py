"""Streaming aggregators: reduction math and exact journal replay."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import simulate
from repro.sweep import (
    CellAggregator,
    HistogramAggregator,
    MomentsAggregator,
    QuantileAggregator,
    RunningStats,
    ScalarAggregator,
    WelfordMoments,
    aggregator_from_spec,
    default_aggregators,
)


@pytest.fixture(scope="module")
def runs():
    """Three tiny runs spanning two policy labels."""
    configs = [
        SimulationConfig(benchmark_name="gzip", policy=PolicyKind.TALB,
                         cooling=CoolingMode.LIQUID_VARIABLE, duration=1.0, seed=1),
        SimulationConfig(benchmark_name="Web-med", policy=PolicyKind.TALB,
                         cooling=CoolingMode.LIQUID_VARIABLE, duration=1.0, seed=2),
        SimulationConfig(benchmark_name="gzip", policy=PolicyKind.LB,
                         cooling=CoolingMode.AIR, duration=1.0, seed=3),
    ]
    return [(config, simulate(config)) for config in configs]


class TestRunningStats:
    def test_count_mean_min_max(self):
        stats = RunningStats()
        for v in (2.0, 4.0, 9.0):
            stats.add(v)
        assert stats.count == 3
        assert stats.mean == pytest.approx(5.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0

    def test_nan_values_are_skipped(self):
        stats = RunningStats()
        stats.add(float("nan"))
        stats.add(1.0)
        assert stats.count == 1
        assert stats.mean == 1.0

    def test_empty_mean_is_nan(self):
        assert np.isnan(RunningStats().mean)

class TestScalarAggregator:
    def test_groups_by_label(self, runs):
        agg = ScalarAggregator(metrics=("peak_temperature", "total_energy_j"))
        for config, result in runs:
            agg.update(config, result)
        rows = {row["label"]: row for row in agg.rows()}
        assert set(rows) == {"TALB (Var)", "LB (Air)"}
        assert rows["TALB (Var)"]["runs"] == 2
        expected = np.mean(
            [r.peak_temperature() for c, r in runs if c.policy == "TALB"]
        )
        assert rows["TALB (Var)"]["peak_temperature_mean"] == pytest.approx(expected)

    def test_group_by_benchmark(self, runs):
        agg = ScalarAggregator(
            metrics=("chip_energy_j",), group_by=("benchmark",)
        )
        for config, result in runs:
            agg.update(config, result)
        rows = {row["benchmark"]: row for row in agg.rows()}
        assert rows["gzip"]["runs"] == 2
        assert rows["Web-med"]["runs"] == 1

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown metrics"):
            ScalarAggregator(metrics=("nope",))

    def test_mid_stream_restore_matches_uninterrupted(self, runs):
        """A resume rebuilds the reducer from its spec, replays the
        journaled payload prefix, then keeps folding live."""
        full = ScalarAggregator()
        for config, result in runs:
            full.update(config, result)
        journal = json.loads(json.dumps(full.fold_payload(*runs[0])))
        restored = aggregator_from_spec(json.loads(json.dumps(full.spec())))
        restored.update_payload(journal)
        for config, result in runs[1:]:
            restored.update(config, result)
        assert restored.rows() == full.rows()  # bit-equal sums


class TestCellAggregator:
    def test_tracks_per_unit_extremes(self, runs):
        agg = CellAggregator()
        for config, result in runs:
            agg.update(config, result)
        rows = {row["unit"]: row for row in agg.rows()}
        config, result = runs[0]
        name = result.unit_names[0]
        assert rows[name]["runs"] == len(runs)
        peaks = [r.unit_temperatures[:, 0].max() for _, r in runs]
        assert rows[name]["peak_temperature"] == pytest.approx(max(peaks))

class TestWelfordMoments:
    def test_matches_numpy_mean_and_sample_variance(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        moments = WelfordMoments()
        for v in values:
            moments.add(v)
        assert moments.count == len(values)
        assert moments.mean == pytest.approx(np.mean(values))
        assert moments.variance == pytest.approx(np.var(values, ddof=1))
        assert moments.std == pytest.approx(np.std(values, ddof=1))

    def test_nan_values_are_skipped(self):
        moments = WelfordMoments()
        moments.add(float("nan"))
        moments.add(3.0)
        assert moments.count == 1
        assert moments.mean == 3.0

    def test_variance_undefined_below_two_observations(self):
        moments = WelfordMoments()
        assert np.isnan(moments.variance)
        moments.add(1.0)
        assert np.isnan(moments.variance)
        moments.add(2.0)
        assert moments.variance == pytest.approx(0.5)

class TestMomentsAggregator:
    def test_groups_by_label_and_matches_numpy(self, runs):
        agg = MomentsAggregator(metrics=("peak_temperature",))
        for config, result in runs:
            agg.update(config, result)
        rows = {row["label"]: row for row in agg.rows()}
        assert set(rows) == {"TALB (Var)", "LB (Air)"}
        talb = [r.peak_temperature() for c, r in runs if c.policy == "TALB"]
        assert rows["TALB (Var)"]["runs"] == 2
        assert rows["TALB (Var)"]["peak_temperature_mean"] == pytest.approx(
            np.mean(talb)
        )
        assert rows["TALB (Var)"]["peak_temperature_var"] == pytest.approx(
            np.var(talb, ddof=1)
        )

    def test_single_run_groups_render_none_not_nan(self, runs):
        agg = MomentsAggregator(metrics=("chip_energy_j",))
        agg.update(*runs[2])  # The lone LB (Air) run.
        (row,) = agg.rows()
        assert row["runs"] == 1
        assert row["chip_energy_j_var"] is None
        assert row["chip_energy_j_std"] is None

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown metrics"):
            MomentsAggregator(metrics=("nope",))

    def test_mid_stream_restore_matches_uninterrupted(self, runs):
        """The checkpoint/resume contract: replay the journaled payload
        prefix into a rebuilt reducer, finish folding — bit-equal rows."""
        full = MomentsAggregator()
        for config, result in runs:
            full.update(config, result)
        journal = json.loads(json.dumps(full.fold_payload(*runs[0])))
        restored = aggregator_from_spec(full.spec())
        restored.update_payload(journal)
        for config, result in runs[1:]:
            restored.update(config, result)
        assert restored.rows() == full.rows()

    def test_fold_update_split_replays_exactly(self, runs):
        """A resume replays a journaled payload prefix then folds live;
        a distributed merge replays every payload. Either must equal
        direct folding bit-for-bit, at every cut, for each
        order-sensitive reducer (the auto-range histogram freezes its
        range mid-stream here)."""
        specs = [
            MomentsAggregator().spec(),
            QuantileAggregator().spec(),
            HistogramAggregator(
                metric="total_energy_j", lo=None, hi=None, warmup=2
            ).spec(),
        ]
        for spec in specs:
            direct = aggregator_from_spec(spec)
            journal = []
            for config, result in runs:
                payload = direct.fold_payload(config, result)
                direct.update_payload(payload)
                journal.append(json.loads(json.dumps(payload)))
            for cut in range(len(runs) + 1):
                resumed = aggregator_from_spec(spec)
                for payload in journal[:cut]:
                    resumed.update_payload(payload)
                for config, result in runs[cut:]:
                    resumed.update(config, result)
                assert resumed.rows() == direct.rows(), (spec["kind"], cut)


class TestFactory:
    def test_default_set(self):
        kinds = [agg.kind for agg in default_aggregators()]
        assert kinds == [
            "scalar", "cells", "histogram", "quantile", "moments", "histogram",
        ]
        # The second histogram is the data-driven energy sketch.
        energy = default_aggregators()[-1]
        assert energy.metric == "total_energy_j"
        assert energy.auto_range

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown aggregator"):
            aggregator_from_spec({"kind": "nope"})

    def test_spec_round_trip(self):
        agg = ScalarAggregator(metrics=("migrations",), group_by=("benchmark",))
        clone = aggregator_from_spec(json.loads(json.dumps(agg.spec())))
        assert clone.metrics == ("migrations",)
        assert clone.group_by == ("benchmark",)
