"""Cohort-ordered batch execution is byte-identical to the plain
reference — one ``Simulator(config).run()`` per config, in order — from
full results through rows, aggregates, CSV and completion JSON, serial
or across workers, with or without payload-only transport.

``TestCohortSerialSmoke`` is the gating CI smoke (mirroring the
2-worker distributed smoke), together with ``TestSerialStreaming``: a
serial batch hands each run downstream as soon as it finishes, not
once its whole cohort has.
"""

import sys
from pathlib import Path

import pytest

from repro.io.jsonl import read_jsonl
from repro.runner import BatchRunner, group_cohorts
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.aggregate import Aggregator, default_aggregators
from repro.sweep.runner import FoldReducer, _spec_rebuildable
from repro.telemetry import metrics

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import assert_results_identical, export_outputs, simulator_loop

#: The scenarios every execution path must reproduce bit for bit.
SCENARIOS = {
    "policy-controller-grid": SweepSpec(
        base=SimulationConfig(duration=0.6, nx=12, ny=12),
        grid={"policy": ["TALB", "RR"], "controller": ["lut", "stepwise"]},
        name="cohort-smoke",
    ),
    # Two networks interleaved, plus an Air singleton.
    "mixed-networks": SweepSpec(
        base=SimulationConfig(duration=0.5, nx=12, ny=12),
        points=[
            {"policy": "TALB"},
            {"nx": 8, "ny": 8},
            {"policy": "RR"},
            {"nx": 8, "ny": 8, "policy": "LB"},
            {"cooling": "Air"},
        ],
        name="cohort-points",
    ),
    "zip": SweepSpec(
        base=SimulationConfig(duration=0.5, nx=12, ny=12),
        zip_axes={"policy": ["TALB", "LB", "RR"], "seed": [0, 1, 2]},
        name="cohort-zip",
    ),
    "facility": SweepSpec(
        base=SimulationConfig(
            duration=0.4, nx=8, ny=8, facility="closed-loop"
        ),
        grid={"facility_params.wet_bulb_c": [5.0, 15.0], "seed": [0, 1]},
        name="cohort-facility",
    ),
}

_REFERENCES: dict = {}


def reference_for(name: str, directory: Path) -> tuple:
    """The scenario's plain-loop reference, computed once per session."""
    if name not in _REFERENCES:
        _REFERENCES[name] = simulator_loop(SCENARIOS[name], directory)
    return _REFERENCES[name]


def assert_matches_simulator_loop(tmp_path, scenario, workers):
    """Batch results and sweep outputs of a scenario are bitwise those
    of the plain ``Simulator.run`` loop."""
    results, outputs = reference_for(scenario, tmp_path)
    spec = SCENARIOS[scenario]
    configs = [point.config for point in spec.iter_points()]

    batch = BatchRunner(configs, max_workers=workers).run()
    assert [run.index for run in batch.runs] == list(range(len(configs)))
    for expected, run in zip(results, batch.runs):
        assert_results_identical(expected, run.result)

    swept = SweepRunner(
        spec, csv_path=tmp_path / "sweep.csv", max_workers=workers
    ).run()
    assert export_outputs(swept, tmp_path / "sweep") == outputs


#: (scenario, workers) cases not pinned by a named test below.
OTHER_CASES = [
    ("mixed-networks", 2),
    ("zip", None),
    ("zip", 2),
    ("facility", None),
    ("facility", 2),
]


class TestCohortSerialSmoke:
    """The gating CI smoke: bitwise against the plain ``Simulator.run``
    loop, serial and 2 workers."""

    def test_policy_controller_grid_byte_identical(self, tmp_path):
        assert_matches_simulator_loop(tmp_path, "policy-controller-grid", None)

    @pytest.mark.parametrize(
        ("scenario", "workers"),
        OTHER_CASES,
        ids=[
            f"{scenario}-{'serial' if workers is None else f'{workers}-workers'}"
            for scenario, workers in OTHER_CASES
        ],
    )
    def test_matches_simulator_loop(self, tmp_path, scenario, workers):
        assert_matches_simulator_loop(tmp_path, scenario, workers)


def one_cohort_spec() -> SweepSpec:
    """Four runs through one network: a single serial cohort."""
    return SweepSpec(
        base=SimulationConfig(duration=0.3, nx=8, ny=8),
        grid={"policy": ["TALB", "RR"], "seed": [0, 1]},
        name="serial-streaming",
    )


class TestSerialStreaming:
    """Gating: serial batches stream per run, not per cohort."""

    def test_first_run_arrives_after_one_simulation(self):
        configs = [point.config for point in one_cohort_spec().iter_points()]
        assert group_cohorts(configs) == [[0, 1, 2, 3]]
        runs = metrics.counter("runner.runs")
        before = runs.value()
        stream = BatchRunner(configs).iter_runs()
        try:
            first = next(stream)
            assert first.index == 0
            assert runs.value() - before == 1
        finally:
            stream.close()

    def test_checkpoint_journals_one_run_line_per_fold(self, tmp_path):
        """Each fold finds exactly its own runs simulated and journaled,
        so a kill mid-cohort loses no finished run."""
        ckpt = tmp_path / "sweep.ckpt"
        runs = metrics.counter("runner.runs")
        before = runs.value()
        seen = []

        def progress(folded, total, point, elapsed):
            entries = read_jsonl(ckpt).entries
            journaled = sum(1 for e in entries if e.get("kind") == "run")
            seen.append((folded, runs.value() - before, journaled))

        result = SweepRunner(
            one_cohort_spec(), checkpoint=ckpt, progress=progress
        ).run()
        assert result.complete
        assert seen == [(k, k, k) for k in range(1, 5)]


class TestCohortSweepByteIdentity:
    def test_points_sweep_mixed_networks(self, tmp_path):
        """Explicit points spanning two networks plus a singleton."""
        assert_matches_simulator_loop(tmp_path, "mixed-networks", None)

    def test_grid_sweep_parallel_workers(self, tmp_path):
        assert_matches_simulator_loop(tmp_path, "policy-controller-grid", 2)

    def test_checkpoint_resume_crosses_cohort(self, tmp_path):
        """Interrupting mid-cohort and resuming stays byte-identical."""
        def spec():
            return SweepSpec(
                base=SimulationConfig(duration=0.4, nx=12, ny=12),
                grid={"policy": ["TALB", "LB", "RR"]},
                name="cohort-resume",
            )

        ref_json = tmp_path / "ref.json"
        ref = SweepRunner(spec(), csv_path=tmp_path / "ref.csv").run()
        ref.save_json(ref_json)

        ckpt = tmp_path / "sweep.ckpt"
        SweepRunner(spec(), checkpoint=ckpt, stop_after=1).run()
        resumed = SweepRunner(
            spec(), checkpoint=ckpt, csv_path=tmp_path / "res.csv"
        ).run(resume=True)
        resumed.save_json(tmp_path / "res.json")
        assert resumed.complete and resumed.resumed == 1
        assert (tmp_path / "res.json").read_bytes() == ref_json.read_bytes()
        assert (
            (tmp_path / "res.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes()
        )


class TestPayloadTransport:
    def test_fold_reducer_matches_full_path(self, tmp_path):
        """on_result forces full-result transport; without it the
        reduced path must produce the same bytes."""
        def spec():
            return SweepSpec(
                base=SimulationConfig(duration=0.4, nx=12, ny=12),
                grid={"policy": ["TALB", "RR"], "seed": [0, 1]},
                name="transport",
            )

        seen = []

        def on_result(point, result):
            assert isinstance(result, SimulationResult)
            seen.append(point.index)

        full = SweepRunner(
            spec(), csv_path=tmp_path / "full.csv", on_result=on_result
        ).run()
        full.save_json(tmp_path / "full.json")
        assert seen == [0, 1, 2, 3]

        reduced = SweepRunner(spec(), csv_path=tmp_path / "red.csv").run()
        reduced.save_json(tmp_path / "red.json")
        assert (
            (tmp_path / "red.json").read_bytes()
            == (tmp_path / "full.json").read_bytes()
        )
        assert (
            (tmp_path / "red.csv").read_bytes()
            == (tmp_path / "full.csv").read_bytes()
        )

    def test_fold_reducer_pickles_without_instances(self):
        import pickle

        reducer = FoldReducer([agg.spec() for agg in default_aggregators()])
        clone = pickle.loads(pickle.dumps(reducer))
        assert clone.aggregator_specs == reducer.aggregator_specs
        assert clone._aggregators is None

    def test_custom_aggregator_disables_reduced_transport(self, tmp_path):
        """A subclass the spec factory can't rebuild must keep getting
        full results (and the sweep still completes)."""

        class Peaks(Aggregator):
            def __init__(self):
                self.peaks = []

            def spec(self):
                return {"kind": "scalar"}  # lies: factory builds ScalarAggregator

            def update(self, config, result):
                self.peaks.append(result.peak_temperature())

            def rows(self):
                return []

        assert not _spec_rebuildable([Peaks()])
        agg = Peaks()
        spec = SweepSpec(
            base=SimulationConfig(duration=0.4, nx=12, ny=12),
            grid={"policy": ["TALB", "RR"]},
            name="custom",
        )
        result = SweepRunner(spec, aggregators=[agg]).run()
        assert result.complete
        assert len(agg.peaks) == 2
