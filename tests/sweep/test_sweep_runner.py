"""SweepRunner: streaming folds, checkpoint journal, bit-identical resume."""

import json

import numpy as np
import pytest

from repro.dist import plan_campaign, read_ledger, run_worker
from repro.errors import ConfigurationError
from repro.io.jsonl import json_line, read_jsonl
from repro.runner import BatchRunner
from repro.sim.config import SimulationConfig
from repro.sweep import Aggregator, SweepRunner, SweepSpec, read_status


def small_spec(name="small", duration=1.0):
    """A 4-run sweep small enough for test budgets."""
    return SweepSpec(
        base=SimulationConfig(duration=duration),
        grid={"benchmark_name": ["gzip", "Web-med"], "cooling": ["Var", "Max"]},
        name=name,
    )


def run_lines_without_timing(path):
    """A journal's run lines minus their wall-clock ``elapsed_s``."""
    return [
        {k: v for k, v in entry.items() if k != "elapsed_s"}
        for entry in read_jsonl(path).entries
        if entry["kind"] == "run"
    ]


class TestStreamingRun:
    def test_rows_match_batch_runner(self):
        spec = small_spec()
        result = SweepRunner(spec).run()
        assert result.complete
        assert result.folded == result.n_runs == 4
        batch = BatchRunner([p.config for p in spec.iter_points()]).run()
        for row, run in zip(result.rows, batch.runs):
            assert row["run"] == run.index
            assert row["peak_temperature_sensor"] == run.result.peak_temperature()
            assert row["total_energy_j"] == run.result.total_energy()

    def test_parallel_folds_equal_serial(self):
        spec = small_spec()
        serial = SweepRunner(spec).run()
        parallel = SweepRunner(spec, max_workers=2).run()
        assert parallel.rows == serial.rows
        for agg_s, agg_p in zip(serial.aggregators, parallel.aggregators):
            assert agg_p.rows() == agg_s.rows()

    def test_chunked_execution_changes_nothing(self, tmp_path):
        """chunk_size bounds memory; folds/rows/exports are invariant."""
        spec = small_spec()
        whole = SweepRunner(spec, csv_path=tmp_path / "a.csv").run()
        chunked = SweepRunner(
            spec, csv_path=tmp_path / "b.csv", chunk_size=1
        ).run()
        assert chunked.rows == whole.rows
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for agg_a, agg_b in zip(whole.aggregators, chunked.aggregators):
            assert agg_a.rows() == agg_b.rows()

    def test_resume_with_chunking_is_bit_identical(self, tmp_path):
        spec = small_spec()
        whole = SweepRunner(spec, csv_path=tmp_path / "a.csv").run()
        ck = tmp_path / "ck.jsonl"
        SweepRunner(
            spec, checkpoint=ck, csv_path=tmp_path / "b.csv",
            stop_after=3, chunk_size=2,
        ).run()
        resumed = SweepRunner(
            spec, checkpoint=ck, csv_path=tmp_path / "b.csv", chunk_size=2
        ).run(resume=True)
        assert resumed.complete and resumed.resumed == 3
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert resumed.rows == whole.rows

    def test_on_result_streams_in_index_order(self):
        spec = small_spec()
        seen = []
        SweepRunner(
            spec,
            aggregators=(),
            on_result=lambda point, result: seen.append(point.index),
        ).run()
        assert seen == [0, 1, 2, 3]

    def test_stop_after_folds_prefix_only(self, tmp_path):
        result = SweepRunner(
            small_spec(), checkpoint=tmp_path / "ck.jsonl", stop_after=2
        ).run()
        assert not result.complete
        assert result.folded == 2
        assert [row["run"] for row in result.rows] == [0, 1]

    def test_bad_later_axis_value_fails_before_any_run(self):
        spec = SweepSpec(
            base=SimulationConfig(duration=1.0),
            grid={"benchmark_name": ["gzip"], "layers": [2, 3]},
        )
        executed = []
        with pytest.raises(ConfigurationError, match="invalid"):
            SweepRunner(
                spec,
                aggregators=(),
                on_result=lambda p, r: executed.append(p.index),
            ).run()
        assert executed == []  # Nothing simulated before the failure.

    def test_iter_runs_streams_serially(self):
        spec = small_spec()
        runner = BatchRunner([p.config for p in spec.iter_points()])
        iterator = runner.iter_runs()
        first = next(iterator)
        assert first.index == 0  # Available before the batch finishes.
        iterator.close()  # Early close must not raise.


class TestCheckpointResume:
    def test_interrupt_at_half_then_resume_is_bit_identical(self, tmp_path):
        """The acceptance criterion: interrupted-at-50% == uninterrupted."""
        spec = small_spec()
        fresh_dir = tmp_path / "fresh"
        part_dir = tmp_path / "part"
        fresh_dir.mkdir()
        part_dir.mkdir()

        fresh = SweepRunner(spec, csv_path=fresh_dir / "out.csv").run()
        fresh.save_json(fresh_dir / "out.json")

        ck = part_dir / "ck.jsonl"
        first = SweepRunner(
            spec, checkpoint=ck, csv_path=part_dir / "out.csv", stop_after=2
        ).run()
        assert first.folded == 2
        second = SweepRunner(
            spec, checkpoint=ck, csv_path=part_dir / "out.csv"
        ).run(resume=True)
        assert second.complete
        assert second.resumed == 2
        second.save_json(part_dir / "out.json")

        assert (part_dir / "out.csv").read_bytes() == (
            fresh_dir / "out.csv"
        ).read_bytes()
        assert (part_dir / "out.json").read_bytes() == (
            fresh_dir / "out.json"
        ).read_bytes()
        # Aggregates are bit-equal too, not merely close.
        assert [a.rows() for a in second.aggregators] == [
            a.rows() for a in fresh.aggregators
        ]

    def test_resume_skips_finished_runs(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=3).run()
        executed = []
        result = SweepRunner(
            small_spec(),
            checkpoint=ck,
            on_result=lambda p, r: executed.append(p.index),
        ).run(resume=True)
        assert result.complete
        assert executed == [3]  # Only the unfinished tail ran.

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=2).run()
        with open(ck, "a") as handle:
            handle.write('{"kind": "run", "index": 2, "key": "tr')  # torn
        status = read_status(ck)
        assert status.folded == 2
        result = SweepRunner(small_spec(), checkpoint=ck).run(resume=True)
        assert result.complete

    def test_checkpoint_run_lines_are_shard_journal_records(self, tmp_path):
        """A checkpoint is a header plus one shard-journal run record per
        fold (no aggregator snapshots): the same keys, in the same order,
        and the same row and payloads as a dist worker journals."""
        spec = small_spec()
        ck = tmp_path / "ck.jsonl"
        SweepRunner(spec, checkpoint=ck).run()
        entries = read_jsonl(ck).entries
        assert [e["kind"] for e in entries] == ["header"] + ["run"] * 4
        plan_campaign(spec, tmp_path / "camp", chunk_size=4)
        run_worker(tmp_path / "camp", wait=False)
        ledger = read_ledger(tmp_path / "camp")
        shard_path = ledger.shard_journal_path(ledger.shards[0])
        shard_runs = [
            e for e in read_jsonl(shard_path).entries if e["kind"] == "run"
        ]
        assert [list(e) for e in entries[1:]] == [list(e) for e in shard_runs]
        assert run_lines_without_timing(ck) == run_lines_without_timing(
            shard_path
        )

    def test_resume_from_every_prefix_is_bit_identical(self, tmp_path):
        """Cut an uninterrupted checkpoint after k run lines (and once
        inside a torn line): resume executes exactly runs k..n-1, and its
        CSV, JSON and finished journal match the uninterrupted run's."""
        spec = small_spec()
        ref = tmp_path / "ref"
        ref.mkdir()
        full = SweepRunner(
            spec, checkpoint=ref / "ck.jsonl", csv_path=ref / "out.csv"
        ).run()
        full.save_json(ref / "out.json")
        lines = (ref / "ck.jsonl").read_text().splitlines(keepends=True)
        n = full.n_runs
        assert len(lines) == 1 + n
        cases = [(k, "") for k in range(n + 1)]
        cases.append((2, lines[3][: len(lines[3]) // 2]))  # Torn run 2.
        for k, torn in cases:
            case = tmp_path / f"cut{k}{'-torn' if torn else ''}"
            case.mkdir()
            (case / "ck.jsonl").write_text("".join(lines[: 1 + k]) + torn)
            executed = []
            resumed = SweepRunner(
                spec,
                checkpoint=case / "ck.jsonl",
                csv_path=case / "out.csv",
                progress=lambda folded, total, point, s: executed.append(
                    point.index
                ),
            ).run(resume=True)
            resumed.save_json(case / "out.json")
            assert executed == list(range(k, n)), case.name
            assert resumed.resumed == k
            for name in ("out.csv", "out.json"):
                assert (case / name).read_bytes() == (ref / name).read_bytes(), (
                    case.name, name,
                )
            assert run_lines_without_timing(
                case / "ck.jsonl"
            ) == run_lines_without_timing(ref / "ck.jsonl")

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        """A snapshot-era checkpoint names its path and says to start
        over, for resume and status alike."""
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=1).run()
        header, run = read_jsonl(ck).entries
        header["version"] = 1
        del run["agg"]
        snapshot = {"kind": "snapshot", "folded": 1, "state": {}}
        ck.write_text("".join(json_line(e) + "\n" for e in (header, run, snapshot)))
        for attempt in (
            lambda: read_status(ck),
            lambda: SweepRunner(small_spec(), checkpoint=ck).run(resume=True),
        ):
            with pytest.raises(ConfigurationError, match="start the sweep over") as info:
                attempt()
            assert str(ck) in str(info.value)

    def test_update_only_reducer_is_refused_before_any_run(self, tmp_path):
        class Peaks(Aggregator):
            kind = "peaks"

            def spec(self):
                return {"kind": self.kind}

            def update(self, config, result):
                raise AssertionError("no run may fold")

            def rows(self):
                return []

        ck = tmp_path / "ck.jsonl"
        with pytest.raises(ConfigurationError, match="Peaks only overrides update"):
            SweepRunner(small_spec(), aggregators=[Peaks()], checkpoint=ck).run()
        assert not ck.exists()

    def test_existing_checkpoint_without_resume_is_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=1).run()
        with pytest.raises(ConfigurationError, match="already exists"):
            SweepRunner(small_spec(), checkpoint=ck).run()

    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=1).run()
        other = SweepSpec(
            base=SimulationConfig(duration=1.0),
            grid={"benchmark_name": ["Database"]},
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            SweepRunner(other, checkpoint=ck).run(resume=True)

    def test_custom_aggregator_instances_survive_resume(self, tmp_path):
        class CompletedCounter(Aggregator):
            kind = "completed-counter"

            def __init__(self):
                self.total = 0

            def spec(self):
                return {"kind": self.kind}

            def fold_payload(self, config, result):
                return {"completed": int(result.total_completed())}

            def update_payload(self, payload):
                self.total += payload["completed"]

            def rows(self):
                return [{"total_completed": self.total}]

        spec = small_spec()
        reference = SweepRunner(spec, aggregators=[CompletedCounter()]).run()
        ck = tmp_path / "ck.jsonl"
        SweepRunner(
            spec, aggregators=[CompletedCounter()], checkpoint=ck, stop_after=2
        ).run()
        # The factory cannot build this kind; the caller's matching
        # instance must be kept and the journal replayed into it.
        resumed = SweepRunner(
            spec, aggregators=[CompletedCounter()], checkpoint=ck
        ).run(resume=True)
        assert resumed.complete
        assert isinstance(resumed.aggregators[0], CompletedCounter)
        assert resumed.aggregators[0].rows() == reference.aggregators[0].rows()

    def test_status_reports_progress(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(name="statussweep"), checkpoint=ck, stop_after=2).run()
        status = read_status(ck)
        assert status.name == "statussweep"
        assert (status.folded, status.n_runs, status.remaining) == (2, 4, 2)
        assert status.pct == pytest.approx(50.0)
        assert status.last_key.startswith("00001")


class TestAggregateCorrectness:
    def test_scalar_aggregates_match_direct_computation(self):
        spec = small_spec()
        result = SweepRunner(spec).run()
        batch = BatchRunner([p.config for p in spec.iter_points()]).run()
        scalar_rows = {
            row["label"]: row for row in result.aggregators[0].rows()
        }
        for label in ("TALB (Var)", "TALB (Max)"):
            expected = np.mean(
                [
                    run.result.peak_temperature()
                    for run in batch.runs
                    if run.config.label() == label
                ]
            )
            assert scalar_rows[label]["peak_temperature_mean"] == pytest.approx(
                expected
            )
            assert scalar_rows[label]["runs"] == 2
