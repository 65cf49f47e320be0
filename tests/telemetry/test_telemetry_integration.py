"""Telemetry across the stack: byte-identity, campaign rollup, spans.

The acceptance properties of the telemetry subsystem:

* tracing never changes results — sweep exports are byte-identical
  with tracing on or off, and telemetry-off shard journals carry no
  telemetry lines at all;
* a campaign worked by telemetry-enabled workers merges into one
  aggregated metrics report whose ``solver.factorizations`` matches
  the process counter's delta over the same work exactly.
"""

import time

import pytest

from repro.dist import (
    campaign_status,
    merge_campaign,
    plan_campaign,
    read_ledger,
    run_worker,
)
from repro.io.dist import read_shard_journal, try_claim_lease
from repro.io.jsonl import read_jsonl
from repro.sim.config import SimulationConfig
from repro.sweep import SweepRunner, SweepSpec
from repro.telemetry import metrics, trace


def small_spec(name, duration=1.0):
    return SweepSpec(
        base=SimulationConfig(duration=duration),
        grid={"benchmark_name": ["gzip", "Web-med"], "cooling": ["Var", "Max"]},
        name=name,
    )


@pytest.fixture
def tracing():
    trace.enable(capacity=8192)
    trace.clear()
    yield trace
    trace.disable()
    trace.clear()


class TestByteIdentity:
    def test_sweep_outputs_identical_with_tracing_on(self, tmp_path):
        spec = small_spec("telemetry-identity")
        off = SweepRunner(spec, csv_path=tmp_path / "off.csv").run()
        off.save_json(tmp_path / "off.json")
        trace.enable()
        try:
            on = SweepRunner(spec, csv_path=tmp_path / "on.csv").run()
            on.save_json(tmp_path / "on.json")
        finally:
            trace.disable()
            trace.clear()
        assert (tmp_path / "on.csv").read_bytes() == (
            tmp_path / "off.csv"
        ).read_bytes()
        assert (tmp_path / "on.json").read_bytes() == (
            tmp_path / "off.json"
        ).read_bytes()

    def test_untraced_shard_journals_carry_no_telemetry_lines(self, tmp_path):
        """Tracing off (the default) leaves the journal format exactly
        as it was before telemetry existed."""
        spec = small_spec("telemetry-off-journal")
        plan_campaign(spec, tmp_path, chunk_size=2)
        assert not trace.enabled()
        run_worker(tmp_path, worker_id="w", wait=False)
        ledger = read_ledger(tmp_path)
        for shard in ledger.shards:
            entries = read_jsonl(ledger.shard_journal_path(shard)).entries
            assert all(e.get("kind") != "telemetry" for e in entries)
            journal = read_shard_journal(
                ledger.shard_journal_path(shard), shard, ledger.fingerprint
            )
            assert journal.telemetry is None
        assert merge_campaign(tmp_path).telemetry is None


class TestCampaignAggregation:
    def test_merged_factorizations_match_legacy_counter(self, tmp_path, tracing):
        """Two telemetry-enabled workers -> one campaign-wide metrics
        report whose solver.factorizations equals the process counter's
        delta over the same work, exactly."""
        from repro.sim.cache import clear_system_memo

        spec = small_spec("telemetry-campaign")
        plan_campaign(spec, tmp_path, chunk_size=2)
        # Drop memoized systems so the campaign factorizes afresh —
        # otherwise earlier tests' warm memo makes both deltas zero and
        # the equality below trivially weak.
        factorizations = metrics.counter("solver.factorizations")
        clear_system_memo()
        before = factorizations.value()
        run_worker(tmp_path, worker_id="w1", max_shards=1, wait=False)
        run_worker(tmp_path, worker_id="w2", wait=False)
        delta = factorizations.value() - before

        merged = merge_campaign(tmp_path)
        assert merged.complete
        assert merged.telemetry is not None
        assert delta > 0
        assert merged.telemetry["counters"]["solver.factorizations"] == delta
        # The per-shard deltas carry the span-derived timers too.
        assert any(
            key.startswith("span.") for key in merged.telemetry["timers"]
        )

    def test_shard_journal_telemetry_is_per_shard_delta(self, tmp_path, tracing):
        """Each shard journals only its own activity — the deltas sum
        to the whole, with no double counting across shards."""
        spec = small_spec("telemetry-per-shard")
        plan_campaign(spec, tmp_path, chunk_size=2)
        factorizations = metrics.counter("solver.factorizations")
        before = factorizations.value()
        run_worker(tmp_path, worker_id="w", wait=False)
        total = factorizations.value() - before
        ledger = read_ledger(tmp_path)
        per_shard = []
        for shard in ledger.shards:
            journal = read_shard_journal(
                ledger.shard_journal_path(shard), shard, ledger.fingerprint
            )
            per_shard.append(
                journal.telemetry["counters"].get("solver.factorizations", 0)
            )
        assert sum(per_shard) == total


class TestStatusHeartbeat:
    def test_running_shard_reports_fresh_heartbeat(self, tmp_path):
        spec = small_spec("telemetry-heartbeat")
        plan_campaign(spec, tmp_path, chunk_size=2)
        ledger = read_ledger(tmp_path)
        try_claim_lease(ledger.lease_path(ledger.shards[0]), "w1", ttl=60.0)
        state = campaign_status(tmp_path).shards[0]
        assert state.state == "running"
        assert state.worker == "w1"
        assert 0.0 <= state.heartbeat_age_s < 30.0

    def test_stale_shard_reports_heartbeat_older_than_ttl(self, tmp_path):
        spec = small_spec("telemetry-stale")
        plan_campaign(spec, tmp_path, chunk_size=2)
        ledger = read_ledger(tmp_path)
        # A lease claimed 100 s ago with a 30 s ttl: long past deadline.
        try_claim_lease(
            ledger.lease_path(ledger.shards[1]), "w2", ttl=30.0,
            now=time.time() - 100.0,
        )
        state = campaign_status(tmp_path).shards[1]
        assert state.state == "stale"
        assert state.heartbeat_age_s >= 99.0
        assert state.heartbeat_age_s > 30.0

    def test_pending_and_done_shards_have_no_heartbeat(self, tmp_path):
        spec = small_spec("telemetry-no-heartbeat")
        plan_campaign(spec, tmp_path, chunk_size=2)
        state = campaign_status(tmp_path).shards[0]
        assert state.state == "pending"
        assert state.heartbeat_age_s is None


class TestHotPathInstrumentation:
    def test_simulation_emits_expected_span_tree(self, tracing):
        from repro.sim.cache import clear_system_memo
        from repro.sim.engine import simulate

        # Assembly/factorization spans only fire on memo misses.
        clear_system_memo()
        simulate(SimulationConfig(duration=1.0))
        names = {e["name"] for e in trace.events()}
        assert {"assemble", "factorize", "steady", "step"} <= names
        # One step span per interval, each tagged with its index and
        # solve setting.
        steps = [e for e in trace.events() if e["name"] == "step"]
        assert [e["attrs"]["index"] for e in steps] == list(range(10))
        assert all("setting" in e["attrs"] for e in steps)

    def test_system_memo_counters_track_hits_and_misses(self):
        from repro.sim.cache import clear_system_memo, system_for

        hits = metrics.counter("cache.system.hits")
        misses = metrics.counter("cache.system.misses")
        clear_system_memo()
        config = SimulationConfig(duration=1.0)
        h0, m0 = hits.value(), misses.value()
        system_for(config)
        assert misses.value() == m0 + 1
        assert hits.value() == h0
        system_for(config)
        assert hits.value() == h0 + 1
