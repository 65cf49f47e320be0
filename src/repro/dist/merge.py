"""Deterministic merge of shard journals into campaign results.

The merger never simulates. It reads every shard journal in canonical
run-index order and replays each run's journaled aggregator fold
payloads (:func:`~repro.sweep.aggregate.replay_payloads`, the same step
a sweep checkpoint resume takes) into aggregators rebuilt from the
ledger header — the *same float
operations in the same order* a single-host
:class:`~repro.sweep.runner.SweepRunner` would have performed, so the
merged aggregates, CSV, and completion JSON are byte-identical to a
one-process run of the same spec, however the campaign was sharded and
in whatever order workers finished.

:func:`campaign_status` is the read-only side: per-shard
done/leased/stale/pending accounting for the ``repro dist status`` CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.io.dist import (
    Shard,
    read_lease,
    read_ledger,
    read_shard_journal,
)
from repro.io.sweep import save_sweep_json, write_sweep_csv
from repro.sweep.aggregate import (
    Aggregator,
    aggregate_tables,
    aggregator_from_spec,
    replay_payloads,
)
from repro.telemetry.metrics import MetricsRegistry


@dataclass
class MergeResult:
    """A merged campaign: rows + aggregators, ready to export.

    Mirrors :class:`~repro.sweep.runner.SweepResult` where it matters:
    ``rows`` are the deterministic export rows in run-index order and
    ``save_json`` writes the identical completion payload.
    """

    name: str
    fingerprint: str
    n_runs: int
    folded: int
    rows: list[dict]
    aggregators: list[Aggregator]
    shards_merged: int = 0
    shards_missing: list[str] = field(default_factory=list)
    #: Complete shards that could not fold because an earlier shard is
    #: missing (replay is order-sensitive, so a gap ends a partial merge).
    shards_skipped: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Campaign-wide metrics snapshot summed from the per-shard deltas
    #: telemetry-enabled workers journal (``None`` when no merged shard
    #: carried one — i.e. the campaign ran with telemetry off).
    telemetry: Optional[dict] = None

    @property
    def complete(self) -> bool:
        return self.folded >= self.n_runs

    def aggregate_rows(self) -> dict[str, list[dict]]:
        """Rendered aggregate tables, keyed exactly as a sweep's."""
        return aggregate_tables(self.aggregators)

    def save_json(self, path: Union[str, Path]) -> None:
        """Write the completion JSON (byte-identical to the single-host
        :meth:`~repro.sweep.runner.SweepResult.save_json`)."""
        save_sweep_json(
            self.rows,
            self.aggregate_rows(),
            path,
            name=self.name,
            fingerprint=self.fingerprint,
        )

    def save_csv(self, path: Union[str, Path]) -> None:
        """Write the per-run CSV (byte-identical to a streamed one)."""
        write_sweep_csv(self.rows, path)


def merge_campaign(
    directory: Union[str, Path], allow_partial: bool = False
) -> MergeResult:
    """Fold a campaign's shard journals into the final aggregates.

    All shards must be complete unless ``allow_partial`` — in which
    case only the contiguous complete *prefix* of shards is folded
    (aggregator replay is order-sensitive, so a gap ends the fold);
    incomplete shards are reported in ``shards_missing`` and complete
    shards stranded beyond the first gap in ``shards_skipped``.
    """
    ledger = read_ledger(directory)
    journals = []
    missing = []
    for shard in ledger.shards:
        journal = read_shard_journal(
            ledger.shard_journal_path(shard), shard, ledger.fingerprint
        )
        if journal is None or not journal.complete:
            missing.append(shard.shard_id)
            journals.append(None)
        else:
            journals.append(journal)
    if missing and not allow_partial:
        raise ConfigurationError(
            f"campaign {ledger.directory} has {len(missing)} incomplete "
            f"shard(s) ({', '.join(missing[:3])}{'...' if len(missing) > 3 else ''}); "
            "run more workers, or merge --partial for the finished prefix"
        )
    aggregators = [aggregator_from_spec(s) for s in ledger.aggregator_specs]
    rows: list[dict] = []
    elapsed = 0.0
    shards_merged = 0
    skipped: list[str] = []
    # Per-shard metric deltas (journaled only by telemetry-enabled
    # workers) sum into one campaign-wide snapshot through a private
    # registry — never the process one, so merging a campaign does not
    # pollute the merger's own counters.
    telemetry_registry = MetricsRegistry()
    saw_telemetry = False
    folding = True
    for shard, journal in zip(ledger.shards, journals):
        if journal is None:
            folding = False  # A gap ends the (order-sensitive) fold.
            continue
        if not folding:
            skipped.append(shard.shard_id)
            continue
        _validate_journal(shard, journal)
        for row, payloads, seconds in zip(
            journal.rows, journal.payloads, journal.elapsed
        ):
            rows.append(row)
            replay_payloads(aggregators, payloads)
            elapsed += seconds
        if journal.telemetry is not None:
            telemetry_registry.merge(journal.telemetry)
            saw_telemetry = True
        shards_merged += 1
    return MergeResult(
        name=ledger.name,
        fingerprint=ledger.fingerprint,
        n_runs=ledger.n_runs,
        folded=len(rows),
        rows=rows,
        aggregators=aggregators,
        shards_merged=shards_merged,
        shards_missing=missing,
        shards_skipped=skipped,
        elapsed_s=elapsed,
        telemetry=telemetry_registry.snapshot() if saw_telemetry else None,
    )


def _validate_journal(shard: Shard, journal) -> None:
    """A complete journal must cover exactly its shard's run range."""
    indices = [row.get("run") for row in journal.rows]
    if indices != list(range(shard.start, shard.stop)):
        raise ConfigurationError(
            f"shard {shard.shard_id} journal covers runs {indices[:3]}..., "
            f"expected [{shard.start}, {shard.stop}); re-run the shard "
            "after deleting its journal"
        )


# --- status ----------------------------------------------------------------


@dataclass
class ShardState:
    """One shard's live state, for status displays."""

    shard: Shard
    state: str  # done | running | stale | pending
    worker: str = ""
    runs_journaled: int = 0
    #: Sum of the shard journal's per-run wall times (0 when nothing
    #: has been journaled yet).
    elapsed_s: float = 0.0
    #: Seconds since the holding worker last refreshed its lease;
    #: ``None`` for done/pending shards (no live lease to age).
    heartbeat_age_s: Optional[float] = None


@dataclass
class CampaignStatus:
    """What a campaign directory says about its progress."""

    name: str
    fingerprint: str
    n_runs: int
    n_shards: int
    shards: list[ShardState]

    def count(self, state: str) -> int:
        return sum(1 for s in self.shards if s.state == state)

    @property
    def runs_done(self) -> int:
        return sum(
            s.shard.n_runs for s in self.shards if s.state == "done"
        )

    @property
    def complete(self) -> bool:
        return self.count("done") == self.n_shards


def campaign_status(directory: Union[str, Path]) -> CampaignStatus:
    """Summarize a campaign without touching any lease or journal."""
    ledger = read_ledger(directory)
    now = time.time()
    states = []
    for shard in ledger.shards:
        journal = read_shard_journal(
            ledger.shard_journal_path(shard), shard, ledger.fingerprint
        )
        journaled = journal.n_runs if journal is not None else 0
        elapsed = journal.elapsed_s if journal is not None else 0.0
        if journal is not None and journal.complete:
            states.append(
                ShardState(shard, "done", journal.worker, journaled, elapsed)
            )
            continue
        lease = read_lease(ledger.lease_path(shard))
        if lease is None:
            states.append(ShardState(shard, "pending", "", journaled, elapsed))
        else:
            state = "stale" if lease.stale(now) else "running"
            states.append(
                ShardState(
                    shard, state, lease.worker, journaled, elapsed,
                    heartbeat_age_s=lease.heartbeat_age(now),
                )
            )
    return CampaignStatus(
        name=ledger.name,
        fingerprint=ledger.fingerprint,
        n_runs=ledger.n_runs,
        n_shards=len(ledger.shards),
        shards=states,
    )
