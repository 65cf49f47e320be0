"""Hardened JSON-lines plumbing shared by every journal in the repo.

Both the sweep checkpoint (:mod:`repro.sweep.runner`) and the
distributed campaign ledgers/shard journals (:mod:`repro.io.dist`) are
append-only JSONL files that must survive being killed mid-write:

* :class:`JsonlAppender` writes each batch of lines as **one** buffered
  write followed by flush + fsync, so a crash can tear at most the
  final line of the file — never interleave or reorder lines;
* :func:`read_jsonl` parses a journal back, stopping at (and
  reporting) a torn trailing line instead of crashing, so resume and
  merge paths recover from kills without manual surgery.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Union


def json_line(payload: dict) -> str:
    """One canonical compact JSONL line (no trailing newline)."""
    return json.dumps(payload, separators=(",", ":"))


def run_record(
    index: int, key: str, row: dict, payloads: dict, elapsed_s: float
) -> dict:
    """The ``run`` line of a sweep checkpoint and of a shard journal.

    One record per folded run: its deterministic export row plus each
    aggregator's fold payload (``payloads``, keyed by aggregator
    position), which is everything a resume or a merge needs to
    rebuild the aggregates by replay.
    """
    return {
        "kind": "run",
        "index": index,
        "key": key,
        "row": row,
        "agg": payloads,
        "elapsed_s": elapsed_s,
    }


class JsonlAppender:
    """Appends whole JSONL records to a journal, crash-consistently.

    Every :meth:`append` call joins its payloads into a single string
    and hands it to the OS as one write, then flushes and fsyncs — so
    a kill between two appends leaves a clean journal, and a kill
    *during* an append tears only the trailing line (which
    :func:`read_jsonl` detects and discards). Grouping related records
    into one ``append`` makes them land atomically-together or not at
    all on all mainstream filesystems.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = open(self.path, "a")

    def append(self, *payloads: dict) -> None:
        """Write the payload lines as one flush+fsync'd write."""
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        if not payloads:
            return
        text = "".join(json_line(payload) + "\n" for payload in payloads)
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class JsonlDocument:
    """A parsed journal: clean entries plus what (if anything) was torn."""

    entries: list[dict]
    torn: bool = False
    torn_line: str = ""

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def read_jsonl(path: Union[str, Path]) -> JsonlDocument:
    """Read a JSONL journal, tolerating a torn trailing line.

    A record that fails to parse ends the journal: it (and anything
    after it, which a single-writer append-only journal cannot have
    produced cleanly) is discarded and reported via ``torn`` so callers
    can log, truncate, or re-execute as appropriate.
    """
    document = JsonlDocument(entries=[])
    with open(path) as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped)
            except json.JSONDecodeError:
                document.torn = True
                document.torn_line = stripped
                break
            document.entries.append(entry)
    return document


def truncate_to_consistent(path: Union[str, Path]) -> JsonlDocument:
    """Drop a torn trailing line from a journal in place.

    Reads the journal tolerantly and, when a torn line is found,
    rewrites the file to its clean prefix (same-directory temp +
    rename, so the repair itself cannot tear). Returns the parsed
    clean document either way.
    """
    path = Path(path)
    document = read_jsonl(path)
    if document.torn:
        text = "".join(json_line(entry) + "\n" for entry in document.entries)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
    return document
