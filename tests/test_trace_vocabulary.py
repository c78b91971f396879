"""The engine's trace vocabulary, pinned against a golden file.

A deterministic synchronous-mode workload runs with ``tracing=True`` —
memtable flushes, Table and Block Compaction, trivial moves, a
key-value-separated store whose value log is garbage-collected, and a
``compact_all`` on each — and every event it records is reduced to
``(phase, name, category, args)``.  Timestamps and durations are left out;
everything else must equal ``golden/trace_vocabulary.jsonl``:

* its first line holds the event count and a SHA-256 over the whole
  stream, per-I/O ``fs.*`` events, ``write`` spans and ``wal.group``
  markers included;
* every other line is one of the remaining events (flush, compaction,
  sub-task and GC spans), in order, so a changed span shows as a diff.

A refactor of how spans are opened and closed must leave the stream
identical.  To re-baseline on purpose (a span added, renamed or given
new arguments), run ``PYTHONPATH=src python tests/test_trace_vocabulary.py
--regenerate`` and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.core.db import DB
from repro.options import COMPACTION_BLOCK, COMPACTION_SELECTIVE, Options
from repro.storage.fs import SimulatedFS

GOLDEN = Path(__file__).resolve().parent / "golden" / "trace_vocabulary.jsonl"

#: High-volume events: pinned by the digest only.
_DIGEST_ONLY = ("fs.read", "fs.write", "write", "wal.group")

_GEOMETRY = dict(
    block_size=512,
    sstable_size=4096,
    memtable_size=4096,
    max_levels=5,
    level0_size_factor=4,
    level_size_multiplier=4,
    tracing=True,
)


def _workload(db: DB) -> None:
    """600 shuffled puts of 64 B values, 300 updates, 50 gets, one
    ``multi_get``, one scan and ``compact_all``."""
    order = list(range(600))
    random.Random(7).shuffle(order)
    for i in order:
        db.put(b"key%06d" % i, (b"v%06d." % i) * 8)
    for i in order[:300]:
        db.put(b"key%06d" % i, (b"u%06d." % i) * 8)
    for i in order[:50]:
        db.get(b"key%06d" % i)
    db.multi_get([b"key%06d" % i for i in order[:10]])
    db.scan(b"key000100", None, 20)
    db.compact_all()


def trace_stream() -> list[list]:
    """``[phase, name, category, args]`` for every event the two runs record."""
    stream: list[list] = []
    for options in (
        Options(compaction_style=COMPACTION_BLOCK, **_GEOMETRY),
        Options(
            compaction_style=COMPACTION_SELECTIVE,
            kv_separation=True,
            kv_separation_threshold=32,
            vlog_file_size=1024,
            vlog_gc_ratio=0.3,
            **_GEOMETRY,
        ),
    ):
        db = DB(SimulatedFS(), options)
        _workload(db)
        # The ring must not have dropped anything.
        assert db.tracer.events_recorded == len(db.tracer)
        stream.extend([e.phase, e.name, e.category, e.args] for e in db.tracer.events())
        db.close()
    return stream


def render(stream: list[list]) -> list[str]:
    digest = hashlib.sha256()
    lines = []
    for event in stream:
        line = json.dumps(event, sort_keys=True)
        digest.update(line.encode() + b"\n")
        if event[1] not in _DIGEST_ONLY:
            lines.append(line)
    header = json.dumps({"events": len(stream), "sha256": digest.hexdigest()})
    return [header, *lines]


def test_trace_stream_matches_the_golden_file():
    stream = trace_stream()
    names = {event[1] for event in stream}
    # The workload reaches every kind of background work it is meant to.
    assert {"flush.build", "flush.commit", "compaction.execute", "compaction.commit",
            "compaction.subtask", "vlog.gc"} <= names
    kinds = {event[3]["kind"] for event in stream if event[1] == "compaction.commit"
             and event[0] == "B"}
    assert {"table", "block", "trivial"} <= kinds
    assert render(stream) == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_trace_vocabulary.py --regenerate")
    GOLDEN.write_text("\n".join(render(trace_stream())) + "\n")
    print(f"wrote {GOLDEN}")
