"""Prometheus text exposition over one metrics walk.

:func:`collect` walks a target and returns typed :class:`Sample` s;
:func:`render_prometheus` renders any target as one scrape body (text
exposition format v0.0.4).  A target is one of:

* a :class:`~repro.core.db.DB` — every numeric
  :class:`~repro.metrics.stats.DBStats` field (a ``per_level_<x>`` list
  becomes ``repro_level_<x>{level=...}``, an ``<x>_by_<label>`` dict
  ``repro_<x>_by_<label>{<label>=...}``), write amplification, the
  per-level file/valid/obsolete gauges, value-log utilization, every
  :class:`~repro.storage.io_stats.IOStats` counter with its per-category
  breakdown, the block and table caches, one histogram per operation when
  latency histograms are on, the tracer and the compaction policy.  The
  walk runs under the engine lock, so the catalog it reports is one
  version, not a mix of two;
* a :class:`~repro.sharding.sharded_db.ShardedDB` — each shard's samples
  with a ``shard=<name>`` label (shard skew, the signal the rebalancer acts
  on, is directly graphable), then the router gauges;
* a :class:`~repro.serve.server.ShardServer` — its ``serve_counters()``,
  then its engine's samples.

The walk pulls values when it is called: nothing registers into it, no
counter changes type, and no hot path knows it exists.  Every subsystem it
reads is fixed and known, so a registration hook would be an extension
point with no second caller.  No HTTP server is included — callers embed
the body in whatever endpoint they already serve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields
from typing import NamedTuple

from ..metrics.amplification import level_rows, vlog_utilization
from ..metrics.stats import NUMERIC_FIELDS
from ..storage.io_stats import COUNTER_FIELDS
from .histogram import BOUNDS

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"

#: DBStats fields that hold a maximum rather than a monotonic count.
_GAUGE_FIELDS = {"max_space_bytes", "per_level_max_obsolete_bytes"}
#: ``serve_counters()`` entries that are gauges, and the label each
#: dict-valued entry's keys ride on.
_SERVE_GAUGES = {"inflight", "connections", "draining"}
_SERVE_LABELS = {"requests": "op", "inflight": "class"}


class Sample(NamedTuple):
    """One series value.  ``value`` is a number, or for a histogram a
    :class:`~repro.obs.histogram.HistogramSnapshot`."""

    name: str
    kind: str
    labels: tuple[tuple[str, str], ...]
    value: object


def collect(target) -> list[Sample]:
    """Every sample ``target`` exposes (see the module docstring)."""
    if hasattr(target, "serve_counters"):
        return _serve_samples(target.serve_counters()) + collect(target.db)
    if hasattr(target, "shard_dbs"):
        samples = []
        for name, db in target.shard_dbs():
            samples += _db_samples(db, (("shard", name),))
        return samples + [
            Sample("repro_router_shards", GAUGE, (), target.num_shards),
            Sample("repro_router_epoch", GAUGE, (), target.router.epoch),
            Sample("repro_router_splits_total", COUNTER, (), target.splits),
            Sample("repro_router_merges_total", COUNTER, (), target.merges),
        ]
    return _db_samples(target, ())


def render_prometheus(target) -> str:
    """One scrape body for ``target``: each family's ``# TYPE`` line
    followed by all of its samples."""
    families: dict[str, list[Sample]] = {}
    for sample in collect(target):
        families.setdefault(sample.name, []).append(sample)
    lines = []
    for name, samples in families.items():
        lines.append(f"# TYPE {name} {samples[0].kind}")
        for sample in samples:
            if sample.kind == HISTOGRAM:
                lines += _histogram_lines(sample)
            else:
                lines.append(f"{name}{_label_str(sample.labels)} {sample.value}")
    return "\n".join(lines) + "\n"


def _serve_samples(counters: dict) -> list[Sample]:
    samples = []
    for key, value in counters.items():
        name = f"repro_serve_{key}"
        kind = GAUGE if key in _SERVE_GAUGES else COUNTER
        if isinstance(value, dict):
            label = _SERVE_LABELS[key]
            samples += [
                Sample(name, kind, ((label, k),), value[k]) for k in sorted(value)
            ]
        else:
            samples.append(Sample(name, kind, (), int(value)))
    return samples


def _db_samples(db, base: tuple[tuple[str, str], ...]) -> list[Sample]:
    """One engine's samples, each carrying ``base`` labels (empty for a
    standalone DB, the engine-shard label under a ShardedDB)."""
    samples: list[Sample] = []

    def add(name: str, value, kind: str = COUNTER, **labels: str) -> None:
        samples.append(Sample(f"repro_{name}", kind, base + tuple(labels.items()), value))

    with db._lock:
        stats = db.stats
        for field in fields(stats):
            name, value = field.name, getattr(stats, field.name)
            kind = GAUGE if name in _GAUGE_FIELDS else COUNTER
            if name in NUMERIC_FIELDS:
                add(name, value, kind)
            elif name.startswith("per_level_"):
                for level, count in enumerate(value):
                    add(name[len("per_"):], count, kind, level=str(level))
            elif "_by_" in name:
                label = name.rsplit("_by_", 1)[1]
                for key in sorted(value):
                    add(name, value[key], kind, **{label: key})
        add("write_amplification", round(stats.write_amplification(), 6), GAUGE)
        reasons = Counter(event.reason for event in stats.events if event.kind != "flush")
        for reason in sorted(reasons):
            add("compactions_by_reason", reasons[reason], reason=reason)
        add("compaction_policy_info", 1, GAUGE, policy=db.picker.policy.name)

        for row in level_rows(db.version):
            level = str(row.level)
            add("level_files", row.files, GAUGE, level=level)
            add("level_valid_bytes", row.valid_bytes, GAUGE, level=level)
            add("level_obsolete_bytes", row.obsolete_bytes, GAUGE, level=level)
        if db.vlog is not None:
            rows = vlog_utilization(db.fs, db.version)
            add("vlog_files", len(rows), GAUGE)
            for row in rows:
                add("vlog_file_bytes", row.live_bytes, GAUGE, file=row.file, state="live")
                add("vlog_file_bytes", row.dead_bytes, GAUGE, file=row.file, state="dead")

        io = db.io_stats
        for name in COUNTER_FIELDS:
            value = getattr(io, name)
            if name.endswith("_s"):
                add(f"io_{name[:-2]}_seconds", round(value, 9))
            else:
                add(f"io_{name}", value)
        for category in sorted(io.per_category):
            counters, safe = io.per_category[category], _sanitize(category)
            add("io_category_bytes", counters.bytes_written, category=safe, dir="write")
            add("io_category_bytes", counters.bytes_read, category=safe, dir="read")
            add("io_category_ops", counters.write_ops, category=safe, dir="write")
            add("io_category_ops", counters.read_ops, category=safe, dir="read")
        for category in sorted(io.time_per_category):
            seconds = round(io.time_per_category[category], 9)
            add("io_category_sim_time_seconds", seconds, category=_sanitize(category))

        # ``shard`` on the per-LRU-shard series is a cache shard; under a
        # ShardedDB that label already names the engine shard, and the
        # shards share one LRU, so the breakdown is left to a lone DB.
        for cache_name in ("block_cache", "table_cache"):
            cache = getattr(db, cache_name)
            snap = cache.snapshot()
            for counter in ("hits", "misses", "evictions", "invalidations"):
                add(f"{cache_name}_{counter}", getattr(snap, counter))
            add(f"{cache_name}_shards", cache.num_shards, GAUGE)
            if cache.num_shards > 1 and not base:
                name = f"{cache_name}_shard_ops"
                for shard, shard_snap in enumerate(cache.shard_snapshots()):
                    add(name, shard_snap.hits, shard=str(shard), op="hit")
                    add(name, shard_snap.misses, shard=str(shard), op="miss")

        if db.latency is not None:
            for op, snap in db.latency.snapshot().items():
                add(f"{_sanitize(op)}_latency_seconds", snap, HISTOGRAM)
        if db.tracer.enabled:
            add("trace_events_recorded", db.tracer.events_recorded)
            add("trace_events_buffered", len(db.tracer), GAUGE)
    return samples


def _histogram_lines(sample: Sample) -> list[str]:
    """Cumulative ``_bucket`` lines over the shared log-scale bounds (empty
    buckets skipped), then ``_sum`` and ``_count``."""
    name, labels, snap = sample.name, sample.labels, sample.value
    lines = []
    cumulative = 0
    for bound, count in zip(BOUNDS, snap.counts):
        if count:
            cumulative += count
            le = (("le", f"{bound:.9g}"),)
            lines.append(f"{name}_bucket{_label_str(labels + le)} {cumulative}")
    lines.append(f"{name}_bucket{_label_str(labels + (('le', '+Inf'),))} {snap.count}")
    lines.append(f"{name}_sum{_label_str(labels)} {round(snap.total, 9)}")
    lines.append(f"{name}_count{_label_str(labels)} {snap.count}")
    return lines


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    """``{k="v",...}``, or the empty string for no labels."""
    if not labels:
        return ""
    return "{" + ",".join(f'{key}="{value}"' for key, value in labels) + "}"
