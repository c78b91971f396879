"""Prometheus text-format exporter over the engine's stats registry.

:func:`render_prometheus` renders one scrape body (text exposition format
v0.0.4) from a live DB: every numeric :class:`~repro.metrics.stats.DBStats`
counter, the per-level write/size series as labeled gauges, the
:class:`~repro.storage.io_stats.IOStats` totals and per-category
breakdown, block-cache hit counters, and — when latency histograms are
enabled — one Prometheus histogram per operation with cumulative
``_bucket{le=...}`` counts over the shared log-scale bounds.

:func:`render_prometheus_sharded` renders the same series for every shard
of a :class:`~repro.sharding.sharded_db.ShardedDB` — one sample per shard
per metric, distinguished by a ``shard="shard-000001"`` label, so shard
skew (the signal the rebalancer acts on) is directly graphable — plus the
router-level gauges (shard count, epoch, lifetime splits/merges).

The exporters only *read*; they take the engine lock briefly to get a
consistent view of the version (level sizes) but copy histograms via
their own locks.  No HTTP server is included — callers embed the body in
whatever endpoint they already serve.
"""

from __future__ import annotations

import dataclasses

from .histogram import BOUNDS

_PREFIX = "repro"

#: DBStats fields exported as counters (monotonic); everything else
#: numeric is exported as a gauge.
_GAUGE_FIELDS = {"max_space_bytes"}


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _label_str(labels: dict[str, str]) -> str:
    """Render a label dict as ``{k="v",...}`` (empty dict -> empty string)."""
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels.items())
    return "{" + body + "}"


class _Body:
    """Accumulates exposition lines; emits each # TYPE header once, so a
    metric sampled by several shards stays a single valid series."""

    def __init__(self):
        self.lines: list[str] = []
        self._typed: set[str] = set()

    def header(self, name: str, kind: str, help_: str = "") -> None:
        if name in self._typed:
            return
        self._typed.add(name)
        if help_:
            self.lines.append(f"# HELP {name} {help_}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self,
        name: str,
        value,
        labels: dict[str, str] | None = None,
        *,
        kind: str = "counter",
        help_: str = "",
    ) -> None:
        """Emit one sample line, writing the HELP/TYPE header the first
        time ``name`` is seen."""
        self.header(name, kind, help_)
        self.lines.append(f"{name}{_label_str(labels or {})} {value}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _render_db(body: _Body, db, base: dict[str, str]) -> None:
    """Append one DB's series to ``body``, every sample carrying ``base``
    labels (empty for a standalone DB, ``{"shard": name}`` per shard)."""

    # -- DBStats scalars ---------------------------------------------------
    stats = db.stats
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        kind = "gauge" if field.name in _GAUGE_FIELDS else "counter"
        body.sample(f"{_PREFIX}_{field.name}", value, base, kind=kind)
    body.sample(
        f"{_PREFIX}_write_amplification",
        round(stats.write_amplification(), 6),
        base,
        kind="gauge",
        help_="SSTable bytes written / user bytes written",
    )

    # -- per-level series --------------------------------------------------
    name = f"{_PREFIX}_level_write_bytes"
    body.header(name, "counter")
    for level, nbytes in enumerate(stats.per_level_write_bytes):
        body.lines.append(
            f"{name}{_label_str({**base, 'level': str(level)})} {nbytes}"
        )
    for metric, getter in (
        ("level_files", lambda lv: len(db.version.files_at(lv))),
        ("level_valid_bytes", db.version.level_valid_bytes),
        ("level_obsolete_bytes", db.version.level_obsolete_bytes),
    ):
        name = f"{_PREFIX}_{metric}"
        body.header(name, "gauge")
        for level in range(db.version.num_levels):
            body.lines.append(
                f"{name}{_label_str({**base, 'level': str(level)})} {getter(level)}"
            )

    # -- compaction policy + tuner (DESIGN.md §14) -------------------------
    # The lifetime switch count exports via the DBStats loop above
    # (``repro_policy_switches``); here the current policy rides an info
    # gauge's label, and per-policy/per-reason compaction counters break
    # the aggregate totals down the way the tuner's decisions shift them.
    picker = getattr(db, "picker", None)
    if picker is not None:
        body.sample(
            f"{_PREFIX}_compaction_policy_info", 1,
            {**base, "policy": picker.policy.name},
            kind="gauge",
            help_="Active compaction policy (the label carries the name)",
        )
    name = f"{_PREFIX}_compactions_by_policy"
    body.header(name, "counter", "Completed compactions per picking policy")
    for policy_name in sorted(stats.compactions_by_policy):
        body.lines.append(
            f"{name}{_label_str({**base, 'policy': policy_name})}"
            f" {stats.compactions_by_policy[policy_name]}"
        )
    reasons: dict[str, int] = {}
    for event in stats.events:
        if event.kind != "flush":
            reasons[event.reason] = reasons.get(event.reason, 0) + 1
    name = f"{_PREFIX}_compactions_by_reason"
    body.header(name, "counter", "Completed compactions per trigger reason")
    for reason in sorted(reasons):
        body.lines.append(
            f"{name}{_label_str({**base, 'reason': reason})} {reasons[reason]}"
        )

    # -- value-log utilization (DESIGN.md §13) -----------------------------
    # One live/dead pair per registered vlog file, from the manifest's
    # garbage ledger; carries ``base`` labels, so the sharded exporter
    # aggregates utilization per engine shard.  The lifetime GC counters
    # (runs, rewrites, deletions) already export via the DBStats loop.
    if getattr(db, "vlog", None) is not None:
        from ..errors import FileSystemError
        from ..vlog import vlog_file_name

        body.sample(
            f"{_PREFIX}_vlog_files", len(db.version.vlog), base, kind="gauge",
            help_="Registered value-log files (head included)",
        )
        name = f"{_PREFIX}_vlog_file_bytes"
        body.header(
            name, "gauge",
            "Per-value-log-file bytes by state (dead = ledgered garbage)",
        )
        for number in sorted(db.version.vlog):
            file_name = vlog_file_name(number)
            dead = db.version.vlog[number]
            try:
                size = db.fs.file_size(file_name)
            except (FileSystemError, OSError):
                size = 0
            body.lines.append(
                f"{name}{_label_str({**base, 'file': file_name, 'state': 'live'})}"
                f" {max(0, size - dead)}"
            )
            body.lines.append(
                f"{name}{_label_str({**base, 'file': file_name, 'state': 'dead'})}"
                f" {dead}"
            )

    # -- IOStats -----------------------------------------------------------
    io = db.io_stats
    for field_name in (
        "bytes_written", "bytes_read", "write_ops", "read_ops",
        "random_reads", "sequential_reads", "files_created", "files_deleted",
    ):
        body.sample(f"{_PREFIX}_io_{field_name}", getattr(io, field_name), base)
    body.sample(f"{_PREFIX}_io_sim_time_seconds", round(io.sim_time_s, 9), base)
    name = f"{_PREFIX}_io_category_bytes"
    body.header(name, "counter")
    for category in sorted(io.per_category):
        counters = io.per_category[category]
        safe = _sanitize(category)
        body.lines.append(
            f"{name}{_label_str({**base, 'category': safe, 'dir': 'write'})}"
            f" {counters.bytes_written}"
        )
        body.lines.append(
            f"{name}{_label_str({**base, 'category': safe, 'dir': 'read'})}"
            f" {counters.bytes_read}"
        )

    # -- block + table caches ----------------------------------------------
    # Aggregates plus per-shard labeled counters (DESIGN.md §9): shard
    # balance is the signal sharded caches exist for, so the exporter
    # surfaces it directly.  (``shard`` here is an LRU cache shard; the
    # engine-shard label, when present, comes from ``base``.)
    for cache_name in ("block_cache", "table_cache"):
        cache = getattr(db, cache_name, None)
        if cache is None:
            continue
        snap = cache.snapshot()
        body.sample(f"{_PREFIX}_{cache_name}_hits", snap.hits, base)
        body.sample(f"{_PREFIX}_{cache_name}_misses", snap.misses, base)
        body.sample(f"{_PREFIX}_{cache_name}_evictions", snap.evictions, base)
        body.sample(
            f"{_PREFIX}_{cache_name}_invalidations", snap.invalidations, base
        )
        body.sample(
            f"{_PREFIX}_{cache_name}_shards", cache.num_shards, base, kind="gauge"
        )
        if cache.num_shards > 1 and not base:
            name = f"{_PREFIX}_{cache_name}_shard_ops"
            body.header(name, "counter")
            for shard, shard_snap in enumerate(cache.shard_snapshots()):
                body.lines.append(
                    f'{name}{{shard="{shard}",op="hit"}} {shard_snap.hits}'
                )
                body.lines.append(
                    f'{name}{{shard="{shard}",op="miss"}} {shard_snap.misses}'
                )

    # -- latency histograms ------------------------------------------------
    registry = getattr(db, "latency", None)
    if registry is not None:
        for op, snap in registry.snapshot().items():
            name = f"{_PREFIX}_{_sanitize(op)}_latency_seconds"
            body.header(name, "histogram")
            cumulative = 0
            for index, bucket_count in enumerate(snap.counts):
                if not bucket_count:
                    continue
                cumulative += bucket_count
                le = f"{BOUNDS[index]:.9g}" if index < len(BOUNDS) else "+Inf"
                body.lines.append(
                    f"{name}_bucket{_label_str({**base, 'le': le})} {cumulative}"
                )
            body.lines.append(
                f"{name}_bucket{_label_str({**base, 'le': '+Inf'})} {snap.count}"
            )
            body.lines.append(
                f"{name}_sum{_label_str(base)} {round(snap.total, 9)}"
            )
            body.lines.append(f"{name}_count{_label_str(base)} {snap.count}")

    # -- tracer ------------------------------------------------------------
    tracer = getattr(db, "tracer", None)
    if tracer is not None and tracer.enabled:
        body.sample(f"{_PREFIX}_trace_events_recorded", tracer.events_recorded, base)
        body.sample(
            f"{_PREFIX}_trace_events_buffered", len(tracer), base, kind="gauge"
        )


def render_prometheus(db) -> str:
    """One Prometheus scrape body for ``db`` (see module docstring)."""
    body = _Body()
    _render_db(body, db, {})
    return body.text()


def render_prometheus_serve(server) -> str:
    """One scrape body for a :class:`~repro.serve.server.ShardServer`.

    Serving-layer series (requests per opcode, in-flight per admission
    class, shed/deadline/error counters, connection + drain gauges) come
    first, then the underlying engine's series — per shard when the server
    fronts a ``ShardedDB``, unlabeled for a standalone DB — so one scrape
    covers the whole process.
    """
    body = _Body()
    counters = server.serve_counters()
    name = f"{_PREFIX}_serve_requests"
    body.header(name, "counter", "Requests dispatched, by opcode")
    for op in sorted(counters["requests"]):
        body.lines.append(
            f"{name}{_label_str({'op': op})} {counters['requests'][op]}"
        )
    name = f"{_PREFIX}_serve_inflight"
    body.header(name, "gauge", "In-flight requests, by admission class")
    for klass in sorted(counters["inflight"]):
        body.lines.append(
            f"{name}{_label_str({'class': klass})} {counters['inflight'][klass]}"
        )
    body.sample(
        f"{_PREFIX}_serve_inline", counters["inline"],
        help_="Data requests answered on the event loop (no-wait engine call)",
    )
    body.sample(
        f"{_PREFIX}_serve_hopped", counters["hopped"],
        help_="Data requests sent to the executor pool (unbounded, or WouldBlock)",
    )
    body.sample(
        f"{_PREFIX}_serve_shed", counters["shed"],
        help_="Requests shed by admission control (STATUS_RETRY_LATER)",
    )
    body.sample(
        f"{_PREFIX}_serve_deadline_exceeded", counters["deadline_exceeded"],
        help_="Requests that ran out of deadline budget",
    )
    body.sample(
        f"{_PREFIX}_serve_protocol_errors", counters["protocol_errors"],
        help_="Connections terminated for malformed frames",
    )
    body.sample(
        f"{_PREFIX}_serve_engine_errors", counters["engine_errors"],
        help_="Requests answered with an engine error status",
    )
    body.sample(
        f"{_PREFIX}_serve_cancelled_inflight", counters["cancelled_inflight"],
        help_="In-flight requests cancelled by a drain-timeout expiry",
    )
    body.sample(
        f"{_PREFIX}_serve_connections", counters["connections"], kind="gauge",
        help_="Open client connections",
    )
    body.sample(
        f"{_PREFIX}_serve_draining", int(counters["draining"]), kind="gauge",
        help_="1 while the server is draining for shutdown",
    )
    if hasattr(server.db, "shard_dbs"):
        for shard_name, shard_db in server.db.shard_dbs():
            _render_db(body, shard_db, {"shard": shard_name})
    else:
        _render_db(body, server.db, {})
    return body.text()


def render_prometheus_sharded(sharded_db) -> str:
    """One scrape body for every shard of a ``ShardedDB``.

    Each engine series is sampled once per shard with a ``shard=<name>``
    label; router-level gauges (shard count, epoch, splits/merges) follow.
    """
    body = _Body()
    for name, shard_db in sharded_db.shard_dbs():
        _render_db(body, shard_db, {"shard": name})
    body.sample(
        f"{_PREFIX}_router_shards", sharded_db.num_shards, kind="gauge",
        help_="Live shards in the routing map",
    )
    body.sample(
        f"{_PREFIX}_router_epoch", sharded_db.router.epoch, kind="gauge",
        help_="Router map generation (bumps on every split/merge)",
    )
    body.sample(
        f"{_PREFIX}_router_splits_total", sharded_db.splits,
        help_="Lifetime shard splits performed by this process",
    )
    body.sample(
        f"{_PREFIX}_router_merges_total", sharded_db.merges,
        help_="Lifetime shard merges performed by this process",
    )
    return body.text()
