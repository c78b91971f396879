"""Per-layer metrics: exact counts from the engine's public counters, and
times from a traced pass.

Counts (**C** in the README) are differences over the timed phase of an
*untraced* run — ``DB.stats``, ``DB.io_stats``, ``block_cache.stats``,
``table_cache.stats``, ``ShardServer.serve_counters()`` — except gauges,
which are read once at its end.  Times (**T**) come from
:class:`tracing.Summary`.  A metric a workload cannot produce (no scans,
no server) reads 0.
"""

from __future__ import annotations

import statistics

from tracing import Summary

#: ``DBStats`` fields summed across engines and differenced over the phase.
_STATS = (
    "user_bytes_written", "user_writes", "flush_count", "stall_events",
    "stall_time_s", "gets", "gets_found", "scans", "scan_entries",
    "seek_miss_charges", "table_compactions", "block_compactions",
    "trivial_moves", "seek_triggered_compactions", "compaction_bytes_read",
    "compaction_bytes_written", "filter_absorbs", "filter_rebuilds",
    "obsolete_files_deleted",
)
_IO = (
    "write_ops", "bytes_written", "random_reads", "sequential_reads",
    "bytes_read", "syncs", "files_created", "files_deleted", "sim_time_s",
)
_LRU = ("hits", "misses", "evictions", "invalidations")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def snapshot(target) -> dict:
    """Every cumulative counter the per-layer metrics difference."""
    engines = target.engines()
    snap: dict = {f: sum(getattr(db.stats, f) for db in engines) for f in _STATS}
    io = target.io_stats()
    snap.update({f"io.{f}": getattr(io, f) for f in _IO})
    # Sharded engines report one shared cache through every shard.
    block, table = engines[0].block_cache.stats, engines[0].table_cache.stats
    snap.update({f"block.{f}": getattr(block, f) for f in _LRU})
    snap.update({f"table.{f}": getattr(table, f) for f in _LRU})
    per_io = [db.io_stats for db in engines]
    snap["io.background_s"] = sum(s.background_time_s() for s in per_io)
    snap["io.wal_bytes"] = sum(s.category("wal").bytes_written for s in per_io)
    snap["io.get_reads"] = sum(s.category("get").read_ops for s in per_io)
    snap["shard_ops"] = [
        db.stats.user_writes + db.stats.gets + db.stats.scans for db in engines
    ]
    snap.update(target.serving())
    return snap


def _delta(start: dict, end: dict) -> dict:
    out = {}
    for name, value in end.items():
        before = start.get(name, 0)
        if isinstance(value, list):
            out[name] = [b - a for a, b in zip(before or [0] * len(value), value)]
        else:
            out[name] = value - before
    return out


def counts(target, start: dict, end: dict, put_sim_s: list[float]) -> dict[str, float]:
    """The **C** metrics.  ``start``/``end`` bracket the timed phase."""
    d = _delta(start, end)
    engines = target.engines()
    memory = [db.table_cache_memory() for db in engines]
    block_cache = engines[0].block_cache
    shard_ops = d["shard_ops"]
    sim = sorted(put_sim_s)
    return {
        "serve.client.retries": d.get("retries", 0),
        "serve.client.breaker_trips": d.get("breaker_trips", 0),
        "serve.server.requests": d.get("requests", 0),
        "serve.server.shed": d.get("shed", 0),
        "serve.server.deadline_exceeded": d.get("deadline_exceeded", 0),
        "serve.server.engine_errors": d.get("engine_errors", 0),
        "serve.server.protocol_errors": d.get("protocol_errors", 0),
        "serve.server.cancelled_inflight": d.get("cancelled_inflight", 0),
        "sharding.shard_op_skew": _ratio(max(shard_ops), statistics.fmean(shard_ops)),
        "sharding.splits": d.get("splits", 0),
        "sharding.merges": d.get("merges", 0),
        "core.db.flush_count": d["flush_count"],
        "core.db.stall_events": d["stall_events"],
        "core.db.stall_time_s": d["stall_time_s"],
        "core.db.seek_miss_charges": d["seek_miss_charges"],
        "core.db.gets_found_share": _ratio(d["gets_found"], d["gets"]),
        "core.version.files_total": sum(db.version.num_files() for db in engines),
        "core.iterator.entries_per_scan": _ratio(d["scan_entries"], d["scans"]),
        "memtable.wal_bytes_per_user_byte": _ratio(
            d["io.wal_bytes"], d["user_bytes_written"]
        ),
        "sstable.index_memory_bytes": sum(m.index_bytes for m in memory),
        "sstable.filter_memory_bytes": sum(m.filter_bytes for m in memory),
        "bloom.absorbs": d["filter_absorbs"],
        "bloom.rebuilds": d["filter_rebuilds"],
        "cache.block_hit_rate": _ratio(d["block.hits"], d["block.hits"] + d["block.misses"]),
        "cache.block_evictions": d["block.evictions"],
        "cache.block_invalidations": d["block.invalidations"],
        "cache.block_usage_share": _ratio(block_cache.usage, block_cache.capacity),
        "cache.table_hit_rate": _ratio(d["table.hits"], d["table.hits"] + d["table.misses"]),
        "cache.table_evictions": d["table.evictions"],
        "compaction.table_count": d["table_compactions"],
        "compaction.block_count": d["block_compactions"],
        "compaction.trivial_moves": d["trivial_moves"],
        "compaction.seek_triggered": d["seek_triggered_compactions"],
        "compaction.bytes_read": d["compaction_bytes_read"],
        "compaction.bytes_written": d["compaction_bytes_written"],
        "compaction.obsolete_bytes_peak": sum(
            sum(db.stats.per_level_max_obsolete_bytes) for db in engines
        ),
        "compaction.obsolete_files_deleted": d["obsolete_files_deleted"],
        # The deterministic compaction-stall tail: p99.9 of the simulated
        # device time one put advanced the clock by (engine workloads).
        "compaction.put_stall_p999_sim_us": (
            sim[-(-999 * len(sim) // 1000) - 1] * 1e6 if sim else 0.0
        ),
        "storage.write_ops": d["io.write_ops"],
        "storage.bytes_written": d["io.bytes_written"],
        "storage.read_ops_random": d["io.random_reads"],
        "storage.read_ops_sequential": d["io.sequential_reads"],
        "storage.bytes_read": d["io.bytes_read"],
        "storage.syncs": d["io.syncs"],
        "storage.files_created": d["io.files_created"],
        "storage.files_deleted": d["io.files_deleted"],
        "storage.device_reads_per_get": _ratio(d["io.get_reads"], d["gets"]),
        "storage.sim_foreground_s": d["io.sim_time_s"] - d["io.background_s"],
        "storage.sim_background_s": d["io.background_s"],
    }


_OPS = ("get", "put", "multi_get", "scan")


def times(
    s: Summary, *, scale: float, traced_op_ns: float, untraced_op_ns: float,
    traced_wall_ns: float, compaction_bytes: int,
) -> dict[str, float]:
    """The **T** metrics, from one traced pass over the first fifth of the
    op list.  ``scale`` is that pass's host-speed factor (spans are raw
    ns); ``*_op_ns`` are the driver's own sums of per-call time over that
    same prefix, traced and untraced, and like ``traced_wall_ns`` already
    at reference speed."""
    us = 1e-3 * scale

    def per(total_ns: float, count: float) -> float:
        return _ratio(total_ns * us, count)

    def mean_us(name: str) -> float:
        p = s.point(name)
        return per(p.total_ns, p.calls)

    requests = sum(s.point(f"ServeClient.{m}").calls for m in _OPS)
    encode, decode = s.named("protocol.encode"), s.named("protocol.decode")
    sharded = [f"ShardedDB.{m}" for m in _OPS]
    gets = s.ops["get"] + s.ops["multi_get"]
    puts = s.point("DB.put").calls
    file_for_key = ("Version.file_for_key", "SuperVersion.file_for_key")
    wal = ("WalWriter.add_record", "WalWriter.add_records")
    merged = s.point("iterator.merge_visible")
    yielded = s.point("DBIterator.__next__")
    bloom = s.point("TableFilter.may_contain")
    lookups = s.point("TableReader.lookup")
    mem_get = s.point("MemTable.get")
    builder_adds = s.point("TableBuilder.add").calls
    appender_adds = s.point("AppendSession.add").calls
    busy_ns = s.sum(*s.named("db.run_"))
    fs_calls = s.named("WritableFile.") + s.named("RandomAccessFile.")
    return {
        "serve.protocol.encode_us_per_req": per(s.sum(*encode, what="self_ns"), requests),
        "serve.protocol.decode_us_per_req": per(s.sum(*decode, what="self_ns"), requests),
        "serve.protocol.frame_bytes_per_req": _ratio(
            s.point("protocol.encode_frame").value_sum, requests
        ),
        # Wire + event loop + admission + executor hop: what is left of the
        # client's span once protocol work and the ShardedDB call are taken out.
        "serve.server.hop_us_per_req": per(s.layer_self.get("serve.server", 0), requests),
        "sharding.route_us_per_op": per(
            s.sum(*sharded, what="self_ns"), sum(s.point(n).calls for n in sharded)
        ),
        "core.db.put_self_us_per_op": per(s.point("DB.put").self_ns, puts),
        "core.db.get_self_us_per_op": per(
            s.point("DB.get").self_ns, s.point("DB.get").calls
        ),
        "core.db.scan_self_us_per_op": per(
            s.point("DB.scan").self_ns, s.point("DB.scan").calls
        ),
        "core.db.flush_us_per_flush": mean_us("db.flush_memtable"),
        "core.version.file_for_key_us_per_get": per(s.sum(*file_for_key), gets),
        "core.version.file_for_key_calls_per_get": _ratio(
            sum(s.point(n).calls for n in file_for_key), gets
        ),
        "core.version.overlapping_files_us_per_call": mean_us("Version.overlapping_files"),
        "core.version.apply_us_per_edit": mean_us("Version.apply"),
        "core.iterator.us_per_scan_entry": per(
            s.layer_self.get("core.iterator", 0), yielded.calls
        ),
        "core.merge.merge_visible_us_per_entry": per(merged.self_ns, merged.calls),
        "core.manifest.edits": s.point("ManifestWriter.log_edit").calls,
        "core.manifest.log_edit_us_per_edit": mean_us("ManifestWriter.log_edit"),
        "memtable.wal_append_us_per_put": per(s.sum(*wal), puts),
        "memtable.add_us_per_put": per(s.point("MemTable.add").total_ns, puts),
        "memtable.get_us_per_get": mean_us("MemTable.get"),
        "memtable.get_hit_share": _ratio(mem_get.value_hits, mem_get.calls),
        "memtable.group_size_mean": _ratio(
            s.sum(*wal, what="value_sum"), sum(s.point(n).calls for n in wal)
        ),
        "sstable.table_probes_per_get": _ratio(lookups.calls, gets),
        "sstable.table_get_us_per_probe": mean_us("TableReader.lookup"),
        "sstable.block_reads_per_get": _ratio(s.get_block_reads, s.ops["get"]),
        "sstable.block_decode_us_per_block": mean_us("table_reader.parse_block_raw"),
        "sstable.build_us_per_entry": per(
            s.sum("TableBuilder.add", "TableBuilder.finish"), builder_adds
        ),
        "sstable.append_us_per_entry": per(
            s.sum("AppendSession.add", "AppendSession.finish"), appender_adds
        ),
        "sstable.reader_reloads": s.point("TableReader.reload").calls,
        "bloom.checks_per_get": _ratio(bloom.calls, gets),
        "bloom.negative_share": _ratio(bloom.calls - bloom.value_hits, bloom.calls),
        "bloom.false_positive_share": _ratio(s.bloom_false_positives, bloom.calls),
        "bloom.check_us_per_call": mean_us("TableFilter.may_contain"),
        "cache.block_get_us_per_call": mean_us("BlockCache.get"),
        "compaction.busy_s": busy_ns * scale * 1e-9,
        "compaction.busy_share": _ratio(busy_ns * scale, traced_wall_ns),
        "compaction.us_per_kib_written": per(busy_ns, compaction_bytes / 1024),
        "compaction.pick_us_per_call": mean_us("CompactionPicker.pick"),
        "storage.fs_call_us_per_io": per(
            s.sum(*fs_calls), sum(s.point(n).calls for n in fs_calls)
        ),
        "trace.spans": s.span_count,
        "trace.overhead_ratio": _ratio(traced_op_ns, untraced_op_ns),
        "trace.closure_share": _ratio(sum(s.layer_self.values()) * scale, traced_op_ns),
    }
