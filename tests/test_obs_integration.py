"""Observability integration tests: engine tracing end to end, timeline
rendering from a real workload, the Prometheus exporter, the CLI
subcommands, the disabled-mode determinism contract, and the exactness
stress tests of the stats lock and the per-thread read tallies (DESIGN.md
§8)."""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

from repro.metrics.stats import DBStats
from repro.obs.prom import render_prometheus
from repro.obs.timeline import build_spans, load_events, render_timeline
from repro.obs.trace import PHASE_BEGIN, PHASE_END
from repro.storage.fs import LocalFS, SimulatedFS
from repro.tools.__main__ import main as tools_main
from repro.tools.metrics_report import format_store_report, replay_store
from repro.ycsb.runner import load_db, run_workload
from repro.ycsb.workloads import WorkloadSpec

from conftest import kv, make_db, tiny_options

UPDATE_HEAVY = WorkloadSpec(
    name="update-heavy", read_ratio=0.3, write_ratio=0.7, scan_ratio=0.0,
    write_mode="update", zipf=0.99,
)


def obs_db(**overrides):
    """A tiny-geometry DB with tracing + latency histograms enabled."""
    return make_db(tracing=True, latency_histograms=True, **overrides)


# ------------------------------------------------------------ engine tracing


def test_engine_emits_write_flush_compaction_spans():
    db = obs_db()
    try:
        for i in range(200):
            key, value = kv(i)
            db.put(key, value)
        db.compact_all()
        events = db.tracer.events()
    finally:
        db.close()
    names = {event.name for event in events}
    assert {"write", "flush.build", "flush.commit"} <= names
    assert {"compaction.pick", "compaction.execute", "compaction.commit"} <= names
    assert {"fs.write", "fs.read"} <= names
    # Commits are begin/end spans (their catalog + manifest work has a
    # duration the timeline can show), never instants.
    for name in ("flush.commit", "compaction.commit"):
        phases = [event.phase for event in events if event.name == name]
        assert phases.count(PHASE_BEGIN) == phases.count(PHASE_END) > 0
        assert set(phases) == {PHASE_BEGIN, PHASE_END}


def test_trace_sim_timestamps_track_device_clock():
    db = obs_db()
    try:
        for i in range(100):
            key, value = kv(i)
            db.put(key, value)
        sim_now = db.io_stats.sim_time_s
        events = db.tracer.events()
    finally:
        db.close()
    assert sim_now > 0.0
    assert max(e.sim_ts for e in events) <= sim_now + 1e-9
    # fs writes carry the charged device cost as their simulated duration.
    fs_writes = [e for e in events if e.name == "fs.write"]
    assert fs_writes and all(e.sim_dur > 0.0 for e in fs_writes)


def test_timeline_renders_flush_and_compaction_from_real_run():
    db = obs_db()
    try:
        load_db(db, 300, value_size=64)
        run_workload(db, UPDATE_HEAVY, 200, 300, value_size=64)
        db.compact_all()
        spans = build_spans(db.tracer.events())
    finally:
        db.close()
    chart = render_timeline(spans)
    assert "flush" in chart
    assert "compact L" in chart  # at least one level pair lane
    lanes = {s.lane() for s in spans}
    assert any(lane.startswith("compact L") and "execute" in lane for lane in lanes)


def test_background_pipeline_traces_bg_rounds_and_stalls():
    db = make_db(
        tracing=True,
        latency_histograms=True,
        background_compaction=True,
    )
    try:
        for i in range(400):
            key, value = kv(i)
            db.put(key, value)
        db.wait_for_background(timeout=60)
        names = {event.name for event in db.tracer.events()}
    finally:
        db.close()
    assert "bg.round" in names
    assert "wal.group" in names  # one marker per WAL device append


def test_wal_group_instant_counts_records():
    db = make_db(tracing=True)  # no option: every commit is a group of >= 1
    try:
        db.put(b"k1", b"v1")
        groups = [e for e in db.tracer.events() if e.name == "wal.group"]
    finally:
        db.close()
    assert len(groups) == 1
    assert groups[0].args["records"] == 1 and groups[0].args["bytes"] > 0


def test_run_result_carries_latency_summaries():
    db = obs_db()
    try:
        load_result = load_db(db, 200, value_size=64)
        run_result = run_workload(db, UPDATE_HEAVY, 300, 200, value_size=64)
    finally:
        db.close()
    assert load_result.latency["put"]["count"] == 200
    assert {"put", "get"} <= set(run_result.latency)
    get = run_result.latency["get"]
    assert get["count"] == run_result.reads
    assert 0.0 <= get["p50_ms"] <= get["p99_ms"] <= get["max_ms"]
    # Interval isolation: the second run's put count excludes the load's.
    assert run_result.latency["put"]["count"] == run_result.writes


def test_debug_string_includes_latency_and_tracing():
    db = obs_db()
    try:
        for i in range(50):
            key, value = kv(i)
            db.put(key, value)
        db.get(kv(0)[0])
        text = db.debug_string()
    finally:
        db.close()
    assert "latency (ms):" in text
    assert "tracing:" in text


# ------------------------------------------------------- determinism contract


def _run_fixed_workload(options):
    """A deterministic load+update+read+compact sequence; returns the
    simulated metrics and a digest of every file the store wrote."""
    fs = SimulatedFS()
    db = make_db(fs=fs, **options)
    try:
        load_db(db, 250, value_size=64)
        run_workload(db, UPDATE_HEAVY, 250, 250, value_size=64)
        db.compact_all()
        digest = hashlib.sha256()
        for name in fs.list_dir():
            size = fs.file_size(name)
            digest.update(name.encode())
            digest.update(fs._read(name, 0, size))
        io = db.io_stats
        return {
            "digest": digest.hexdigest(),
            "sim_time_s": io.sim_time_s,
            "bytes_written": io.bytes_written,
            "bytes_read": io.bytes_read,
            "write_amp": db.stats.write_amplification(),
            "flushes": db.stats.flush_count,
            "files": sorted(fs.list_dir()),
        }
    finally:
        db.close()


def test_disabled_observability_is_bit_identical():
    """The acceptance gate: tracing + histograms enabled must not change a
    single simulated metric or file byte versus the plain engine."""
    plain = _run_fixed_workload({})
    traced = _run_fixed_workload({"tracing": True, "latency_histograms": True})
    assert traced == plain


# ------------------------------------------------------------- stats locking


def test_concurrent_stall_and_scan_counts_sum_exactly():
    """Satellite audit: ``record_stall``/``count_scan_entries`` are the two
    DBStats paths invoked outside the engine lock; hammer them from many
    threads and require exact sums (a plain ``+=`` loses updates here)."""
    stats = DBStats()
    threads = 8
    per_thread = 5000

    def worker():
        for i in range(per_thread):
            stats.record_stall(stop=(i % 10 == 0), seconds=0.001)
            stats.count_scan_entries(3)

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert stats.stall_events == threads * per_thread
    assert stats.stall_stops == threads * (per_thread // 10)
    assert stats.scan_entries == 3 * threads * per_thread
    assert stats.stall_time_s == pytest.approx(threads * per_thread * 0.001)


def test_read_tallies_sum_exactly_wherever_they_are_read():
    """``count_gets``, ``count_scan_entries`` and ``count_vlog_resolves``
    add into per-thread tallies with no lock.  The field, ``numeric()``, a
    ShardedDB's aggregate and the Prometheus walk all read the exact sum,
    the tallies of threads that have exited included."""
    from repro.obs.prom import collect
    from repro.sharding import MemoryShardStore, ShardedDB

    db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2, boundaries=[kv(50)[0]])
    try:
        for i in range(100):
            db.put(*kv(i))
        threads, per_thread = 4, 300

        def reader(t: int) -> None:
            for j in range(per_thread):
                db.get(kv((t * 37 + j) % 125)[0])  # 100 and up are absent

        workers = [threading.Thread(target=reader, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        found = sum((t * 37 + j) % 125 < 100 for t in range(threads) for j in range(per_thread))
        shards = [shard.stats for _name, shard in db.shard_dbs()]
        assert sum(s.gets for s in shards) == threads * per_thread
        assert sum(s.gets_found for s in shards) == found
        assert all(s.numeric()["gets"] == s.gets for s in shards)
        totals = db.aggregate_stats()
        assert (totals["gets"], totals["gets_found"]) == (threads * per_thread, found)
        scraped = {"repro_gets": 0, "repro_gets_found": 0}
        for sample in collect(db):
            if sample.name in scraped:
                scraped[sample.name] += sample.value
        assert scraped == {"repro_gets": threads * per_thread, "repro_gets_found": found}

        stats = DBStats()
        stats.count_vlog_resolves(2)
        worker = threading.Thread(target=lambda: [stats.count_vlog_resolves(1) for _ in range(500)])
        worker.start()
        worker.join()
        assert stats.vlog_resolves == 502
        stats.vlog_resolves += 1  # an assignment moves the base, not a tally
        assert stats.vlog_resolves == 503
    finally:
        db.close()


def test_concurrent_pipeline_scan_entries_exact():
    """End-to-end: concurrent readers scanning while writers insert; the
    scan-entry tally equals the sum of per-call result lengths."""
    db = make_db(background_compaction=True)
    counted = []
    lock = threading.Lock()
    try:
        for i in range(200):
            key, value = kv(i)
            db.put(key, value)

        def scanner():
            local = 0
            for _ in range(20):
                local += len(db.scan(kv(0)[0], limit=25))
            with lock:
                counted.append(local)

        def writer(base: int):
            for i in range(100):
                key, value = kv(base + i)
                db.put(key, value)

        workers = [threading.Thread(target=scanner) for _ in range(4)]
        workers += [threading.Thread(target=writer, args=(1000 * (t + 1),)) for t in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert db.stats.scan_entries == sum(counted)
    finally:
        db.close()


# ------------------------------------------------------------------ exporter


def test_prometheus_exporter_shape():
    db = obs_db()
    try:
        for i in range(100):
            key, value = kv(i)
            db.put(key, value)
        db.get(kv(1)[0])
        body = render_prometheus(db)
    finally:
        db.close()
    assert body.endswith("\n")
    assert "# TYPE repro_user_bytes_written counter" in body
    assert "# TYPE repro_write_amplification gauge" in body
    assert 'repro_level_write_bytes{level="0"}' in body
    assert 'repro_io_category_bytes{category="wal",dir="write"}' in body
    assert "# TYPE repro_get_latency_seconds histogram" in body
    assert "repro_get_latency_seconds_count 1" in body
    assert 'repro_get_latency_seconds_bucket{le="+Inf"} 1' in body
    assert "repro_trace_events_recorded" in body
    # Cumulative bucket counts are monotone.
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in body.splitlines()
        if line.startswith("repro_put_latency_seconds_bucket")
    ]
    assert buckets == sorted(buckets)


def test_prometheus_exporter_without_obs_enabled(db):
    body = render_prometheus(db)
    assert "repro_user_bytes_written" in body
    assert "latency_seconds" not in body
    assert "trace_events" not in body


# ------------------------------------------------------------------- tooling


def _build_local_store(tmp_path) -> str:
    root = str(tmp_path / "store")
    db = make_db(fs=LocalFS(root))
    for i in range(300):
        key, value = kv(i)
        db.put(key, value)
    db.compact_all()
    db.close()
    return root


def test_metrics_report_replays_manifest(tmp_path):
    root = _build_local_store(tmp_path)
    fs = LocalFS(root)
    replay = replay_store(fs)
    assert replay.edits > 0
    assert replay.version.num_files() > 0
    report = format_store_report(fs)
    assert "Per-level storage" in report
    assert "space amplification" in report
    assert "L0" in report or "L1" in report


def test_metrics_cli_subcommand(tmp_path, capsys):
    root = _build_local_store(tmp_path)
    assert tools_main(["metrics", root]) == 0
    out = capsys.readouterr().out
    assert "Per-level storage" in out
    assert "CURRENT ->" in out


def test_metrics_cli_rejects_non_store(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert tools_main(["metrics", str(empty)]) == 2


def test_metrics_cli_cache_report(tmp_path, capsys):
    """``--bench-report`` renders a read-scaling report's per-shard cache
    counters (arm fields) and its metrics with their gates."""
    report = {
        "suite": "read_scaling",
        "meta": {"python": "3.11", "quick": False},
        "arms": {
            "readers_1t": {
                "reader_threads": 1,
                "bc_shards": 1, "bc_hits": 5, "bc_misses": 10,
                "tc_shards": 1, "tc_hits": 7, "tc_misses": 3,
                "tc_shard_hits": [7],
                "busiest_tc_shard": "100.0%",
            },
            "readers_4t": {
                "reader_threads": 4,
                "bc_shards": 16, "bc_hits": 50, "bc_misses": 100,
                "tc_shards": 16, "tc_hits": 64, "tc_misses": 16,
                "tc_shard_hits": [4] * 16,
                # 16 equal shards: the busiest one holds 1/16 of hits.
                "busiest_tc_shard": "6.2%",
            },
        },
        "metrics": {"speedup_2t": 1.6, "speedup_4t": 2.5},
        "gates": [
            {"metric": "speedup_4t", "better": "higher", "bound": 2.0, "value": 2.5, "ok": True},
        ],
    }
    path = tmp_path / "BENCH_read_scaling.json"
    path.write_text(json.dumps(report))
    assert tools_main(["metrics", "--bench-report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "busiest_tc_shard" in out
    assert "readers_4t" in out
    assert "6.2%" in out
    speedup_4t = next(line for line in out.splitlines() if line.startswith("speedup_4t"))
    assert speedup_4t.split() == ["speedup_4t", "2.50", "higher", "2.00", "ok"]


def test_metrics_cli_cache_report_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "not_a_report.json"
    bad.write_text(json.dumps({"foo": 1}))
    assert tools_main(["metrics", "--bench-report", str(bad)]) == 2
    assert tools_main(["metrics", "--bench-report", str(tmp_path / "missing.json")]) == 2
    # Neither a store nor a report is an argparse-level usage error.
    assert tools_main(["metrics"]) == 2


def test_timeline_cli_subcommand(tmp_path, capsys):
    db = obs_db()
    try:
        for i in range(200):
            key, value = kv(i)
            db.put(key, value)
        db.compact_all()
        trace_path = tmp_path / "trace.jsonl"
        assert db.tracer.export_jsonl(str(trace_path)) > 0
    finally:
        db.close()

    assert tools_main(["timeline", str(trace_path)]) == 0
    chart = capsys.readouterr().out
    assert "timeline:" in chart
    assert "flush" in chart

    assert tools_main(["timeline", str(trace_path), "--json"]) == 0
    spans = json.loads(capsys.readouterr().out)
    assert spans and {"lane", "name", "start", "end"} <= set(spans[0])
    assert all(not s["name"].startswith("fs.") for s in spans)

    assert tools_main(["timeline", str(trace_path), "--json", "--fs"]) == 0
    with_fs = json.loads(capsys.readouterr().out)
    assert any(s["name"].startswith("fs.") for s in with_fs)

    # Round trip through the loader used by the CLI.
    events = load_events(str(trace_path))
    assert len(events) == len(db.tracer.events()) or len(events) > 0


def test_timeline_cli_missing_file(tmp_path):
    assert tools_main(["timeline", str(tmp_path / "nope.jsonl")]) == 2


def test_legacy_cli_still_works(tmp_path, capsys):
    """The subcommand dispatch must not break the original invocations."""
    root = _build_local_store(tmp_path)
    assert tools_main([root, "--manifest"]) == 0
    assert "CURRENT ->" in capsys.readouterr().out
    assert tools_main([str(tmp_path / "missing-store")]) == 2
