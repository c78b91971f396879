"""The storage handles charge their own I/O accounting.

``WritableFile.append``, ``WritableFile.sync`` and ``RandomAccessFile.read``
are each one storage frame plus the backend's data operation: the device
cost and the ``IOStats`` additions are written out inside the handle, and a
``SimulatedFS`` sync checks existence under the lock it holds.  This drives
one seeded mix of creates, appends (empty ones included), syncs, reads,
``read_many``, deletes and renames through those handles on one
filesystem, and through the accounting calls they replaced, in their call
order, on a twin: the backend operation, then ``oracle.reference``'s
``record_write`` / ``record_read`` and ``FileSystem.charge_time`` (one
append's ``IOStats.record_append`` is ``record_write`` plus the time
charge), or ``IOStats.record_append`` / ``record_read`` themselves, and
``FileSystem.sync_file``'s base body for a sync.  Every
counter, both category maps, the simulated clock, the traced ``fs.*``
events, each operation's answer or error, the sync points and the bytes
left on the device must come out equal, floats with ``==``.
"""

from __future__ import annotations

import dataclasses
import random
import time
from functools import partial

import pytest

from oracle import reference
from repro.obs.trace import Tracer
from repro.storage.device_model import DeviceModel
from repro.storage.faults import FaultInjectionFS, FaultPolicy
from repro.storage.fs import FileSystem, LocalFS, SimulatedFS, WritableFile
from repro.storage.io_stats import IOStats

NAMES = ("000001.log", "000002.sst", "000003.sst", "MANIFEST-000004", "000005.vlog")
CATEGORIES = ("wal", "flush", "compaction", "manifest", "get", "scan")
#: A device whose appends and reads all cost something, so that every
#: float addition is one that can round.
COSTLY = dict(write_op_cost=3e-6, random_read_latency=70e-6, seq_read_bandwidth=333e6)


def make_mix(seed: int, steps: int = 300) -> list[tuple]:
    """A seeded operation list, valid against a model of the files except
    for the odd sync of a file that does not exist."""
    rng = random.Random(seed)
    sizes: dict[str, int] = {}
    categories: dict[str, str] = {}
    ops: list[tuple] = []
    for _ in range(steps):
        live = sorted(sizes)
        roll = rng.random()
        if not live or roll < 0.08:
            name = rng.choice(NAMES)
            sizes[name] = 0
            categories[name] = rng.choice(CATEGORIES)
            ops.append(("create", name, categories[name]))
            continue
        name = rng.choice(live)
        if roll < 0.45:
            size = rng.choice((0, 0, 1, 9, 127, 128, 1000, 4096, rng.randrange(20_000)))
            category = rng.choice((None, None, rng.choice(CATEGORIES)))
            ops.append(("append", name, categories[name], rng.randbytes(size), category))
            sizes[name] += size
        elif roll < 0.6:
            ops.append(("sync", name))
        elif roll < 0.8:
            offset = rng.randrange(sizes[name] + 1)
            size = rng.randrange(sizes[name] - offset + 1)
            ops.append(("read", name, offset, size, rng.choice(CATEGORIES), rng.random() < 0.5))
        elif roll < 0.88:
            spans = []
            for _ in range(rng.randrange(1, 5)):
                offset = rng.randrange(sizes[name] + 1)
                spans.append((offset, rng.randrange(sizes[name] - offset + 1)))
            ops.append(("read_many", name, spans, rng.choice(CATEGORIES), rng.choice((1, 4))))
        elif roll < 0.93:
            ops.append(("delete", name))
            del sizes[name], categories[name]
        elif roll < 0.97:
            new = rng.choice([n for n in NAMES if n != name])
            ops.append(("rename", name, new))
            sizes[new] = sizes.pop(name)
            categories[new] = categories.pop(name)
        else:
            ops.append(("sync", "missing.log"))
    return ops


def flattened(fs: FileSystem, op: tuple):
    """``op`` through the handles under test."""
    kind = op[0]
    if kind == "append":
        _, name, handle_category, data, category = op
        return WritableFile(fs, name, handle_category).append(data, category)
    if kind == "sync":
        return WritableFile(fs, op[1], "wal").sync()
    if kind == "read":
        _, name, offset, size, category, sequential = op
        return fs.open_random(name).read(offset, size, category=category, sequential=sequential)
    return unchanged(fs, op)


def before(fs: FileSystem, op: tuple, *, calls: str = "reference"):
    """``op`` through the accounting calls the handles replaced, in the
    order the handles made them: ``oracle.reference``'s counting arms
    (``calls="reference"``) or the ``IOStats`` methods (``"iostats"``)."""
    kind = op[0]
    tracer = fs.tracer
    if kind == "append":
        _, name, handle_category, data, category = op
        fs._append(name, data)
        category = category or handle_category
        cost = fs.device.sequential_write_cost(len(data))
        if calls == "reference":
            reference.record_write(fs.stats, len(data), category)
            fs.charge_time(cost, category)
        else:
            fs.stats.record_append(len(data), category, cost)
            if fs.realtime > 0.0 and cost > 0.0:
                time.sleep(cost * fs.realtime)
        if tracer.enabled:
            tracer.complete("fs.write", "fs", sim_dur=cost,
                            args={"file": name, "bytes": len(data), "category": category})
        return None
    if kind == "sync":
        # The base class's sync, which SimulatedFS no longer inherits.
        base = FileSystem.sync_file if isinstance(fs, SimulatedFS) else type(fs).sync_file
        return base(fs, op[1])
    if kind == "read":
        _, name, offset, size, category, sequential = op
        fs.open_random(name)
        data = fs._read(name, offset, size)
        record_read = reference.record_read if calls == "reference" else IOStats.record_read
        record_read(fs.stats, len(data), category, random=not sequential)
        if sequential:
            cost = fs.device.sequential_read_cost(len(data))
        else:
            cost = fs.device.random_read_cost(len(data))
        fs.charge_time(cost, category)
        if tracer.enabled:
            tracer.complete("fs.read", "fs", sim_dur=cost,
                            args={"file": name, "bytes": len(data), "category": category})
        return data
    return unchanged(fs, op)


def unchanged(fs: FileSystem, op: tuple):
    """The operations both sides run through the same code."""
    kind = op[0]
    if kind == "create":
        fs.create_file(op[1], op[2])
        return None
    if kind == "read_many":
        _, name, spans, category, concurrency = op
        return fs.open_random(name).read_many(spans, category=category, concurrency=concurrency)
    if kind == "delete":
        return fs.delete_file(op[1])
    if kind == "rename":
        return fs.rename(op[1], op[2])
    raise AssertionError(f"unknown op {kind!r}")


def drive(fs: FileSystem, ops: list[tuple], run) -> list:
    """Each op's answer, or its error's type and message."""
    fs.tracer = Tracer(sim_clock=lambda: fs.stats.sim_time_s)
    outcomes = []
    for op in ops:
        try:
            outcomes.append(run(fs, op))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def stored_bytes(fs: FileSystem) -> dict[str, bytes]:
    """Every file's bytes, read past the accounting (and past a crash)."""
    backend = fs.inner if isinstance(fs, FaultInjectionFS) else fs
    return {name: backend._read(name, 0, backend.file_size(name)) for name in backend.list_dir()}


def assert_same_accounting(a: IOStats, b: IOStats) -> None:
    for field in dataclasses.fields(IOStats):
        assert getattr(a, field.name) == getattr(b, field.name), field.name
    # ``==`` above on the maps; the floats once more, bit for bit.
    assert a.sim_time_s.hex() == b.sim_time_s.hex()
    assert {k: v.hex() for k, v in a.time_per_category.items()} == {
        k: v.hex() for k, v in b.time_per_category.items()
    }


def trace_of(fs: FileSystem) -> list[tuple]:
    return [(e.phase, e.name, e.category, e.sim_ts, e.sim_dur, e.args)
            for e in fs.tracer.events()]


@pytest.mark.parametrize("calls", ["reference", "iostats"])
@pytest.mark.parametrize("device", [{}, COSTLY], ids=["default", "costly"])
@pytest.mark.parametrize("kind", ["simulated", "fault", "fault_crash", "local"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flattened_handles_charge_what_the_accounting_calls_charged(
    kind, device, seed, calls, tmp_path
):
    def make(side: str) -> FileSystem:
        model = DeviceModel(**device)
        if kind == "simulated":
            return SimulatedFS(model)
        if kind == "local":
            return LocalFS(str(tmp_path / side), model)
        policy = FaultPolicy(seed=seed, crash_at_sync=5 if kind == "fault_crash" else None)
        return FaultInjectionFS(SimulatedFS(model), policy)

    ops = make_mix(seed)
    fast, slow = make("flattened"), make("before")
    assert drive(fast, ops, flattened) == drive(slow, ops, partial(before, calls=calls))
    assert_same_accounting(fast.stats, slow.stats)
    assert fast.stats.write_ops > 0 and fast.stats.read_ops > 0 and fast.stats.syncs > 0
    assert trace_of(fast) == trace_of(slow)
    assert stored_bytes(fast) == stored_bytes(slow)
    if isinstance(fast, FaultInjectionFS):
        assert fast.sync_points == slow.sync_points
        assert fast.crashed == slow.crashed == (kind == "fault_crash")


def test_realtime_sleeps_are_the_ones_the_accounting_calls_slept(monkeypatch):
    """With ``realtime > 0`` each append and read sleeps its charge times
    the factor, exactly where the replaced calls slept."""
    ops = make_mix(7)
    slept: dict[str, list[float]] = {}
    for side, run in (("flattened", flattened), ("before", before),
                      ("iostats", partial(before, calls="iostats"))):
        naps = slept[side] = []
        monkeypatch.setattr(time, "sleep", naps.append)
        fs = SimulatedFS(DeviceModel(**COSTLY), realtime=0.5)
        drive(fs, ops, run)
    assert slept["flattened"] == slept["before"] == slept["iostats"]
    assert len(slept["flattened"]) > 100


def test_a_device_with_a_negative_cost_is_refused():
    """No append or read can charge negative time: the device is checked
    once, when a filesystem takes it, for every cost it adds."""
    for name in ("random_read_latency", "write_op_cost", "file_open_cost",
                 "file_delete_cost", "dir_entry_cost", "cpu_cost_per_byte"):
        with pytest.raises(ValueError, match=name):
            SimulatedFS(DeviceModel(**{name: -1e-9}))
