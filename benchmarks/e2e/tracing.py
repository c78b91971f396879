"""Benchmark-side tracing: spans around each layer's public entry points.

Nothing under ``src/`` is edited.  :data:`POINTS` names the entry points
(``module:attr`` — patched on the class, or on the importing module's
name when the caller did ``from x import f``) and the layer each belongs
to.  :class:`Recorder` swaps them for wrappers that record one span per
call — ``(id, parent id, op id, point, start ns, end ns, value)`` — and
puts the originals back in ``finally``.  Spans stay in memory until the
run ends.  A span's *self time* is its duration minus the part covered
by its child spans.

The current span lives in a ``ContextVar``: per thread for plain calls,
per task under asyncio, so two connections interleaving on one event loop
keep separate stacks.  A request that crosses to an executor thread loses
its parent; a ``ShardedDB`` call with no parent *joins* the op of the
in-flight ``ServeClient`` call with the same method and key.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

FIELDS = ("id", "parent", "op", "point", "start_ns", "end_ns", "value")


def _len_result(args, result):
    return len(result)


def _truthy(args, result):
    return 1 if result else 0


def _not_none(args, result):
    return 0 if result is None else 1


def _found(args, result):
    return 1 if result[0] else 0


def _found_touched(args, result):
    return (1 if result[0] else 0) | (2 if result[2] else 0)


def _group_size(args, result):
    return len(args[1])


@dataclass(frozen=True)
class Point:
    target: str
    layer: str
    #: ``call`` | ``async`` | ``iter`` (span per ``next()`` of the result).
    kind: str = "call"
    #: ``op``: a parentless call starts a request; ``join``: a parentless
    #: call adopts the matching in-flight request (see module docstring).
    role: str = ""
    #: Small integer kept in the span: an outcome or a size.
    value: Callable | None = None

    @property
    def name(self) -> str:
        module, attr = self.target.split(":")
        return attr if "." in attr else f"{module.rsplit('.', 1)[1]}.{attr}"


def _protocol(*names: str) -> list[Point]:
    return [Point(f"repro.serve.protocol:{n}", "serve.protocol") for n in names]


POINTS: tuple[Point, ...] = (
    *(Point(f"repro.serve.client:ServeClient.{m}", "serve.client", "async", "op")
      for m in ("get", "put", "multi_get", "scan")),
    Point("repro.serve.protocol:encode_frame", "serve.protocol", value=_len_result),
    *_protocol(
        "encode_put", "encode_get", "encode_multi_get", "encode_scan",
        "encode_values", "encode_entries", "decode_body", "decode_request",
        "decode_put", "decode_multi_get", "decode_scan", "decode_values",
        "decode_entries",
    ),
    *(Point(f"repro.sharding.sharded_db:ShardedDB.{m}", "sharding", role="join")
      for m in ("get", "put", "multi_get", "scan")),
    *(Point(f"repro.core.db:DB.{m}", "core.db", role="op")
      for m in ("get", "put", "multi_get", "scan")),
    Point("repro.core.db:flush_memtable", "core.db"),
    Point("repro.core.db:DB.iterator", "core.iterator"),
    Point("repro.core.iterator:DBIterator.__next__", "core.iterator"),
    Point("repro.core.iterator:merge_visible", "core.merge", "iter"),
    Point("repro.core.version:Version.file_for_key", "core.version"),
    Point("repro.core.version:Version.overlapping_files", "core.version"),
    Point("repro.core.version:Version.apply", "core.version"),
    # The lock-free twin of Version.file_for_key (concurrent_pipeline mode).
    Point("repro.core.superversion:SuperVersion.file_for_key", "core.version"),
    Point("repro.core.manifest:ManifestWriter.log_edit", "core.manifest"),
    Point("repro.memtable.wal:WalWriter.add_record", "memtable", value=lambda a, r: 1),
    Point("repro.memtable.wal:WalWriter.add_records", "memtable", value=_group_size),
    Point("repro.memtable.memtable:MemTable.add", "memtable"),
    Point("repro.memtable.memtable:MemTable.get", "memtable", value=_found),
    Point("repro.cache.table_cache:TableCache.get", "cache"),
    Point("repro.cache.block_cache:BlockCache.get", "cache", value=_not_none),
    Point("repro.cache.block_cache:BlockCache.insert", "cache"),
    Point("repro.sstable.table_reader:TableReader.lookup", "sstable", value=_found_touched),
    Point("repro.sstable.table_reader:TableReader.read_block", "sstable"),
    Point("repro.sstable.table_reader:TableReader.reload", "sstable"),
    Point("repro.sstable.table_reader:parse_block_raw", "sstable"),
    Point("repro.sstable.table_builder:TableBuilder.add", "sstable"),
    Point("repro.sstable.table_builder:TableBuilder.finish", "sstable"),
    Point("repro.sstable.table_appender:AppendSession.add", "sstable"),
    Point("repro.sstable.table_appender:AppendSession.finish", "sstable"),
    Point("repro.sstable.filter_block:TableFilter.may_contain", "bloom", value=_truthy),
    Point("repro.core.db:run_table_compaction", "compaction"),
    Point("repro.core.db:run_block_compaction", "compaction"),
    Point("repro.core.db:run_selective_compaction", "compaction"),
    Point("repro.core.db:run_trivial_move", "compaction"),
    Point("repro.compaction.picker:CompactionPicker.pick", "compaction"),
    Point("repro.storage.fs:WritableFile.append", "storage"),
    Point("repro.storage.fs:WritableFile.sync", "storage"),
    Point("repro.storage.fs:RandomAccessFile.read", "storage"),
    Point("repro.storage.fs:RandomAccessFile.read_many", "storage"),
)


def _resolve(target: str):
    module, path = target.split(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _request_key(args):
    """What a ServeClient call and the ShardedDB call it causes share:
    the key (the first one of a multi_get)."""
    first = args[1] if len(args) > 1 else None
    if isinstance(first, (list, tuple)):
        return first[0] if first else None
    return first


class _SpanIter:
    """Iterator whose every ``next()`` is one span."""

    __slots__ = ("_it", "_step")

    def __init__(self, it, step):
        self._it = iter(it)
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._it)


class Recorder:
    """Installs the wrappers, collects the spans, restores the originals."""

    def __init__(self, points: tuple[Point, ...] = POINTS):
        self.points = points
        self.spans: list[tuple] = []
        #: (owner, attr, original) of every entry point swapped so far.
        self._swapped: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("e2e_span", default=(0, 0))
        #: (method, key) -> op id of the ServeClient call in flight.
        self._inflight: dict[tuple, int] = {}

    def __enter__(self) -> "Recorder":
        try:
            for index, point in enumerate(self.points):
                owner, attr = _resolve(point.target)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(index, point, attr, original))
                self._swapped.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for owner, attr, original in reversed(self._swapped):
            setattr(owner, attr, original)

    def still_patched(self) -> list[str]:
        """Entry points that are not the original object again (self-test)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._swapped
            if vars(owner)[attr] is not original
        ]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, index: int, point: Point, attr: str, fn):
        if point.kind == "async":
            wrapper = self._wrap_async(index, attr, fn)
        elif point.kind == "iter":
            step = self._wrap_call(index, point, attr, next)

            def wrapper(*args, **kwargs):
                return _SpanIter(fn(*args, **kwargs), step)
        else:
            wrapper = self._wrap_call(index, point, attr, fn)
        return wrapper

    def _wrap_call(self, index: int, point: Point, attr: str, fn):
        record = self.spans.append
        current, ids, clock = self._current, self._ids, time.perf_counter_ns
        inflight, role, value = self._inflight, point.role, point.value

        def traced(*args, **kwargs):
            parent, op = current.get()
            sid = next(ids)
            if not parent and role:
                op = sid if role == "op" else inflight.get((attr, _request_key(args)), 0)
            token = current.set((sid, op))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                current.reset(token)
                record((sid, parent, op, index, t0, t1, -1))
                raise
            t1 = clock()
            current.reset(token)
            record((sid, parent, op, index, t0, t1, value(args, result) if value else 0))
            return result

        return traced

    def _wrap_async(self, index: int, attr: str, fn):
        record = self.spans.append
        current, ids, clock = self._current, self._ids, time.perf_counter_ns
        inflight = self._inflight

        async def traced(*args, **kwargs):
            sid = next(ids)
            request = (attr, _request_key(args))
            inflight[request] = sid
            token = current.set((sid, sid))
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = clock()
                current.reset(token)
                inflight.pop(request, None)
                record((sid, 0, sid, index, t0, t1, 0))

        return traced

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        header = dict(header, fields=FIELDS,
                      points=[[p.name, p.layer] for p in self.points])
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write("[%d,%d,%d,%d,%d,%d,%d]\n" % span)


# ------------------------------------------------------------------ analysis


@dataclass
class PointTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    #: Sum of the spans' values, and how many were positive.
    value_sum: int = 0
    value_hits: int = 0


class Summary:
    """Per-point and per-layer totals of one traced pass."""

    def __init__(self, recorder: Recorder):
        points = recorder.points
        spans = recorder.spans
        self.span_count = len(spans)
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _op, _index, t0, t1, _value in spans:
            if parent:
                child_ns[parent] += t1 - t0
        self.points: dict[str, PointTotals] = {p.name: PointTotals() for p in points}
        totals = [self.points[p.name] for p in points]
        #: op id -> name of the call that started the request.
        op_root: dict[int, str] = {}
        for sid, parent, op, index, *_rest in spans:
            if sid == op:
                op_root[sid] = points[index].name.rsplit(".", 1)[1]
        #: layer -> self ns, overall and per kind of request.
        self.layer_self: dict[str, int] = defaultdict(int)
        self.layer_self_by_op: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        #: Block fetches (cache hits included) made on behalf of gets.
        self.get_block_reads = 0
        lookup_value: dict[int, int] = {}
        maybe_parents: list[int] = []
        for sid, parent, op, index, t0, t1, value in spans:
            point = points[index]
            own = t1 - t0 - child_ns.get(sid, 0)
            total = totals[index]
            total.calls += 1
            total.total_ns += t1 - t0
            total.self_ns += own
            if value > 0:
                total.value_sum += value
                total.value_hits += 1
            self.layer_self[point.layer] += own
            root = op_root.get(op, "background")
            self.layer_self_by_op[root][point.layer] += own
            if point.name == "TableReader.read_block" and root == "get":
                self.get_block_reads += 1
            elif point.name == "TableReader.lookup":
                lookup_value[sid] = value
            elif point.name == "TableFilter.may_contain" and value == 1:
                maybe_parents.append(parent)
        # A served request runs its server half with no parent span (other
        # task, other thread) while the client's span waits for it.  Taking
        # that half out of the client's self time leaves the hop — wire,
        # event loop, admission, executor — which belongs to serve.server.
        if "serve.client" in self.layer_self:
            adopted = sum(
                t1 - t0
                for _sid, parent, _op, index, t0, t1, _value in spans
                if not parent and points[index].layer in ("serve.protocol", "sharding")
            )
            self.layer_self["serve.server"] = self.layer_self.pop("serve.client") - adopted
        #: Filter said "maybe", the table did not hold the key.
        self.bloom_false_positives = sum(
            1 for sid in maybe_parents if not lookup_value.get(sid, 1) & 1
        )
        self.ops = {name: 0 for name in ("get", "put", "scan", "multi_get")}
        for name in op_root.values():
            self.ops[name] += 1

    def point(self, name: str) -> PointTotals:
        return self.points[name]

    def named(self, prefix: str) -> list[str]:
        """Names of the traced points starting with ``prefix``."""
        return [name for name in self.points if name.startswith(prefix)]

    def sum(self, *names: str, what: str = "total_ns") -> int:
        return sum(getattr(self.points[n], what) for n in names)
