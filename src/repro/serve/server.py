"""The asyncio serving front end.

One event loop multiplexes every client connection, and a request's engine
call runs **on that loop thread** unless the engine would have to wait
(DESIGN.md §12, §15).  Every data op is first tried with ``wait=False``.
On a non-blocking filesystem (``SimulatedFS``, whose modelled I/O never
sleeps) that is normally the whole call.  It raises
:class:`~repro.errors.WouldBlock`, with nothing changed, where it would
wait: a busy engine lock or router edit, a throttled write or one that
finds a memtable rollover due, and — up front, for every op — a filesystem
that really blocks (``LocalFS``, or ``SimulatedFS(realtime > 0)``), which
therefore serves exactly as it did before the inline attempt existed.
Only then is the same bound method called again, ``wait=True``, on a small
thread pool.  The pool exists for the calls that wait: in a pure-Python
engine a worker thread buys no overlap for CPU-bound work, only two GIL
hand-offs per request and a convoy behind whichever worker is mid-scan.

Group commit forms among the calls that hop: many connections' PUTs
against a blocking filesystem land on at most ``executor_threads`` threads,
queue behind whichever holds the engine lock, and share one WAL append
(DESIGN.md §7).  The converse is stated, not hidden: on a non-blocking
filesystem inline PUTs are groups of one by construction, so
many-connection served writes no longer share a modelled WAL append.

Requests that are not bounded — a scan without a ``limit``, or more than
:data:`INLINE_MAX_ITEMS` keys / batch ops / scan rows — always hop, so no
single request holds the loop for long; ``serve_counters()`` reports how
many requests went each way (``inline`` / ``hopped``).

The server is overload-safe by construction (DESIGN.md §15):

* **Deadlines** — a request may carry a relative budget in its frame
  (``protocol.FLAG_DEADLINE``); the budget is checked before the engine
  call, inline or hopped (expired work is refused with
  ``STATUS_DEADLINE_EXCEEDED`` instead of run late), and enforced while a
  hopped call runs (``asyncio.wait_for``), so a stalled engine call
  cannot hold a client past its budget.  An inline call cannot stall on
  a lock, a queue or a device, nor run a lane-less engine's flush or
  compaction itself — that is what ``WouldBlock`` is for.
* **Admission control** — in-flight requests are bounded per opcode
  class (write / read; admin ops are never shed).  A write burst past the
  bound, or any shard's L0 slowdown/stop stall state crossing its
  trigger, sheds writes with ``STATUS_RETRY_LATER`` and a server-computed
  backoff hint — the queue stays bounded instead of absorbing the burst
  into unbounded executor backlog while every shard is stalled.
* **Structured statuses** — the error-severity engine maps onto the
  wire: transient faults answer ``STATUS_RETRY_LATER`` (retryable),
  read-only degrade answers ``STATUS_UNAVAILABLE`` for writes while reads
  keep serving, and everything else is a permanent ``STATUS_ERROR``.
* **Graceful drain** — ``aclose()`` stops accepting, parts idle
  connections, lets in-flight requests finish under ``drain_timeout``,
  flushes/quiesces the shards, then closes; in-flight work is cancelled
  only when the timeout expires (counted in ``cancelled_inflight``).
* **Health** — ``OP_HEALTH`` returns the engine's health report plus the
  server's counters; ``OP_READY`` gates readiness on ``DB.health()``
  (writable and not draining).

The server fronts either a :class:`~repro.sharding.sharded_db.ShardedDB`
or a plain :class:`~repro.core.db.DB` — anything with their
put/get/delete/multi_get/scan/write surface *including the* ``wait=``
*keyword*: a stand-in that cannot promise not to wait must raise
``WouldBlock`` for ``wait=False``.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

from ..core.write_batch import WriteBatch
from ..errors import (
    SEVERITY_TRANSIENT,
    ReadOnlyError,
    ReproError,
    WouldBlock,
    WriteStallError,
    classify_severity,
)
from . import protocol as p

#: Opcode classes for admission control.  Admin ops are never shed: a
#: health probe must answer precisely when the data path is overloaded.
CLASS_WRITE = "write"
CLASS_READ = "read"
CLASS_ADMIN = "admin"

_OP_CLASS = {
    p.OP_PUT: CLASS_WRITE,
    p.OP_DELETE: CLASS_WRITE,
    p.OP_BATCH: CLASS_WRITE,
    p.OP_GET: CLASS_READ,
    p.OP_MULTI_GET: CLASS_READ,
    p.OP_SCAN: CLASS_READ,
    p.OP_STATS: CLASS_ADMIN,
    p.OP_PING: CLASS_ADMIN,
    p.OP_HEALTH: CLASS_ADMIN,
    p.OP_READY: CLASS_ADMIN,
}

_OP_NAME = {
    p.OP_PUT: "put",
    p.OP_GET: "get",
    p.OP_DELETE: "delete",
    p.OP_MULTI_GET: "multi_get",
    p.OP_SCAN: "scan",
    p.OP_BATCH: "batch",
    p.OP_STATS: "stats",
    p.OP_PING: "ping",
    p.OP_HEALTH: "health",
    p.OP_READY: "ready",
}

#: Largest request (keys of a multi_get, ops of a batch, ``limit`` of a
#: scan) tried on the loop thread; anything bigger, and a scan with no
#: limit, goes straight to the pool.
INLINE_MAX_ITEMS = 128

#: Stall pressure levels sampled from the shards' L0 state.
_PRESSURE_OK = 0
_PRESSURE_SLOWDOWN = 1
_PRESSURE_STOP = 2


class _Conn:
    """Per-connection bookkeeping the drain protocol needs."""

    __slots__ = ("writer", "inflight")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        #: True while a request from this connection is being served —
        #: the window in which drain must not cut the transport.
        self.inflight = False


class ShardServer:
    """Serve a (Sharded)DB over the length-prefixed binary protocol."""

    def __init__(
        self,
        db,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        executor_threads: int = 8,
        admission_control: bool = True,
        max_inflight_writes: int | None = None,
        max_inflight_reads: int | None = None,
        drain_timeout: float = 5.0,
        default_deadline_ms: int | None = None,
        retry_after_base_ms: int = 25,
        stall_check_interval_s: float = 0.05,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.admission_control = admission_control
        #: In-flight bounds per class.  The write bound is deliberately a
        #: small multiple of the pool: anything deeper is pure queueing
        #: delay — the work cannot run sooner, only later.
        self.max_inflight_writes = (
            max_inflight_writes if max_inflight_writes is not None
            else 4 * executor_threads
        )
        self.max_inflight_reads = (
            max_inflight_reads if max_inflight_reads is not None
            else 16 * executor_threads
        )
        self.drain_timeout = drain_timeout
        self.default_deadline_ms = default_deadline_ms
        self.retry_after_base_ms = retry_after_base_ms
        self.stall_check_interval_s = stall_check_interval_s
        self._pool = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-serve"
        )
        self._executor_threads = executor_threads
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Conn] = set()
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        #: (level, sampled_at) cache for the stall-pressure probe.
        self._pressure: tuple[int, float] = (_PRESSURE_OK, -1.0)
        #: Served-request counters (per opcode), for the stats endpoint.
        #: Only well-formed, known opcodes are counted — malformed frames
        #: land in ``protocol_errors`` instead.
        self.requests: dict[str, int] = {}
        self.inflight: dict[str, int] = {
            CLASS_WRITE: 0, CLASS_READ: 0, CLASS_ADMIN: 0,
        }
        #: Data-op requests answered on the loop thread / sent to the pool
        #: (every ``WouldBlock`` fall-through counts as hopped).
        self.inline = 0
        self.hopped = 0
        self.shed = 0
        self.deadline_exceeded = 0
        self.protocol_errors = 0
        self.engine_errors = 0
        #: In-flight requests cut off by a drain-timeout expiry.  A clean
        #: shutdown keeps this at zero — the invariant the drain test and
        #: the chaos harness assert.
        self.cancelled_inflight = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight_total(self) -> int:
        return sum(self.inflight.values())

    async def aclose(self, *, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, quiesce, close.

        1. Stop accepting new connections and mark the server draining
           (new requests on live connections are shed with RETRY_LATER).
        2. Part idle connections; let in-flight requests finish, up to
           ``drain_timeout`` — only then cancel stragglers (counted in
           ``cancelled_inflight``).
        3. Flush and quiesce the shards so the WAL tail and memtables are
           durable before the process goes away.
        4. Shut the executor pool down.

        ``drain=False`` skips the wait (the old cancel-everything
        behaviour) for callers tearing down after a failed test.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            await self._drain_connections()
        # Cut whatever is left (drain timeout expired, or drain=False).
        for task in list(self._tasks):
            if not task.done():
                task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        self._conns.clear()
        if drain:
            await self._quiesce_db()
        self._pool.shutdown(wait=True)

    async def _drain_connections(self) -> None:
        """Part idle connections, then wait for in-flight work to finish."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        # Idle connections are parted immediately: their handler wakes from
        # readexactly with an EOF-shaped error and exits cleanly.  Handlers
        # mid-request notice ``_draining`` after their response instead.
        for conn in list(self._conns):
            if not conn.inflight:
                conn.writer.close()
        while self._tasks:
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.cancelled_inflight += sum(
                    1 for conn in self._conns if conn.inflight
                )
                break
            done, pending = await asyncio.wait(
                list(self._tasks), timeout=remaining,
                return_when=asyncio.ALL_COMPLETED,
            )
            if not pending:
                break
            # A request that finished may have left its connection idle;
            # part those too so the wait converges.
            for conn in list(self._conns):
                if not conn.inflight:
                    conn.writer.close()

    async def _quiesce_db(self) -> None:
        """Flush + settle background work; degraded shards are left alone
        (a read-only engine refuses flushes — that is not a drain failure)."""
        loop = asyncio.get_running_loop()

        def quiesce() -> None:
            """Flush and settle background work; a degraded engine may
            refuse — drain proceeds regardless (close() still recovers)."""
            try:
                if hasattr(self.db, "flush"):
                    self.db.flush()
            except ReproError:
                pass
            try:
                if hasattr(self.db, "wait_for_background"):
                    self.db.wait_for_background(timeout=self.drain_timeout)
            except ReproError:
                pass

        try:
            await loop.run_in_executor(self._pool, quiesce)
        except RuntimeError:
            pass  # pool already shut down by a concurrent closer

    # -- request handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        conn = _Conn(writer)
        self._conns.add(conn)
        try:
            while True:
                header = await reader.readexactly(4)
                length = int.from_bytes(header, "big")
                if length == 0 or length > p.MAX_FRAME:
                    raise p.ProtocolError(f"bad frame length {length}")
                body = await reader.readexactly(length)
                conn.inflight = True
                try:
                    response = await self._dispatch(body)
                finally:
                    conn.inflight = False
                writer.write(response)
                await writer.drain()
                if self._draining:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            pass  # client hung up — the normal end of a connection
        except p.ProtocolError as exc:
            # Framing is untrusted past a bad frame, so the connection must
            # end — but an abrupt close races the client's own drain() of
            # pipelined requests already in our socket buffer: a TCP reset
            # tears away the error frame we just queued.  Send the error,
            # half-close our side, and consume the rest of the burst until
            # the client sees the error and hangs up.
            self.protocol_errors += 1
            conn.inflight = False
            try:
                writer.write(
                    p.encode_frame(p.STATUS_ERROR, str(exc).encode("utf-8"))
                )
                await writer.drain()
                if writer.can_write_eof():
                    writer.write_eof()
                await asyncio.wait_for(self._drain_reader(reader), timeout=5.0)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
        finally:
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Server teardown cancels handlers mid-wait; the transport
                # is going away either way.
                pass

    @staticmethod
    async def _drain_reader(reader: asyncio.StreamReader) -> None:
        """Consume (and discard) the remainder of a pipelined burst."""
        while await reader.read(64 * 1024):
            pass

    # -- admission ---------------------------------------------------------

    def _stall_pressure(self, now: float) -> int:
        """Worst L0 stall state across the shards, sampled at most once per
        ``stall_check_interval_s`` — the probe reads each shard's version
        (cheap, but not free) and overload is exactly when it would be
        called thousands of times a second."""
        level, sampled_at = self._pressure
        if now - sampled_at < self.stall_check_interval_s:
            return level
        level = _PRESSURE_OK
        dbs = (
            [db for _, db in self.db.shard_dbs()]
            if hasattr(self.db, "shard_dbs")
            else [self.db]
        )
        for db in dbs:
            try:
                l0 = len(db.version.files_at(0))
                opts = db.options
            except (ReproError, AttributeError):
                continue  # closed shard, or a test double without a version
            if l0 >= opts.level0_stop_writes_trigger:
                level = _PRESSURE_STOP
                break
            if l0 >= opts.level0_slowdown_writes_trigger:
                level = _PRESSURE_SLOWDOWN
        self._pressure = (level, now)
        return level

    def _admit(self, op_class: str, now: float) -> bytes | None:
        """Admission check; returns a RETRY_LATER response when shedding."""
        if op_class == CLASS_ADMIN:
            return None
        if self._draining:
            return self._shed_response(0, "draining")
        if not self.admission_control:
            return None
        if op_class == CLASS_WRITE:
            inflight = self.inflight[CLASS_WRITE]
            pressure = self._stall_pressure(now)
            if pressure == _PRESSURE_STOP:
                return self._shed_response(inflight, "write stall (stop)")
            if (
                pressure == _PRESSURE_SLOWDOWN
                and inflight >= self._executor_threads
            ):
                return self._shed_response(inflight, "write stall (slowdown)")
            if inflight >= self.max_inflight_writes:
                return self._shed_response(inflight, "write queue full")
        elif self.inflight[CLASS_READ] >= self.max_inflight_reads:
            return self._shed_response(
                self.inflight[CLASS_READ], "read queue full"
            )
        return None

    def _shed_response(self, inflight: int, reason: str) -> bytes:
        """One RETRY_LATER frame with a queue-depth-scaled backoff hint."""
        self.shed += 1
        stalled = reason.startswith("write stall")
        hint_ms = self.retry_after_base_ms * (
            1 + inflight // max(1, self._executor_threads) + (3 if stalled else 0)
        )
        return p.encode_frame(
            p.STATUS_RETRY_LATER, p.encode_retry_hint(hint_ms, reason)
        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, body: bytes) -> bytes:
        opcode, payload, deadline_ms = p.decode_request(body)
        op_class = _OP_CLASS.get(opcode)
        if op_class is None:
            # Unknown opcodes must not pollute the served-request counters:
            # they were never admitted, let alone served.
            raise p.ProtocolError(f"unknown opcode {opcode:#x}")
        loop = asyncio.get_running_loop()
        now = loop.time()
        name = _OP_NAME[opcode]
        self.requests[name] = self.requests.get(name, 0) + 1

        shed = self._admit(op_class, now)
        if shed is not None:
            return shed

        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        deadline = now + deadline_ms / 1000.0 if deadline_ms is not None else None

        self.inflight[op_class] += 1
        try:
            return await self._execute(opcode, payload, deadline, loop)
        finally:
            self.inflight[op_class] -= 1

    async def _run(
        self, loop, deadline: float | None, fn, *args, items: int | None = None
    ):
        """Run an engine call, budget-checked: here on the loop thread when
        it will not wait, else on the pool.

        ``items`` is a data op's size (1 for a point op, the number of
        keys or batch ops, a scan's ``limit``); admin calls leave it None
        and always hop.  A data op of at most ``INLINE_MAX_ITEMS`` is first
        called with ``wait=False`` right here; ``WouldBlock`` — the engine
        would wait, and has changed nothing — falls through to the hop,
        which calls the same bound method with ``wait=True``.

        The budget is enforced twice: before the call (late work is
        refused while it is still cheap — neither the engine nor the
        executor sees it) and around a hopped call (``wait_for`` abandons
        a call that outlives the budget; a not-yet-started work item is
        truly cancelled, a running one finishes on its thread but nobody
        waits for it).
        """
        if deadline is not None and deadline - loop.time() <= 0:
            self.deadline_exceeded += 1
            raise _DeadlineExceeded()
        if items is not None:
            if items <= INLINE_MAX_ITEMS:
                try:
                    result = fn(*args, wait=False)
                except WouldBlock:
                    pass
                else:
                    self.inline += 1
                    return result
            self.hopped += 1
        call = loop.run_in_executor(self._pool, fn, *args)
        if deadline is None:
            return await call
        try:
            return await asyncio.wait_for(call, deadline - loop.time())
        except asyncio.TimeoutError:
            self.deadline_exceeded += 1
            raise _DeadlineExceeded() from None

    async def _execute(
        self, opcode: int, payload: bytes, deadline: float | None, loop
    ) -> bytes:
        try:
            if opcode == p.OP_PING:
                return p.encode_frame(p.STATUS_OK, b"pong")
            if opcode == p.OP_HEALTH:
                doc = await self._run(loop, deadline, self._health_payload)
                return p.encode_frame(p.STATUS_OK, doc)
            if opcode == p.OP_READY:
                return await self._run(loop, deadline, self._ready_response)
            if opcode == p.OP_PUT:
                key, value = p.decode_put(payload)
                await self._run(loop, deadline, self.db.put, key, value, items=1)
                return p.encode_frame(p.STATUS_OK)
            if opcode == p.OP_GET:
                value = await self._run(loop, deadline, self.db.get, payload, items=1)
                if value is None:
                    return p.encode_frame(p.STATUS_NOT_FOUND)
                return self._encode_ok(value)
            if opcode == p.OP_DELETE:
                await self._run(loop, deadline, self.db.delete, payload, items=1)
                return p.encode_frame(p.STATUS_OK)
            if opcode == p.OP_MULTI_GET:
                keys = p.decode_multi_get(payload)
                found = await self._run(
                    loop, deadline, self.db.multi_get, keys, items=len(keys)
                )
                return self._encode_ok(
                    p.encode_values([found.get(key) for key in keys])
                )
            if opcode == p.OP_SCAN:
                start, end, limit = p.decode_scan(payload)
                entries = await self._run(
                    loop, deadline, self.db.scan, start, end, limit,
                    items=INLINE_MAX_ITEMS + 1 if limit is None else limit,
                )
                return self._encode_ok(p.encode_entries(entries))
            if opcode == p.OP_BATCH:
                ops = p.decode_batch(payload)
                batch = WriteBatch()
                for tag, key, value in ops:
                    if tag == p.BATCH_PUT:
                        batch.put(key, value)
                    else:
                        batch.delete(key)
                await self._run(loop, deadline, self.db.write, batch, items=len(ops))
                return p.encode_frame(p.STATUS_OK)
            if opcode == p.OP_STATS:
                stats = await self._run(loop, deadline, self._stats_payload)
                return p.encode_frame(p.STATUS_OK, stats)
            raise p.ProtocolError(f"unknown opcode {opcode:#x}")
        except _DeadlineExceeded:
            return p.encode_frame(
                p.STATUS_DEADLINE_EXCEEDED, b"deadline exceeded"
            )
        except p.ProtocolError:
            raise
        except Exception as exc:  # engine-level failure → structured status
            return self._engine_error_response(exc)

    def _encode_ok(self, payload: bytes) -> bytes:
        """Frame an OK payload, degrading an oversized response (a huge
        scan / multi_get result past MAX_FRAME) to a structured error
        instead of an unframeable reply that would kill the connection."""
        try:
            return p.encode_frame(p.STATUS_OK, payload)
        except p.ProtocolError:
            self.engine_errors += 1
            return p.encode_frame(
                p.STATUS_ERROR,
                f"response too large ({len(payload)} bytes > "
                f"{p.MAX_FRAME} frame cap); narrow the range or lower the "
                f"limit".encode("utf-8"),
            )

    def _engine_error_response(self, exc: Exception) -> bytes:
        """Map the severity engine onto the wire (DESIGN.md §10 → §15):
        degraded mode is UNAVAILABLE (reads still serve), transient faults
        and write stalls are RETRY_LATER (retryable), the rest is a
        permanent ERROR."""
        self.engine_errors += 1
        message = str(exc).encode("utf-8")
        if isinstance(exc, ReadOnlyError):
            return p.encode_frame(p.STATUS_UNAVAILABLE, message)
        if isinstance(exc, WriteStallError):
            return p.encode_frame(
                p.STATUS_RETRY_LATER,
                p.encode_retry_hint(4 * self.retry_after_base_ms, str(exc)),
            )
        if classify_severity(exc) == SEVERITY_TRANSIENT:
            return p.encode_frame(
                p.STATUS_RETRY_LATER,
                p.encode_retry_hint(2 * self.retry_after_base_ms, str(exc)),
            )
        return p.encode_frame(p.STATUS_ERROR, message)

    # -- admin payloads ------------------------------------------------------

    def serve_counters(self) -> dict:
        """The server-side counter snapshot (stats/health payloads and the
        Prometheus exporter read this)."""
        return {
            "requests": dict(self.requests),
            "inflight": dict(self.inflight),
            "inline": self.inline,
            "hopped": self.hopped,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "protocol_errors": self.protocol_errors,
            "engine_errors": self.engine_errors,
            "cancelled_inflight": self.cancelled_inflight,
            "connections": len(self._conns),
            "draining": self._draining,
        }

    def _stats_payload(self) -> bytes:
        doc: dict = {"requests": dict(self.requests), "serve": self.serve_counters()}
        if hasattr(self.db, "aggregate_stats"):
            doc["engine"] = self.db.aggregate_stats()
            doc["shards"] = self.db.shard_names()
        else:
            doc["engine"] = self.db.stats.numeric()
        return json.dumps(doc).encode("utf-8")

    def _health_payload(self) -> bytes:
        doc = {"serve": self.serve_counters()}
        if hasattr(self.db, "health"):
            doc["engine"] = self.db.health()
        return json.dumps(doc).encode("utf-8")

    def _ready_response(self) -> bytes:
        """Readiness: accepting requests AND the engine is writable.

        A degraded engine still serves reads, but a load balancer routing
        on readiness wants the whole surface — degrade reports not-ready
        with the reason so the operator can see why."""
        if self._draining:
            return p.encode_frame(p.STATUS_UNAVAILABLE, b"draining")
        if hasattr(self.db, "health"):
            health = self.db.health()
            if not health.get("writable", True):
                reason = json.dumps({
                    "writable": False,
                    "state": health.get("state"),
                    "error": health.get("error"),
                }).encode("utf-8")
                return p.encode_frame(p.STATUS_UNAVAILABLE, reason)
        return p.encode_frame(p.STATUS_OK, b"ready")


class _DeadlineExceeded(Exception):
    """Internal: a request's budget expired (never crosses the wire)."""
