"""The asyncio serving front end.

One event loop multiplexes every client connection, and a request's engine
call runs **on that loop thread** unless the engine would have to wait
(DESIGN.md §12, §15).  Each connection is an :class:`asyncio.Protocol`:
its read callback cuts complete frames out of the bytes received and
answers each one, there and then, with a plain method call — decode,
admission, deadline, the engine call with ``wait=False``, encode,
``transport.write``.  On a non-blocking filesystem (``SimulatedFS``,
whose modelled I/O never sleeps) that is normally the whole request.  The
engine raises :class:`~repro.errors.WouldBlock`, with nothing changed,
where it would wait: a busy engine lock or router edit, a throttled write
or one that finds a memtable rollover due, and — up front, for every op —
a filesystem that really blocks (``LocalFS``, or
``SimulatedFS(realtime > 0)``), which therefore serves exactly as it did
before the inline attempt existed.  Only then does the request *hop*: a
task calls the same bound method again, ``wait=True``, on a small thread
pool.  The pool exists for the calls that wait: in a pure-Python engine a
worker thread buys no overlap for CPU-bound work, only two GIL hand-offs
per request and a convoy behind whichever worker is mid-scan.

Responses leave a connection in request order: while a hop is pending,
the frames behind it wait unparsed in the connection's buffer, and the
hop's completion writes its answer and then resumes the loop over them.

Group commit forms among the calls that hop: many connections' PUTs
against a blocking filesystem land on at most ``executor_threads`` threads,
queue behind whichever holds the engine lock, and share one WAL append
(DESIGN.md §7).  The converse is stated, not hidden: on a non-blocking
filesystem inline PUTs are groups of one by construction, so
many-connection served writes no longer share a modelled WAL append.

Requests that are not bounded — a scan without a ``limit``, or more than
:data:`INLINE_MAX_ITEMS` keys / batch ops / scan rows — always hop, so no
single request holds the loop for long, and so do the admin ops that read
the engine (stats, health, ready); ``serve_counters()`` reports how many
data requests went each way (``inline`` / ``hopped``).

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
* **Flow control** — a peer that stops reading pauses its connection:
  once the transport's write buffer passes its high-water mark no further
  frame is answered and the socket is not read, until the buffer drains.
  While a hop is pending, more than :data:`MAX_PENDING_INPUT` unparsed
  bytes also stop the reading.
* **Structured statuses** — the error-severity engine maps onto the
  wire: transient faults answer ``STATUS_RETRY_LATER`` (retryable),
  read-only degrade answers ``STATUS_UNAVAILABLE`` for writes while reads
  keep serving, and everything else is a permanent ``STATUS_ERROR``.
  A malformed frame answers ``STATUS_ERROR``, half-closes the connection
  and discards whatever the peer still sends.
* **Graceful drain** — ``aclose()`` stops accepting, closes idle
  connections, lets pending hops finish under ``drain_timeout``,
  flushes/quiesces the shards, then closes; a hop is cancelled only when
  the timeout expires (counted in ``cancelled_inflight``).
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
import functools
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

#: Largest request (keys of a multi_get, ops of a batch, ``limit`` of a
#: scan) tried on the loop thread; anything bigger, and a scan with no
#: limit, goes straight to the pool.
INLINE_MAX_ITEMS = 128

#: Unparsed input a connection buffers behind a pending hop before it
#: stops reading its socket.
MAX_PENDING_INPUT = 64 * 1024

#: Stall pressure levels sampled from the shards' L0 state.
_PRESSURE_OK = 0
_PRESSURE_SLOWDOWN = 1
_PRESSURE_STOP = 2


class _Conn(asyncio.Protocol):
    """One client connection: frames are answered in the read callback, in
    arrival order, and at most one hop is pending at a time."""

    __slots__ = (
        "server", "transport", "frames", "hop", "write_paused", "reading",
        "eof", "closing",
    )

    def __init__(self, server: "ShardServer"):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.frames = p.FrameBuffer()
        #: The pending hop's task.  While it is set, the frames behind it
        #: wait in ``frames`` — the window in which drain must not cut the
        #: transport.
        self.hop: asyncio.Task | None = None
        #: The peer is not reading: the write buffer is past its high mark.
        self.write_paused = False
        self.reading = True
        #: The peer half-closed; close once every answer is written.
        self.eof = False
        #: A protocol error was answered: input is discarded until EOF.
        self.closing = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._conns.add(self)

    def connection_lost(self, exc) -> None:
        self.server._conns.discard(self)

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return
        self.frames.feed(data)
        if self.hop is None and not self.write_paused:
            self.serve()
        elif len(self.frames) > MAX_PENDING_INPUT:
            self._set_reading(False)

    def eof_received(self) -> bool:
        self.eof = True
        # Keep the write side open while answers are still owed.
        return not self.closing and (self.hop is not None or self.write_paused)

    def pause_writing(self) -> None:
        self.write_paused = True
        self._set_reading(False)

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.hop is None:
            self.serve()
        elif len(self.frames) <= MAX_PENDING_INPUT:
            self._set_reading(True)

    # -- the request loop ------------------------------------------------------

    def serve(self) -> None:
        """Answer the buffered frames in order until one hops, the peer
        stops reading, the server drains, or no complete frame is left."""
        server = self.server
        frames = self.frames
        try:
            while self.hop is None and not self.write_paused and not server._draining:
                body = frames.pop()
                if body is None:
                    break
                server._answer(self, body)
        except p.ProtocolError as exc:
            self._protocol_error(exc)
            return
        if self.hop is not None:
            if len(frames) > MAX_PENDING_INPUT:
                self._set_reading(False)
        elif server._draining or (self.eof and not self.write_paused):
            self.transport.close()
        elif not self.reading and not self.write_paused:
            self._set_reading(True)

    def hop_done(self, task: asyncio.Task) -> None:
        """Write a finished hop's answer, then serve the frames behind it.
        A hop cancelled by an expired drain answers nothing: ``aclose``
        closes the connection."""
        self.hop = None
        if task.cancelled() or self.transport.is_closing():
            return
        self.transport.write(task.result())
        self.serve()

    def _set_reading(self, reading: bool) -> None:
        if reading != self.reading and not self.closing:
            self.reading = reading
            if reading:
                self.transport.resume_reading()
            else:
                self.transport.pause_reading()

    def _protocol_error(self, exc: p.ProtocolError) -> None:
        """Framing is untrusted past a bad frame, so the connection must
        end — but an abrupt close races the peer's own writes of pipelined
        requests still in flight: a TCP reset tears away the error frame
        just queued.  Answer the error, half-close, and discard the rest
        of the burst until the peer sees the error and hangs up (or
        5 seconds pass)."""
        self.server.protocol_errors += 1
        self._set_reading(True)
        self.closing = True
        self.frames = p.FrameBuffer()
        transport = self.transport
        transport.write(p.encode_frame(p.STATUS_ERROR, str(exc).encode("utf-8")))
        if transport.can_write_eof():
            transport.write_eof()
            self.server._loop.call_later(5.0, transport.close)
        else:
            transport.close()


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
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Conn] = set()
        #: Every pending hop's task.
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        #: (level, sampled_at) cache for the stall-pressure probe.
        self._pressure: tuple[int, float] = (_PRESSURE_OK, -1.0)
        #: Served-request counters (per opcode), for the stats endpoint.
        #: Only well-formed, known opcodes are counted — malformed frames
        #: land in ``protocol_errors`` instead.
        self.requests: dict[str, int] = {}
        #: Hopped requests not yet answered, per class (an inline request
        #: is answered before anything else can look).
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
        #: Hops cut off by a drain-timeout expiry.  A clean shutdown keeps
        #: this at zero — the invariant the drain test and the chaos
        #: harness assert.
        self.cancelled_inflight = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Conn(self), self.host, self.port
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
        2. Close idle connections; let pending hops finish, up to
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
            self._server = None
        if drain:
            await self._drain_connections()
        # Cut whatever is left (drain timeout expired, or drain=False).
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for conn in list(self._conns):
            conn.transport.close()
        self._conns.clear()
        if drain:
            await self._quiesce_db()
        self._pool.shutdown(wait=True)

    async def _drain_connections(self) -> None:
        """Close idle connections, then wait for pending hops to finish.

        A connection with a hop pending closes itself once the hop's answer
        is written (``_Conn.serve`` sees ``_draining``)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        for conn in list(self._conns):
            if conn.hop is None:
                conn.transport.close()
        while self._tasks:
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.cancelled_inflight += sum(
                    1 for task in self._tasks if not task.done()
                )
                break
            await asyncio.wait(list(self._tasks), timeout=remaining)

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

    # -- admission ---------------------------------------------------------

    def _stall_pressure(self, now: float) -> int:
        """Worst L0 stall state across the shards, sampled at most once per
        ``stall_check_interval_s`` — the probe reads each shard's version
        (cheap, but not free) and overload is exactly when it would be
        called thousands of times a second.  :meth:`_admit` reads the
        cached level itself while it is fresh."""
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
        """Admission check for a data op; returns a RETRY_LATER response
        when shedding.  Admin ops are never shed and never come here."""
        if self._draining:
            return self._shed_response(0, "draining")
        if not self.admission_control:
            return None
        if op_class == CLASS_WRITE:
            inflight = self.inflight[CLASS_WRITE]
            pressure, sampled_at = self._pressure
            if now - sampled_at >= self.stall_check_interval_s:
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

    # -- one request -------------------------------------------------------

    def _answer(self, conn: _Conn, body: bytes) -> None:
        """Answer one request frame on ``conn``: here, unless it must hop.

        A data op of at most ``INLINE_MAX_ITEMS`` items is called with
        ``wait=False`` right here; ``WouldBlock`` — the engine would wait,
        and has changed nothing — falls through to the hop, which calls the
        same bound method on the pool.  Unbounded data ops and the admin
        ops that read the engine hop without trying.

        The loop's clock is read once, when the frame is taken up: it
        times admission, and the budget runs from it.  The budget is
        enforced twice: before the call (late work is refused while it is
        still cheap — neither the engine nor the executor sees it) and
        around a hopped call (see :meth:`_hop`).  The payload is decoded
        in place, from the offset the head names.  Raises
        :class:`~repro.serve.protocol.ProtocolError` for a frame that
        cannot be decoded, with nothing written.
        """
        opcode, start, deadline_ms = p.decode_request(body)
        op = _OPS.get(opcode)
        if op is None:
            # Unknown opcodes must not pollute the served-request counters:
            # they were never admitted, let alone served.
            raise p.ProtocolError(f"unknown opcode {opcode:#x}")
        name, op_class, method, decode, encode = op
        requests = self.requests
        requests[name] = requests.get(name, 0) + 1
        if method is None:
            conn.transport.write(p.encode_frame(p.STATUS_OK, b"pong"))
            return
        now = self._loop.time()
        response = None if op_class == CLASS_ADMIN else self._admit(op_class, now)
        if response is None:
            if deadline_ms is None:
                deadline_ms = self.default_deadline_ms
            deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
            try:
                # A key op's payload is its key.
                args, items = ((body[start:],), 1) if decode is None else decode(body, start)
                if deadline is not None and deadline <= now:
                    response = self._deadline_response()
                elif items is None:
                    self._start_hop(
                        conn, op_class, getattr(self, method), args, encode, deadline
                    )
                    return
                else:
                    fn = getattr(self.db, method)
                    if items <= INLINE_MAX_ITEMS:
                        try:
                            result = fn(*args, wait=False)
                        except WouldBlock:
                            pass
                        else:
                            self.inline += 1
                            conn.transport.write(encode(self, args, result))
                            return
                    self.hopped += 1
                    self._start_hop(conn, op_class, fn, args, encode, deadline)
                    return
            except p.ProtocolError:
                raise
            except Exception as exc:  # engine-level failure → structured status
                response = self._engine_error_response(exc)
        conn.transport.write(response)

    def _start_hop(
        self, conn: _Conn, op_class: str, fn, args: tuple, encode,
        deadline: float | None,
    ) -> None:
        """Send ``fn(*args)`` to the pool as ``conn``'s pending hop; the
        connection answers nothing else until it is done."""
        self.inflight[op_class] += 1
        task = self._loop.create_task(self._hop(fn, args, encode, deadline))
        self._tasks.add(task)
        task.add_done_callback(functools.partial(self._hop_done, conn, op_class))
        conn.hop = task

    async def _hop(self, fn, args: tuple, encode, deadline: float | None) -> bytes:
        """Run an engine call on the pool and encode its answer.

        ``wait_for`` abandons a call that outlives the budget: a
        not-yet-started work item is truly cancelled, a running one
        finishes on its thread but nobody waits for it."""
        loop = self._loop
        try:
            call = loop.run_in_executor(self._pool, fn, *args)
            if deadline is None:
                result = await call
            else:
                try:
                    result = await asyncio.wait_for(call, deadline - loop.time())
                except asyncio.TimeoutError:
                    return self._deadline_response()
            return encode(self, args, result)
        except Exception as exc:  # engine-level failure → structured status
            return self._engine_error_response(exc)

    def _hop_done(self, conn: _Conn, op_class: str, task: asyncio.Task) -> None:
        self.inflight[op_class] -= 1
        self._tasks.discard(task)
        conn.hop_done(task)

    # -- responses -----------------------------------------------------------

    def _deadline_response(self) -> bytes:
        self.deadline_exceeded += 1
        return p.encode_frame(p.STATUS_DEADLINE_EXCEEDED, b"deadline exceeded")

    def _too_large(self, size: int) -> bytes:
        """The structured error an OK payload past MAX_FRAME (a huge scan /
        multi_get result) degrades to, instead of an unframeable reply
        that would kill the connection."""
        self.engine_errors += 1
        return p.encode_frame(
            p.STATUS_ERROR,
            f"response too large ({size} bytes > "
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

    def _stats_response(self) -> bytes:
        doc: dict = {"requests": dict(self.requests), "serve": self.serve_counters()}
        if hasattr(self.db, "aggregate_stats"):
            doc["engine"] = self.db.aggregate_stats()
            doc["shards"] = self.db.shard_names()
        else:
            doc["engine"] = self.db.stats.numeric()
        return p.encode_frame(p.STATUS_OK, json.dumps(doc).encode("utf-8"))

    def _health_response(self) -> bytes:
        doc = {"serve": self.serve_counters()}
        if hasattr(self.db, "health"):
            doc["engine"] = self.db.health()
        return p.encode_frame(p.STATUS_OK, json.dumps(doc).encode("utf-8"))

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

    # -- the opcode table's encoders: (server, args, result) -> frame --------

    def _done(self, args: tuple, result) -> bytes:
        return p.encode_frame(p.STATUS_OK)

    def _value(self, args: tuple, value: bytes | None) -> bytes:
        if value is None:
            return p.encode_frame(p.STATUS_NOT_FOUND)
        try:
            return p.encode_frame(p.STATUS_OK, value)
        except p.ProtocolError:
            return self._too_large(len(value))

    def _values(self, args: tuple, found: dict) -> bytes:
        payload = p.encode_values([found.get(key) for key in args[0]])
        try:
            return p.encode_frame(p.STATUS_OK, payload)
        except p.ProtocolError:
            return self._too_large(len(payload))

    def _entries(self, args: tuple, entries: list) -> bytes:
        payload = p.encode_entries(entries)
        try:
            return p.encode_frame(p.STATUS_OK, payload)
        except p.ProtocolError:
            return self._too_large(len(payload))

    def _frame(self, args: tuple, frame: bytes) -> bytes:
        return frame


# -- the opcode table's decoders: (body, start) -> (args, items) ---------------
#
# ``items`` sizes a data op for the inline bound; ``None`` marks an admin op,
# which always hops.  A key op (get, delete) has no decoder: its payload is
# its key.  Codecs are looked up on ``protocol`` at call time, so a wrapper
# patched onto the module sees every call.


def _put_args(body: bytes, start: int) -> tuple[tuple, int]:
    return p.decode_put(body, start), 1


def _multi_get_args(body: bytes, start: int) -> tuple[tuple, int]:
    keys = p.decode_multi_get(body, start)
    return (keys,), len(keys)


def _scan_args(body: bytes, start: int) -> tuple[tuple, int]:
    first, end, limit = p.decode_scan(body, start)
    return (first, end, limit), INLINE_MAX_ITEMS + 1 if limit is None else limit


def _batch_args(body: bytes, start: int) -> tuple[tuple, int]:
    ops = p.decode_batch(body, start)
    batch = WriteBatch()
    for tag, key, value in ops:
        if tag == p.BATCH_PUT:
            batch.put(key, value)
        else:
            batch.delete(key)
    return (batch,), len(ops)


def _admin_args(body: bytes, start: int) -> tuple[tuple, None]:
    return (), None


#: opcode -> (name, class, method, decode, encode).  ``method`` is looked up
#: on the db for a data op and on the server for an admin op; the same bound
#: method serves the inline call (``wait=False``) and the hop.  Ping has no
#: call at all (``method`` None): it is answered on the spot.
_OPS = {
    p.OP_PUT: ("put", CLASS_WRITE, "put", _put_args, ShardServer._done),
    p.OP_DELETE: ("delete", CLASS_WRITE, "delete", None, ShardServer._done),
    p.OP_BATCH: ("batch", CLASS_WRITE, "write", _batch_args, ShardServer._done),
    p.OP_GET: ("get", CLASS_READ, "get", None, ShardServer._value),
    p.OP_MULTI_GET: (
        "multi_get", CLASS_READ, "multi_get", _multi_get_args, ShardServer._values,
    ),
    p.OP_SCAN: ("scan", CLASS_READ, "scan", _scan_args, ShardServer._entries),
    p.OP_STATS: ("stats", CLASS_ADMIN, "_stats_response", _admin_args, ShardServer._frame),
    p.OP_HEALTH: (
        "health", CLASS_ADMIN, "_health_response", _admin_args, ShardServer._frame,
    ),
    p.OP_READY: ("ready", CLASS_ADMIN, "_ready_response", _admin_args, ShardServer._frame),
    p.OP_PING: ("ping", CLASS_ADMIN, None, None, None),
}
