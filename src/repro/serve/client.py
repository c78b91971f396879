"""Asyncio client for the serving protocol.

One :class:`ServeClient` is one connection; requests on a connection are
pipelined FIFO.  The server answers in request order, so the connection's
protocol keeps a FIFO of futures, one per request written, and resolves
the oldest with each reply it cuts out of the stream.  A caller that gives
up on a request (a cancelled ``await``) leaves its future in place: its
reply, when it comes, is dropped, and every later reply still reaches its
own caller.  Open many clients to exercise the server's cross-connection
batching — that is exactly what the group-commit amortization test does.

The client is fault-transparent (DESIGN.md §15): it propagates per-request
deadlines into the wire frame, retries ``STATUS_RETRY_LATER`` responses
with capped exponential backoff plus jitter — sleeping at least the
server's suggested ``retry_after_ms`` hint — reconnects through transport
failures, and trips a per-connection circuit breaker after consecutive
transport failures so a dead server costs one fast
:class:`CircuitOpenError` instead of a connect timeout per request.

Status → exception mapping (all subclasses of :class:`ServeError`):

=========================  ===============================================
``STATUS_ERROR``           :class:`ServeError` — permanent, never retried
``STATUS_RETRY_LATER``     retried; :class:`RetryLaterError` once retries
                           are exhausted (``retry_after_ms`` attached)
``STATUS_UNAVAILABLE``     :class:`UnavailableError` — the engine is in
                           read-only degrade; writes need an operator
                           ``resume()``, so they are not retried by default
``STATUS_DEADLINE_...``    :class:`DeadlineExceededError` — the budget is
                           spent; retrying would spend a fresh one, which
                           is the caller's decision
=========================  ===============================================
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import deque

from . import protocol as p


class ServeError(Exception):
    """The server answered an error status (permanent unless subclassed)."""


class RetryLaterError(ServeError):
    """The server shed the request; retries (if any) were exhausted."""

    def __init__(self, message: str, retry_after_ms: int = 0):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class UnavailableError(ServeError):
    """The engine is in degraded (read-only) mode; writes are refused."""


class DeadlineExceededError(ServeError):
    """The request's deadline budget expired before the work finished."""


class CircuitOpenError(ServeError):
    """The circuit breaker is open: recent transport failures exceeded the
    threshold and the cooldown has not elapsed — fail fast, do not dial."""


class _ReplyProtocol(asyncio.Protocol):
    """One connection's receive side: each reply resolves the oldest
    pending future.  A lost connection fails every pending future with
    ``ConnectionError``."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.transport: asyncio.Transport | None = None
        self.frames = p.FrameBuffer()
        self.waiters: deque[asyncio.Future] = deque()
        #: Resolved once the transport is gone (``aclose`` awaits it).
        self.closed = loop.create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        """Resolve the oldest pending future with each complete reply."""
        self.frames.feed(data)
        waiters = self.waiters
        try:
            while (body := self.frames.pop()) is not None:
                if not waiters:
                    raise p.ProtocolError("reply with no request pending")
                waiter = waiters.popleft()
                if not waiter.done():  # a cancelled caller's reply is dropped
                    waiter.set_result(body)
        except p.ProtocolError:
            # The stream can no longer be matched to requests.
            self.transport.close()

    def connection_lost(self, exc) -> None:
        """Fail every pending future: the caller's retry loop reconnects."""
        error = ConnectionResetError(
            f"connection lost: {exc!r}" if exc else "connection closed"
        )
        while self.waiters:
            waiter = self.waiters.popleft()
            if not waiter.done():
                waiter.set_exception(error)
        if not self.closed.done():
            self.closed.set_result(None)


class ServeClient:
    """One connection speaking the length-prefixed binary protocol.

    ``deadline_ms`` is the default per-request budget propagated in every
    frame (override per call); ``max_retries`` bounds the RETRY_LATER /
    reconnect loop; the breaker opens after ``breaker_threshold``
    consecutive transport failures and half-opens (one trial request)
    after ``breaker_cooldown_s``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        deadline_ms: int | None = None,
        max_retries: int = 4,
        backoff_base_s: float = 0.02,
        backoff_cap_s: float = 1.0,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 1.0,
        seed: int | None = None,
    ):
        self.host = host
        self.port = port
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self._rng = random.Random(seed)
        self._protocol: _ReplyProtocol | None = None
        #: Consecutive transport failures (breaker input).
        self._failures = 0
        #: Monotonic time before which the breaker refuses to dial.
        self._open_until = 0.0
        #: Lifetime counters (chaos harness + tests read these).
        self.retries = 0
        self.breaker_trips = 0

    async def connect(self) -> "ServeClient":
        """Open the connection; a no-op while one is open."""
        if self._live():
            return self
        loop = asyncio.get_running_loop()
        _, protocol = await loop.create_connection(
            lambda: _ReplyProtocol(loop), self.host, self.port
        )
        if self._live():
            protocol.transport.close()  # another request reconnected first
        else:
            self._protocol = protocol
        return self

    def _live(self) -> bool:
        protocol = self._protocol
        return protocol is not None and not protocol.transport.is_closing()

    async def aclose(self) -> None:
        protocol, self._protocol = self._protocol, None
        if protocol is not None:
            protocol.transport.close()
            await protocol.closed

    # -- transport with breaker --------------------------------------------

    def _breaker_check(self) -> None:
        if self._failures < self.breaker_threshold:
            return
        now = asyncio.get_running_loop().time()
        if now < self._open_until:
            raise CircuitOpenError(
                f"circuit open after {self._failures} consecutive transport "
                f"failures; retry after {self._open_until - now:.2f}s"
            )
        # Half-open: let exactly this request through as the trial.

    def _record_transport_failure(self) -> None:
        self._failures += 1
        if self._failures >= self.breaker_threshold:
            loop = asyncio.get_running_loop()
            if loop.time() >= self._open_until:
                self.breaker_trips += 1
            self._open_until = loop.time() + self.breaker_cooldown_s

    async def _request(self, frame: bytes) -> tuple[int, bytes]:
        """One raw attempt: send ``frame``, await its reply, map status.

        No retries at this layer — :meth:`_call` owns the retry loop; the
        protocol-level tests drive this directly.
        """
        self._breaker_check()
        if not self._live():
            await self.connect()
        protocol = self._protocol
        reply = asyncio.get_running_loop().create_future()
        protocol.waiters.append(reply)
        protocol.transport.write(frame)
        try:
            body = await reply
        except (ConnectionError, OSError):
            # The connection is unusable: framing state is unknown.
            self._record_transport_failure()
            if self._protocol is protocol:
                self._protocol = None
            raise
        self._failures = 0
        status, payload = p.decode_body(body)
        if status == p.STATUS_ERROR:
            raise ServeError(payload.decode("utf-8", "replace"))
        if status == p.STATUS_UNAVAILABLE:
            raise UnavailableError(payload.decode("utf-8", "replace"))
        if status == p.STATUS_DEADLINE_EXCEEDED:
            raise DeadlineExceededError(payload.decode("utf-8", "replace"))
        return status, payload

    async def _call(self, frame: bytes) -> tuple[int, bytes]:
        """The retry loop: transport failures reconnect, RETRY_LATER sleeps
        max(server hint, jittered exponential backoff) and tries again."""
        attempt = 0
        while True:
            try:
                status, payload = await self._request(frame)
            except (ConnectionError, OSError) as exc:
                if attempt >= self.max_retries:
                    raise ServeError(f"transport failure: {exc!r}") from exc
                await self._sleep_backoff(attempt, 0)
                attempt += 1
                self.retries += 1
                continue
            if status != p.STATUS_RETRY_LATER:
                return status, payload
            retry_after_ms, message = p.decode_retry_hint(payload)
            if attempt >= self.max_retries:
                raise RetryLaterError(
                    message or "server shed the request", retry_after_ms
                )
            await self._sleep_backoff(attempt, retry_after_ms)
            attempt += 1
            self.retries += 1

    async def _sleep_backoff(self, attempt: int, hint_ms: int) -> None:
        """Exponential backoff with full jitter, floored at the server
        hint: the hint is the server's view of when capacity returns, the
        jitter is what keeps a thousand shed clients from returning in one
        synchronized wave."""
        backoff = min(self.backoff_base_s * (2 ** attempt), self.backoff_cap_s)
        delay = max(hint_ms / 1000.0, backoff * self._rng.random())
        if delay > 0:
            await asyncio.sleep(delay)

    def _deadline(self, deadline_ms: int | None) -> int | None:
        return deadline_ms if deadline_ms is not None else self.deadline_ms

    # -- operations --------------------------------------------------------

    async def ping(self) -> bytes:
        _, payload = await self._call(p.encode_frame(p.OP_PING))
        return payload

    async def put(
        self, key: bytes, value: bytes, *, deadline_ms: int | None = None
    ) -> None:
        await self._call(p.encode_put(key, value, self._deadline(deadline_ms)))

    async def get(
        self, key: bytes, *, deadline_ms: int | None = None
    ) -> bytes | None:
        status, payload = await self._call(
            p.encode_get(key, self._deadline(deadline_ms))
        )
        return None if status == p.STATUS_NOT_FOUND else payload

    async def delete(self, key: bytes, *, deadline_ms: int | None = None) -> None:
        await self._call(p.encode_delete(key, self._deadline(deadline_ms)))

    async def multi_get(
        self, keys: list[bytes], *, deadline_ms: int | None = None
    ) -> list[bytes | None]:
        _, payload = await self._call(
            p.encode_multi_get(keys, self._deadline(deadline_ms))
        )
        return p.decode_values(payload)

    async def scan(
        self,
        start: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
        *,
        deadline_ms: int | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Range scan ``[start, end)`` (None bounds are open-ended)."""
        _, payload = await self._call(
            p.encode_scan(start, end, limit, self._deadline(deadline_ms))
        )
        return p.decode_entries(payload)

    async def batch(
        self, ops: list[tuple[int, bytes, bytes]], *, deadline_ms: int | None = None
    ) -> None:
        """``ops`` are (BATCH_PUT|BATCH_DELETE, key, value) tuples."""
        await self._call(p.encode_batch(ops, self._deadline(deadline_ms)))

    async def stats(self) -> dict:
        _, payload = await self._call(p.encode_frame(p.OP_STATS))
        return json.loads(payload.decode("utf-8"))

    async def health(self) -> dict:
        """The engine + server health report (never shed, never degraded)."""
        _, payload = await self._call(p.encode_frame(p.OP_HEALTH))
        return json.loads(payload.decode("utf-8"))

    async def ready(self) -> bool:
        """Readiness probe: True when the server accepts writes.

        Returns False (instead of raising) on UNAVAILABLE — a probe's
        answer is the point, not an exception."""
        try:
            status, _ = await self._call(p.encode_frame(p.OP_READY))
        except UnavailableError:
            return False
        return status == p.STATUS_OK
