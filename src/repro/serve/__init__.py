"""Async serving front end (DESIGN.md §12, §15).

``python -m repro.serve --root DIR --shards N`` starts an asyncio server
speaking a length-prefixed binary protocol over a range-sharded engine;
:class:`ServeClient` is the matching client.  A request
runs on the event loop unless its engine call would wait; those that would
share a bounded executor pool and, there, each shard's group commit.

The path is overload-safe and fault-transparent: per-request deadlines,
admission control with RETRY_LATER shedding, severity-mapped status
codes, graceful drain, and a retrying client with a circuit breaker
(DESIGN.md §15; chaos-tested by the serving chaos harness in the
top-level ``oracle`` package).
"""

from .client import (
    CircuitOpenError,
    DeadlineExceededError,
    RetryLaterError,
    ServeClient,
    ServeError,
    UnavailableError,
)
from .server import ShardServer

__all__ = [
    "ShardServer",
    "ServeClient",
    "ServeError",
    "RetryLaterError",
    "UnavailableError",
    "DeadlineExceededError",
    "CircuitOpenError",
]
