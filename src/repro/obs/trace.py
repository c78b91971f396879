"""Structured span tracing with a bounded ring buffer.

The :class:`Tracer` records *events* — span begins (``B``), span ends
(``E``), instants (``i``), and pre-timed completes (``X``) — into a
``deque(maxlen=capacity)``: recording never blocks, never allocates
unboundedly, and simply drops the oldest events once the ring is full.
Every event carries both a wall-clock timestamp (seconds since the
tracer's epoch, ``time.perf_counter`` based) and the simulated-device
clock (:attr:`~repro.storage.io_stats.IOStats.sim_time_s`) at record
time, so a trace can be read against either time base.

Two exports:

* :meth:`Tracer.export_jsonl` — one JSON object per line, the format the
  ``repro.tools timeline`` renderer consumes;
* :meth:`Tracer.export_chrome` — a Chrome ``trace_event`` array viewable
  in ``chrome://tracing`` / Perfetto (timestamps in microseconds).

The hot-path contract: every instrumented site guards with
``if tracer.enabled`` and the disabled engine holds the shared
:data:`NULL_TRACER`, so tracing off costs one attribute load and a branch
per site.  Enabled, one event is one tuple append into the ring.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable

#: Event phases (a subset of Chrome's trace_event phases).
PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_INSTANT = "i"
PHASE_COMPLETE = "X"

# Module-level aliases: a global load is cheaper than an attribute chain in
# the per-event record path.
_perf_counter = time.perf_counter
_get_ident = threading.get_ident


@dataclass(frozen=True)
class TraceEvent:
    """One materialized trace event (the export-side view of a ring slot)."""

    phase: str  # 'B' | 'E' | 'i' | 'X'
    name: str
    category: str
    thread: str
    ts: float  # wall seconds since the tracer's epoch
    sim_ts: float  # simulated-device seconds at record time
    dur: float  # wall duration ('X' events only, else 0.0)
    sim_dur: float  # simulated duration ('X' events only, else 0.0)
    args: dict | None

    def to_json_dict(self) -> dict:
        """The event's JSONL record (``dur`` keys only on complete events)."""
        out = {
            "ph": self.phase,
            "name": self.name,
            "cat": self.category,
            "tid": self.thread,
            "ts": round(self.ts, 9),
            "sim": round(self.sim_ts, 9),
        }
        if self.phase == PHASE_COMPLETE:
            out["dur"] = round(self.dur, 9)
            out["sim_dur"] = round(self.sim_dur, 9)
        if self.args:
            out["args"] = self.args
        return out


class _SpanContext:
    """Context-manager form of a begin/end pair."""

    __slots__ = ("_tracer", "_name", "_category")

    def __init__(self, tracer: "Tracer", name: str, category: str):
        self._tracer = tracer
        self._name = name
        self._category = category

    def __enter__(self) -> "_SpanContext":
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._name, self._category)


class Tracer:
    """Thread-safe ring-buffered span/event recorder (see module docstring).

    ``sim_clock`` supplies the simulated-device clock (normally
    ``lambda: fs.stats.sim_time_s``); without one, simulated timestamps
    are 0.  ``deque.append`` is atomic under the GIL, so recording takes
    no lock; the thread-name cache insert is an idempotent dict write.
    """

    enabled = True

    def __init__(self, capacity: int = 65536, sim_clock=None):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._sim_clock = sim_clock or (lambda: 0.0)
        self._thread_names: dict[int, str] = {}
        self.epoch = time.perf_counter()
        #: Total events recorded, including ones the ring has since dropped.
        self.events_recorded = 0

    def set_sim_clock(self, sim_clock) -> None:
        """Install the simulated-clock source (callable returning seconds)."""
        self._sim_clock = sim_clock

    # ------------------------------------------------------------- recording

    def _record(self, phase: str, name: str, category: str, args, dur: float, sim_dur: float) -> None:
        """One ring append.  Deliberately flat — no helper calls beyond the
        thread-name cache and the two clocks — because high-volume sites
        (one event per fs I/O) pay this per operation."""
        self.events_recorded += 1
        ident = _get_ident()
        tname = self._thread_names.get(ident)
        if tname is None:
            tname = threading.current_thread().name
            self._thread_names[ident] = tname
        self._ring.append(
            (
                phase,
                name,
                category,
                tname,
                _perf_counter() - self.epoch,
                self._sim_clock(),
                dur,
                sim_dur,
                args,
            )
        )

    def begin(self, name: str, category: str = "", args: dict | None = None) -> None:
        """Open a span on the calling thread."""
        self._record(PHASE_BEGIN, name, category, args, 0.0, 0.0)

    def end(self, name: str, category: str = "", args: dict | None = None) -> None:
        """Close the innermost open span named ``name`` on this thread."""
        self._record(PHASE_END, name, category, args, 0.0, 0.0)

    def instant(self, name: str, category: str = "", args: dict | None = None) -> None:
        """Record a point event."""
        self._record(PHASE_INSTANT, name, category, args, 0.0, 0.0)

    def complete(
        self,
        name: str,
        category: str = "",
        *,
        dur: float = 0.0,
        sim_dur: float = 0.0,
        args: dict | None = None,
    ) -> None:
        """Record a pre-timed span as one event (the timestamp marks its
        *end*; the timeline reconstructs the start from ``dur``).  Used by
        high-volume sites (fs reads/writes) where a begin/end pair would
        double the ring traffic."""
        self._record(PHASE_COMPLETE, name, category, args, dur, sim_dur)

    def span(self, name: str, category: str = "", args: dict | None = None) -> _SpanContext:
        """``with tracer.span("flush", "flush"): ...`` begin/end pair."""
        self._record(PHASE_BEGIN, name, category, args, 0.0, 0.0)
        return _SpanContext(self, name, category)

    def clear(self) -> None:
        self._ring.clear()

    # --------------------------------------------------------------- export

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> list[TraceEvent]:
        """Materialize the ring's current contents (oldest first)."""
        return [
            TraceEvent(
                phase=ph, name=name, category=cat, thread=tname,
                ts=ts, sim_ts=sim_ts, dur=dur, sim_dur=sim_dur, args=args,
            )
            for ph, name, cat, tname, ts, sim_ts, dur, sim_dur, args in list(self._ring)
        ]

    def export_jsonl(self, target: str | IO[str]) -> int:
        """Write one JSON object per event to ``target`` (path or file
        object); returns the number of events written."""
        events = self.events()
        if hasattr(target, "write"):
            for event in events:
                target.write(json.dumps(event.to_json_dict()) + "\n")
        else:
            with open(target, "w") as f:
                for event in events:
                    f.write(json.dumps(event.to_json_dict()) + "\n")
        return len(events)

    def chrome_trace(self) -> list[dict]:
        """The ring as a Chrome ``trace_event`` array (ts/dur in µs)."""
        out = []
        tids: dict[str, int] = {}
        for event in self.events():
            tid = tids.setdefault(event.thread, len(tids) + 1)
            ts_us = event.ts * 1e6
            entry: dict = {
                "ph": event.phase,
                "name": event.name,
                "cat": event.category or "repro",
                "pid": 1,
                "tid": tid,
                "ts": round(ts_us - event.dur * 1e6, 3)
                if event.phase == PHASE_COMPLETE
                else round(ts_us, 3),
            }
            if event.phase == PHASE_COMPLETE:
                entry["dur"] = round(event.dur * 1e6, 3)
            if event.phase == PHASE_INSTANT:
                entry["s"] = "t"
            args = dict(event.args) if event.args else {}
            args["sim_ts"] = round(event.sim_ts, 9)
            entry["args"] = args
            out.append(entry)
        for thread, tid in tids.items():
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        return out

    def export_chrome(self, target: str | IO[str]) -> int:
        """Write the Chrome ``trace_event`` JSON array to ``target``."""
        trace = self.chrome_trace()
        if hasattr(target, "write"):
            json.dump(trace, target)
        else:
            with open(target, "w") as f:
                json.dump(trace, f)
        return len(trace)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Hot paths check :attr:`enabled` first, so with tracing off the cost
    per instrumented site is one attribute load and one branch.
    """

    enabled = False
    capacity = 0
    events_recorded = 0

    def set_sim_clock(self, sim_clock) -> None:
        pass

    def begin(self, name: str, category: str = "", args: dict | None = None) -> None:
        pass

    def end(self, name: str, category: str = "", args: dict | None = None) -> None:
        pass

    def instant(self, name: str, category: str = "", args: dict | None = None) -> None:
        pass

    def complete(self, name: str, category: str = "", *, dur: float = 0.0,
                 sim_dur: float = 0.0, args: dict | None = None) -> None:
        pass

    def span(self, name: str, category: str = "", args: dict | None = None) -> _NullSpan:
        return _NULL_SPAN

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def events(self) -> list[TraceEvent]:
        return []

    def export_jsonl(self, target) -> int:
        return 0

    def chrome_trace(self) -> list[dict]:
        return []

    def export_chrome(self, target) -> int:
        return 0


#: The shared disabled tracer every un-traced engine holds.
NULL_TRACER = NullTracer()


def load_jsonl(target: str | IO[str]) -> list[TraceEvent]:
    """Parse a JSONL trace file back into :class:`TraceEvent` objects."""
    if hasattr(target, "read"):
        lines: Iterable[str] = target
    else:
        with open(target) as f:
            lines = f.readlines()
    events = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        events.append(
            TraceEvent(
                phase=raw["ph"],
                name=raw["name"],
                category=raw.get("cat", ""),
                thread=str(raw.get("tid", "?")),
                ts=float(raw["ts"]),
                sim_ts=float(raw.get("sim", 0.0)),
                dur=float(raw.get("dur", 0.0)),
                sim_dur=float(raw.get("sim_dur", 0.0)),
                args=raw.get("args"),
            )
        )
    return events
