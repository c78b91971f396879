"""Observability: structured tracing, latency histograms, introspection.

Four pieces, all dependency-free and off by default (DESIGN.md §8):

* :mod:`repro.obs.trace` — a thread-safe ring-buffered :class:`Tracer`
  emitting begin/end spans and instant events with wall-clock *and*
  simulated-device timestamps, exportable as JSONL or Chrome
  ``trace_event`` JSON.
* :mod:`repro.obs.histogram` — fixed-bucket log-scale latency histograms
  with p50/p95/p99/p999 quantiles, grouped in a :class:`LatencyRegistry`.
* :mod:`repro.obs.timeline` — a flush/compaction timeline renderer over
  exported traces.
* :mod:`repro.obs.prom` — one metrics walk, :func:`collect`, over a DB, a
  ShardedDB or a ShardServer, and :func:`render_prometheus`, the only
  Prometheus text renderer, over it.

When ``Options.tracing`` and ``Options.latency_histograms`` are both off
(the default) the engine uses the shared :data:`NULL_TRACER` and records
nothing: simulated metrics and file contents are bit-identical to an
engine built without this package.
"""

from .histogram import HistogramSnapshot, LatencyHistogram, LatencyRegistry
from .prom import Sample, collect, render_prometheus
from .timeline import Span, build_spans, load_events, render_timeline, spans_to_json
from .trace import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "HistogramSnapshot",
    "LatencyHistogram",
    "LatencyRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Sample",
    "Span",
    "TraceEvent",
    "Tracer",
    "build_spans",
    "collect",
    "load_events",
    "render_prometheus",
    "render_timeline",
    "spans_to_json",
]
