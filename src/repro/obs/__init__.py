"""Observability: span tracing, trace export and opt-in profiling.

The :mod:`repro.obs` package is the repo's end-to-end tracing substrate:

:mod:`repro.obs.spans`
    Span/event dataclasses and the JSONL trace codec (schema v1).
:mod:`repro.obs.tracer`
    The context-var span stack: ``span()`` context managers, ``traced()``
    decorators, ``event()`` markers and ``annotate()`` calls that are
    **branch-only no-ops** until a :class:`~repro.obs.tracer.Tracer` is
    installed.
:mod:`repro.obs.export`
    Bounded ring-buffer collection plus an append-only JSONL sink with
    fsync-on-rotate durability.
:mod:`repro.obs.propagate`
    Trace-context carriers across process boundaries: HTTP headers,
    :class:`~repro.streaming.delta.GraphDelta` metadata (and therefore WAL
    records), and process-pool submissions.
:mod:`repro.obs.profile`
    Opt-in per-span RSS / allocation sampling.

Determinism contract: tracing never influences computation.  Span ids come
from a seeded counter (never ``time``/``random``), so a traced run produces
byte-identical condensation/serving artifacts to an untraced one — traces
are a *side channel*, like logs.
"""

from __future__ import annotations

from repro.obs.export import SpanCollector, TraceSink
from repro.obs.propagate import TraceContext, current_context
from repro.obs.spans import TRACE_SCHEMA_VERSION, Span, SpanEvent
from repro.obs.tracer import (
    Tracer,
    active,
    annotate,
    bootstrap_from_env,
    event,
    install,
    span,
    traced,
    tracing,
    uninstall,
)

__all__ = [
    "Span",
    "SpanEvent",
    "SpanCollector",
    "TraceSink",
    "TraceContext",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "active",
    "annotate",
    "bootstrap_from_env",
    "current_context",
    "event",
    "install",
    "span",
    "traced",
    "tracing",
    "uninstall",
]
