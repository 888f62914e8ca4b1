"""Tracer core: no-op-by-default, deterministic ids, span-tree structure."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.obs.spans import read_trace
from repro.obs.tracer import _NOOP, ENV_TRACE_FILE, ENV_TRACE_ID


class TestDisabled:
    def test_span_is_the_shared_noop_singleton(self):
        assert obs.active() is None
        assert obs.span("anything", key="value") is _NOOP
        assert obs.span("other") is _NOOP  # no per-call allocation

    def test_noop_span_usable_as_context_manager(self):
        with obs.span("untraced") as handle:
            assert handle is None

    def test_event_is_a_noop(self):
        obs.event("nothing.listens", detail=1)  # must not raise

    def test_annotate_is_a_noop(self):
        obs.annotate(batch="main:1")  # must not raise

    def test_traced_function_runs_untouched(self):
        @obs.traced("unit.fn")
        def double(x):
            return 2 * x

        assert double(21) == 42


class TestInstalled:
    def test_span_ids_are_deterministic_and_sequential(self):
        tracer = obs.install(obs.Tracer("t-ids"))
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        spans = tracer.drain_spans()
        assert [s.span_id for s in spans] == ["main:1", "main:2"]
        assert all(s.trace_id == "t-ids" for s in spans)

    def test_nesting_sets_parent_ids(self):
        tracer = obs.install(obs.Tracer("t-nest"))
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = tracer.drain_spans()  # finish order: inner first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_explicit_parent_overrides_the_stack(self):
        tracer = obs.install(obs.Tracer("t-remote"))
        with obs.span("local"):
            with obs.span("handler", _parent="remote:7"):
                pass
        handler = tracer.drain_spans()[0]
        assert handler.parent_id == "remote:7"

    def test_root_parent_adopted_by_root_spans(self):
        tracer = obs.Tracer("t-continued")
        tracer.root_parent = "main:3"
        obs.install(tracer)
        with obs.span("worker.root"):
            pass
        assert tracer.drain_spans()[0].parent_id == "main:3"

    def test_exception_marks_span_status_error(self):
        tracer = obs.install(obs.Tracer("t-err"))
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("nope")
        span = tracer.drain_spans()[0]
        assert span.status == "error"
        assert span.duration_s >= 0.0

    def test_events_attach_to_innermost_open_span(self):
        tracer = obs.install(obs.Tracer("t-events"))
        with obs.span("outer"):
            with obs.span("inner"):
                obs.event("memo.hit", key="k")
        inner = next(s for s in tracer.drain_spans() if s.name == "inner")
        assert [e.name for e in inner.events] == ["memo.hit"]
        assert inner.events[0].attrs == {"key": "k"}

    def test_annotate_sets_attrs_on_innermost_open_span(self):
        tracer = obs.install(obs.Tracer("t-annotate"))
        with obs.span("outer", kept=1):
            with obs.span("inner"):
                obs.annotate(batch="main:9")
        inner, outer = tracer.drain_spans()
        assert inner.attrs == {"batch": "main:9"}
        assert outer.attrs == {"kept": 1}

    def test_traced_decorator_records_and_defaults_label(self):
        tracer = obs.install(obs.Tracer("t-deco"))

        @obs.traced()
        def helper():
            return 1

        assert helper() == 1
        span = tracer.drain_spans()[0]
        assert span.name.endswith("helper")

    def test_on_finish_hooks_fire_and_failures_are_swallowed(self):
        tracer = obs.install(obs.Tracer("t-hooks"))
        seen = []
        tracer.on_finish.append(lambda s: seen.append(s.name))
        tracer.on_finish.append(lambda s: 1 / 0)  # must never propagate
        with obs.span("observed"):
            pass
        assert seen == ["observed"]

    def test_span_attrs_round_trip(self):
        tracer = obs.install(obs.Tracer("t-attrs"))
        with obs.span("op", requests=3) as handle:
            handle.attrs["status"] = 200
        span = tracer.drain_spans()[0]
        assert span.attrs == {"requests": 3, "status": 200}


class TestTracingContextManager:
    def test_writes_decodable_file_and_uninstalls(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.tracing("t-file", path=path):
            with obs.span("only"):
                pass
        assert obs.active() is None
        header, spans = read_trace(path)
        assert header["trace_id"] == "t-file"
        assert [s.name for s in spans] == ["only"]

    def test_export_env_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.tracing("t-env", path=path, export_env=True):
            assert os.environ[ENV_TRACE_FILE] == str(path)
            assert os.environ[ENV_TRACE_ID] == "t-env"
        assert ENV_TRACE_FILE not in os.environ
        assert ENV_TRACE_ID not in os.environ

    def test_bootstrap_from_env_writes_scope_sidecar(self, tmp_path):
        path = tmp_path / "run.jsonl"
        os.environ[ENV_TRACE_FILE] = str(path)
        os.environ[ENV_TRACE_ID] = "t-boot"
        tracer = obs.bootstrap_from_env("worker-1")
        assert tracer is not None and obs.active() is tracer
        with obs.span("worker.op"):
            pass
        obs.uninstall()
        tracer.close()
        header, spans = read_trace(f"{path}.worker-1")
        assert header["scope"] == "worker-1"
        assert spans[0].span_id == "worker-1:1"

    def test_bootstrap_without_env_is_none(self):
        assert obs.bootstrap_from_env("worker-1") is None
        assert obs.active() is None
