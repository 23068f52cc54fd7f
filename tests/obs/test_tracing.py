"""Tracer: span lifecycle, nesting, clocks, caps, null path."""

import pytest

from repro.errors import ObsError
from repro.obs import NULL_TRACER, Observability, Tracer


class FakeClock:
    """A manually advanced clock for deterministic span timing."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSpans:
    def test_context_manager_records_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            clock.t = 2.5
        [span] = tracer.finished_spans
        assert span.name == "work"
        assert span.duration_s == 2.5
        assert span.status == "ok"

    def test_nesting_records_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.finished_spans}
        assert by_name["inner"].parent_name == "outer"
        assert by_name["outer"].parent_name is None

    def test_exception_marks_error_status(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        [span] = tracer.finished_spans
        assert span.status == "error"
        assert span.finished

    def test_detached_span_explicit_end_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_span("task", node=3)
        clock.t = 1.0
        span.end("failed")
        clock.t = 9.0
        span.end("ok")  # second end is a no-op
        assert span.duration_s == 1.0
        assert span.status == "failed"
        assert span.labels == {"node": "3"}

    def test_unfinished_span_has_no_duration(self):
        span = Tracer(clock=FakeClock()).start_span("open")
        with pytest.raises(ObsError):
            span.duration_s


class TestAggregates:
    def test_aggregates_survive_span_cap(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, max_spans=2)
        for _ in range(5):
            with tracer.span("op"):
                clock.t += 1.0
        assert tracer.span_count("op") == 5
        assert tracer.total_s("op") == pytest.approx(5.0)
        assert len(tracer.finished_spans) == 2
        assert tracer.snapshot()["dropped"] == 3

    def test_snapshot_aggregate_fields(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for delta in (1.0, 3.0):
            with tracer.span("op"):
                clock.t += delta
        [aggregate] = tracer.snapshot()["aggregates"]
        assert aggregate == {
            "name": "op", "count": 2, "total_s": 4.0,
            "min_s": 1.0, "max_s": 3.0,
        }


class TestClockBinding:
    def test_default_clock_is_wall_clock(self):
        tracer = Tracer()
        with tracer.span("fast"):
            pass
        [span] = tracer.finished_spans
        assert span.duration_s >= 0.0

    def test_observability_clock_threads_to_tracer(self):
        clock = FakeClock()
        obs = Observability(clock=clock)
        assert obs.clock()() == 0.0
        clock.t = 7.0
        assert obs.tracer.now() == 7.0


class TestNullTracer:
    def test_null_tracer_never_retains(self):
        with NULL_TRACER.span("x"):
            pass
        NULL_TRACER.start_span("y").end()
        assert NULL_TRACER.finished_spans == []
        assert NULL_TRACER.span_count() == 0
        assert not NULL_TRACER.enabled

    def test_null_span_is_shared_and_allocation_free(self):
        # One object for every disabled ``with``: no generator, no
        # context-manager wrapper per call.
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y", op="z")
        assert NULL_TRACER.span("x") is NULL_TRACER.start_span("x")
        with NULL_TRACER.span("x") as span:
            assert span is NULL_TRACER.span("y")

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("x"):
                raise ValueError("boom")
