"""Tracer behaviour: nesting, ring buffer, JSONL, zero overhead when off."""

from __future__ import annotations

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    trace.disable()


class TestCollector:
    def test_ring_buffer_keeps_newest_and_counts_drops(self):
        collector = trace.TraceCollector(capacity=3)
        for index in range(5):
            collector.record(trace.TraceRecord(
                name=f"r{index}", wall_seconds=0.0, depth=0,
                timestamp=float(index)))
        assert len(collector) == 3
        assert collector.total == 5
        assert collector.dropped == 2
        assert [r.name for r in collector.records()] == ["r2", "r3", "r4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            trace.TraceCollector(capacity=0)


class TestEmission:
    def test_disabled_emit_reaches_no_collector(self):
        collector = trace.enable()
        trace.disable()
        trace.emit("after.disable", 1.0)
        assert collector.records() == []
        assert trace.active_collector() is None

    def test_emit_records_name_wall_and_attrs(self):
        collector = trace.enable()
        trace.emit("kernel.read", 0.25, oids=7)
        (record,) = collector.records()
        assert record.name == "kernel.read"
        assert record.wall_seconds == 0.25
        assert record.depth == 0
        assert record.attrs == {"oids": 7}

    def test_span_nesting_depths(self):
        collector = trace.enable()
        with trace.span("outer"):
            trace.emit("inner.event")
            with trace.span("inner"):
                trace.emit("leaf.event")
        names = {r.name: r.depth for r in collector.records()}
        assert names == {"outer": 0, "inner.event": 1, "inner": 1,
                         "leaf.event": 2}

    def test_span_restores_depth_on_exception(self):
        collector = trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("failing"):
                raise RuntimeError("boom")
        (record,) = collector.records()
        assert record.name == "failing"
        trace.emit("after")
        assert collector.records()[-1].depth == 0

    def test_enable_installs_the_given_empty_collector(self):
        collector = trace.TraceCollector(capacity=8)
        assert trace.enable(collector) is collector
        trace.emit("x")
        assert len(collector) == 1

    def test_reenable_replaces_collector(self):
        first = trace.enable()
        second = trace.enable()
        assert first is not second
        trace.emit("x")
        assert first.records() == []
        assert len(second.records()) == 1


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace.enable(sink_path=path)
        with trace.span("outer", phase="warm"):
            trace.emit("inner", 0.002, oids=3)
        trace.disable()
        records = trace.read_jsonl(path)
        assert [r.name for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner.depth == 1 and outer.depth == 0
        assert inner.attrs == {"oids": 3}
        assert outer.attrs == {"phase": "warm"}
        assert inner.wall_seconds == pytest.approx(0.002)

    def test_disable_closes_sink(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace.enable(sink_path=path)
        trace.emit("one")
        trace.disable()
        # A closed sink is flushed: the record is on disk.
        assert len(trace.read_jsonl(path)) == 1


class TestSummary:
    def test_summary_sorted_by_total_wall(self):
        collector = trace.enable()
        trace.emit("cheap", 0.001)
        trace.emit("cheap", 0.001)
        trace.emit("dear", 1.0)
        rows = trace.summary(collector)
        assert [row[0] for row in rows] == ["dear", "cheap"]
        name, count, total, mean, p999 = rows[1]
        assert count == 2
        assert total == pytest.approx(0.002)
        assert mean == pytest.approx(0.001)
        # The tail column comes from a log-bucketed histogram: accurate
        # to its relative precision, not exact.
        assert p999 == pytest.approx(0.001, rel=0.02)

    def test_summary_p999_tracks_the_slowest_emission(self):
        collector = trace.enable()
        for _ in range(99):
            trace.emit("op", 0.001)
        trace.emit("op", 0.5)
        ((_, count, _, _, p999),) = trace.summary(collector)
        assert count == 100
        assert p999 == pytest.approx(0.5, rel=0.02)

    def test_summary_counts_records_evicted_from_the_ring(self):
        capacity = 16
        collector = trace.TraceCollector(capacity=capacity)
        for _ in range(capacity + 100):
            collector.record(trace.TraceRecord(
                name="op", wall_seconds=0.001, depth=0, timestamp=0.0))
        assert len(collector) == capacity
        ((name, count, total, _, _),) = trace.summary(collector)
        assert name == "op"
        assert count == capacity + 100
        assert total == pytest.approx(0.001 * (capacity + 100))

    def test_summary_without_collector_is_empty(self):
        assert trace.summary() == []


class TestZeroOverheadWhenOff:
    def test_traced_off_run_executes_no_tracer_callbacks(self, monkeypatch):
        """A full `ocb run` without --trace never touches the tracer.

        Every instrumented call site guards with ``if trace.enabled:``,
        so replacing emit/span with spies must observe zero calls on the
        hottest end-to-end path the CLI has.
        """
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            trace, "emit",
            lambda *args, **kwargs: calls.append(("emit", args)))
        monkeypatch.setattr(
            trace, "span",
            lambda *args, **kwargs: calls.append(("span", args)))
        assert trace.enabled is False
        assert main(["run", "--backend", "sqlite"]) == 0
        assert calls == []

    def test_scenario_off_run_executes_no_tracer_callbacks(self, monkeypatch):
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            trace, "emit",
            lambda *args, **kwargs: calls.append(("emit", args)))
        monkeypatch.setattr(
            trace, "span",
            lambda *args, **kwargs: calls.append(("span", args)))
        assert main(["scenario", "read_heavy", "--warm", "5",
                     "--cold", "1"]) == 0
        assert calls == []

    def test_loadtest_off_run_executes_no_tracer_callbacks(
            self, monkeypatch, tmp_path):
        """The open-loop pacer guards its arrival/late-start emissions
        with ``trace.enabled`` too — a loadtest without --trace must
        execute zero tracer callbacks."""
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            trace, "emit",
            lambda *args, **kwargs: calls.append(("emit", args)))
        monkeypatch.setattr(
            trace, "span",
            lambda *args, **kwargs: calls.append(("span", args)))
        assert trace.enabled is False
        out = str(tmp_path / "sweep.json")
        assert main(["loadtest", "read_heavy", "--rate", "200",
                     "--ops", "5", "--backend", "memory",
                     "--out", out, "--no-predict"]) == 0
        assert calls == []
