"""Scenario-layer benchmark: busy retries vs worker count.

The contention companion to ``bench_parallel.py`` — one generated
database, one ``write_heavy`` scenario, executed at 1/2/4 worker
processes against a shared WAL SQLite file.  Each point reports the
aggregate busy-retry count (real write-write lock collisions, counted
by the engine's retry loop), throughput and write-conflict tolerance
counters; the curve is the benchmark's headline: a single writer cannot
collide, additional writers should.  The sweep is emitted as one
schema-versioned ``BENCH`` document (kind ``scenario_contention`` — the
unified shape of :mod:`repro.obs.results`).

Runs as a plain pytest module (no pytest-benchmark required)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q

Note: contention depends on the host's scheduler — the assertions pin
correctness (operation counts, per-client logical determinism across
widths is *not* expected for mutating mixes, whose partitions change
with the client count), never a specific retry count.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

try:
    from conftest import term_print
except ImportError:
    # When benchmarks/ and tests/ are collected in one invocation, the
    # top-level name "conftest" can resolve to tests/conftest.py, which
    # has no term_print; plain printing is a fine fallback.
    def term_print(*args, **kwargs):
        print(*args, **kwargs)

from repro.core.generation import generate_database
from repro.core.presets import default_database_parameters, scenario_preset
from repro.core.scenario import ScenarioRunner
from repro.parallel import ParallelConfig
from repro.reporting import render_table

#: Scaled-down database: 2 000 objects; 2 cold + 40 warm ops per worker.
DB_SCALE = 0.1
SEED = 19980323  # EDBT '98.
WORKERS = (1, 2, 4)
COLD_OPS = 2
WARM_OPS = 40


def _point(report, workers):
    return {
        "workers": workers,
        "mode": report.mode,
        "executed_parallel": report.executed_parallel,
        "operations": report.total_operations,
        "write_operations": report.write_operations,
        "elapsed_seconds": report.elapsed_seconds,
        "throughput": report.throughput,
        "busy_retries": report.counters.busy_retries,
        "busy_wait_seconds": report.counters.busy_wait_seconds,
        "write_conflicts": report.write_conflicts,
        "read_misses": report.read_misses,
    }


@pytest.fixture(scope="module")
def sweep():
    config = ParallelConfig(busy_timeout_ms=10000)
    points = []
    for workers in WORKERS:
        database, _ = generate_database(
            default_database_parameters(scale=DB_SCALE, seed=SEED))
        scenario = replace(scenario_preset("write_heavy"),
                           clients=workers, cold_ops=COLD_OPS,
                           warm_ops=WARM_OPS)
        report = ScenarioRunner(database, scenario).run_processes(
            config=config)
        points.append((report, _point(report, workers)))
    return points


def test_busy_retry_curve_table_and_json(sweep):
    rows = [[p["workers"], p["mode"], p["operations"],
             p["write_operations"], p["throughput"], p["busy_retries"],
             p["busy_wait_seconds"], p["write_conflicts"]]
            for _, p in sweep]
    term_print(render_table(
        ["workers", "mode", "ops", "writes", "op/s", "busy retries",
         "busy wait (s)", "write conflicts"],
        rows, title="write_heavy contention vs worker count "
                    "(shared WAL SQLite)", precision=3))
    from repro.obs import results
    document = results.build_document(
        kind="scenario_contention",
        cells=[p for _, p in sweep],
        config={"db_scale": DB_SCALE, "seed": SEED,
                "workers": list(WORKERS), "cold_ops": COLD_OPS,
                "warm_ops": WARM_OPS, "scenario": "write_heavy"},
        name="bench_scenarios")
    term_print(json.dumps(document, indent=2))
    assert len(sweep) == len(WORKERS)
    assert results.validate_document(document) is document


def test_every_point_ran_its_full_workload(sweep):
    for _, point in sweep:
        assert point["operations"] == \
            point["workers"] * (COLD_OPS + WARM_OPS)
        assert point["write_operations"] > 0
        assert point["throughput"] > 0.0


def test_single_writer_cannot_collide(sweep):
    report, point = sweep[0]
    assert point["workers"] == 1
    assert point["busy_retries"] == 0


def test_shared_storage_at_every_width(sweep):
    for report, point in sweep:
        assert point["mode"] == "shared"
        for client in report.clients:
            assert client.operations == COLD_OPS + WARM_OPS


def test_contended_widths_fire_busy_retries(sweep):
    """>= 2 concurrent writers on one WAL file must collide at least
    once across the whole sweep — the accounting the read-only era
    could never exercise."""
    if not all(point["executed_parallel"] for _, point in sweep[1:]):
        pytest.skip("worker processes unavailable in this environment")
    contended = sum(point["busy_retries"] for _, point in sweep[1:])
    assert contended > 0
