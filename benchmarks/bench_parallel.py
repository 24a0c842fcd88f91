"""Throughput-scaling benchmark: worker processes on file-backed SQLite.

The process-parallel companion to ``bench_backends.py`` — one generated
database, one seed, executed at 1/2/4/8 worker processes against a
shared WAL SQLite file.  Each point reports aggregate throughput,
merged warm latency tails and the contention counters; the sweep is
emitted both as the ASCII scaling table and as one schema-versioned
``BENCH`` document (kind ``parallel_scaling``, cells =
:class:`~repro.reporting.scaling.ScalingPoint` dicts — the unified
shape of :mod:`repro.obs.results`, see ``docs/bench_schema.md``).

A second sweep measures the sharded engine against that single-WAL
ceiling (kind ``shard_scaling``): the same database and seed run as a
lane-partitioned write-heavy scenario on single-file ``sqlite`` and on
``sharded-sqlite`` with ``shards == workers``, side by side at every
width.  The database is generated with ``MAXNREF = 0`` so every update
is a pure home-lane write — the configuration that isolates the WAL
write path itself from cross-shard graph maintenance (which the
``remote_writes`` counter prices separately, see the Sharding section
of the README).

Runs as a plain pytest module (no pytest-benchmark required)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q

or as a script that persists the document::

    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --backend sharded-sqlite --out BENCH_shards.json

Note: speedup depends on the host's CPU count — on a single-core
runner the curve is flat and that is the honest result; the assertions
therefore pin correctness (transaction counts, WAL mode, percentile
coverage), never scaling factors.  The host-independent signal of the
shard sweep is contention itself: with aligned lanes the sharded
engine's ``busy_retries`` collapse to zero at every width while the
single file's climb with the worker count.
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
from repro.core.presets import (
    default_database_parameters,
    default_workload_parameters,
)
from repro.core.scenario import (
    MixEntry,
    Scenario,
    ScenarioRunner,
    WorkloadMix,
)
from repro.parallel import ParallelConfig, ParallelRunner
from repro.reporting import render_scaling_sweep, summarize_parallel_run
from repro.reporting.tables import render_table

#: Scaled-down defaults: 2 000 objects; 3 cold + 30 warm txns per worker.
DB_SCALE = 0.1
SEED = 19980323  # EDBT '98.
WORKERS = (1, 2, 4, 8)
COLD_N = 3
HOT_N = 30

#: Shard-sweep widths; every sharded point runs ``shards == workers``.
SHARD_WORKERS = (1, 2, 4)
SHARD_COLD_OPS = 5
SHARD_WARM_OPS = 300

#: The write-heavy shard mix: 90% reference-free updates (pure
#: home-lane writes on a MAXNREF=0 database), 10% partition-local
#: range reads.
SHARD_MIX = WorkloadMix(name="update_storm", entries=(
    MixEntry("update", weight=0.9),
    MixEntry("range_lookup", weight=0.1, range_width=5),
))


def shard_database():
    """The shard-sweep database: scaled defaults with ``MAXNREF = 0``."""
    params = replace(
        default_database_parameters(scale=DB_SCALE, seed=SEED), max_nref=0)
    database, _ = generate_database(params)
    return database


def run_shard_cell(database, backend: str, workers: int) -> dict:
    """One (backend, workers) cell of the shard sweep, as a flat dict."""
    scenario = Scenario(
        mix=SHARD_MIX, clients=workers, cold_ops=SHARD_COLD_OPS,
        warm_ops=SHARD_WARM_OPS, backend=backend, seed=SEED)
    sharded = backend == "sharded-sqlite"
    config = ParallelConfig(busy_timeout_ms=5000,
                            shards=workers if sharded else None)
    report = ScenarioRunner(database, scenario).run_processes(config=config)
    summary = report.to_dict()
    merged = report.merged_warm.wall_percentiles()
    return {
        "backend": backend,
        "workers": workers,
        "shards": workers if backend == "sharded-sqlite" else None,
        "mode": summary["mode"],
        "executed_parallel": summary["executed_parallel"],
        "operations": summary["operations"],
        "write_operations": summary["write_operations"],
        "throughput": summary["throughput"],
        "elapsed_seconds": summary["elapsed_seconds"],
        "wall_p50_ms": merged.p50 * 1e3,
        "wall_p95_ms": merged.p95 * 1e3,
        "wall_p99_ms": merged.p99 * 1e3,
        "busy_retries": summary["busy_retries"],
        "busy_wait_seconds": summary["busy_wait_seconds"],
        "remote_reads": summary["remote_reads"],
    }


def run_shard_sweep(database=None) -> list:
    """Both backends at every width, single-file first at each."""
    if database is None:
        database = shard_database()
    cells = []
    for workers in SHARD_WORKERS:
        for backend in ("sqlite", "sharded-sqlite"):
            cells.append(run_shard_cell(database, backend, workers))
    return cells


def shard_scaling_document(cells) -> dict:
    from repro.obs import results

    return results.build_document(
        kind="shard_scaling",
        cells=cells,
        config={"db_scale": DB_SCALE, "seed": SEED, "max_nref": 0,
                "mix": SHARD_MIX.name, "workers": list(SHARD_WORKERS),
                "cold_ops": SHARD_COLD_OPS, "warm_ops": SHARD_WARM_OPS,
                "shards": "workers"},
        name="bench_parallel_shards")


def render_shard_sweep(cells) -> str:
    """The side-by-side A/B table, one row per (backend, width)."""
    rows = []
    for cell in cells:
        rows.append([
            cell["workers"],
            cell["backend"],
            cell["shards"] if cell["shards"] is not None else "-",
            cell["operations"],
            cell["throughput"],
            cell["wall_p95_ms"],
            cell["busy_retries"],
            cell["busy_wait_seconds"],
        ])
    return render_table(
        ["workers", "backend", "shards", "ops", "ops/s", "P95 (ms)",
         "busy retries", "busy wait (s)"],
        rows, title="Sharded vs single-WAL write scaling "
                    "(update_storm, shards == workers)", precision=3)


@pytest.fixture(scope="module")
def sweep():
    database, _ = generate_database(
        default_database_parameters(scale=DB_SCALE, seed=SEED))
    base = default_workload_parameters(scale=0.02)
    config = ParallelConfig(busy_timeout_ms=5000)
    points = []
    for workers in WORKERS:
        params = replace(base, clients=workers, cold_n=COLD_N, hot_n=HOT_N)
        report = ParallelRunner(database, "sqlite", params,
                                config=config).run()
        points.append((report, summarize_parallel_run(report)))
    return points


def test_scaling_table_and_json(sweep):
    from repro.obs import results

    points = [point for _, point in sweep]
    term_print(render_scaling_sweep(
        points, title="Throughput scaling on shared WAL SQLite"))
    document = results.build_document(
        kind="parallel_scaling",
        cells=[point.to_dict() for point in points],
        config={"db_scale": DB_SCALE, "seed": SEED,
                "workers": list(WORKERS), "cold_n": COLD_N, "hot_n": HOT_N},
        name="bench_parallel")
    term_print(json.dumps(document, indent=2))
    assert len(points) == len(WORKERS)
    assert results.validate_document(document) is document


def test_every_point_ran_its_full_workload(sweep):
    for report, point in sweep:
        assert point.transactions == point.workers * (COLD_N + HOT_N)
        assert point.throughput > 0.0
        assert report.merged_warm.transaction_count == \
            point.workers * HOT_N


def test_shared_wal_storage_at_every_width(sweep):
    for report, point in sweep:
        assert point.mode == "shared"
        for worker in report.workers:
            assert worker.backend_stats["journal_mode"] == "wal"


def test_latency_tails_ordered(sweep):
    for _, point in sweep:
        assert 0.0 < point.warm_p50_ms <= point.warm_p95_ms \
            <= point.warm_p99_ms


def test_logical_workload_independent_of_width(sweep):
    """Worker 0's logical metrics are identical at every sweep width —
    the per-client RNG substream never sees the other processes."""
    signatures = []
    for report, _ in sweep:
        worker0 = report.workers[0].report
        totals = worker0.warm.totals
        signatures.append((totals.count, totals.visits,
                           totals.distinct_objects))
    assert len(set(signatures)) == 1, signatures


# ---------------------------------------------------------------------- #
# Shard sweep: sharded-sqlite vs the single-WAL write ceiling
# ---------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def shard_sweep():
    return run_shard_sweep()


def _by_backend(cells):
    split = {"sqlite": {}, "sharded-sqlite": {}}
    for cell in cells:
        split[cell["backend"]][cell["workers"]] = cell
    return split


def test_shard_scaling_table_and_document(shard_sweep):
    from repro.obs import results

    term_print(render_shard_sweep(shard_sweep))
    document = shard_scaling_document(shard_sweep)
    term_print(json.dumps(document, indent=2))
    assert len(document["cells"]) == 2 * len(SHARD_WORKERS)
    assert results.validate_document(document) is document


def test_both_backends_run_the_same_workload(shard_sweep):
    """Same mix, seed and width → identical logical op counts."""
    split = _by_backend(shard_sweep)
    for workers in SHARD_WORKERS:
        single, sharded = split["sqlite"][workers], \
            split["sharded-sqlite"][workers]
        assert single["operations"] == sharded["operations"] \
            == workers * (SHARD_COLD_OPS + SHARD_WARM_OPS)
        assert single["write_operations"] == sharded["write_operations"]
        assert single["write_operations"] > 0


def test_shard_affinity_eliminates_write_contention(shard_sweep):
    """The host-independent claim: with ``shards == workers`` every
    update lands in its worker's home shard, so the sharded engine
    never waits on a write lock — while the single file's collisions
    only ever grow with width.  (Throughput ratios are reported, not
    asserted: on a single-core host the wall-clock curve is flat and
    that is the honest result.)"""
    split = _by_backend(shard_sweep)
    for workers in SHARD_WORKERS:
        sharded = split["sharded-sqlite"][workers]
        single = split["sqlite"][workers]
        assert sharded["busy_retries"] == 0
        assert sharded["busy_wait_seconds"] == 0.0
        assert sharded["busy_retries"] <= single["busy_retries"]
        # A perfectly partitioned mix also never reads off-shard.
        assert sharded["remote_reads"] == 0


def test_shard_cells_executed_parallel(shard_sweep):
    for cell in shard_sweep:
        assert cell["mode"] == "shared"
        if cell["workers"] > 1:
            assert cell["executed_parallel"]


# ---------------------------------------------------------------------- #
# Script entry point
# ---------------------------------------------------------------------- #

def main(argv=None) -> int:
    """Persist a sweep as a ``BENCH`` document without going via pytest."""
    import argparse

    from repro.obs import results

    parser = argparse.ArgumentParser(
        description="process-parallel throughput benchmarks")
    parser.add_argument(
        "--backend", default="sqlite",
        choices=("sqlite", "sharded-sqlite"),
        help="'sqlite' runs the worker-count sweep on the shared WAL "
             "file (kind parallel_scaling); 'sharded-sqlite' runs the "
             "side-by-side shard sweep (kind shard_scaling)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="output path (default: BENCH_<date>.json)")
    parser.add_argument("--json", action="store_true",
                        help="print the document to stdout as well")
    args = parser.parse_args(argv)

    if args.backend == "sharded-sqlite":
        cells = run_shard_sweep()
        print(render_shard_sweep(cells))
        document = shard_scaling_document(cells)
    else:
        database, _ = generate_database(
            default_database_parameters(scale=DB_SCALE, seed=SEED))
        base = default_workload_parameters(scale=0.02)
        config = ParallelConfig(busy_timeout_ms=5000)
        points = []
        for workers in WORKERS:
            params = replace(base, clients=workers,
                             cold_n=COLD_N, hot_n=HOT_N)
            report = ParallelRunner(database, "sqlite", params,
                                    config=config).run()
            points.append(summarize_parallel_run(report))
        print(render_scaling_sweep(
            points, title="Throughput scaling on shared WAL SQLite"))
        document = results.build_document(
            kind="parallel_scaling",
            cells=[point.to_dict() for point in points],
            config={"db_scale": DB_SCALE, "seed": SEED,
                    "workers": list(WORKERS),
                    "cold_n": COLD_N, "hot_n": HOT_N},
            name="bench_parallel")
    written = results.write_document(document, path=args.out)
    print(f"bench_parallel: wrote {written}")
    if args.json:
        print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
