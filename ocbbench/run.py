"""Run one OCB benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 ocbbench/run.py --workload traverse --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's layers and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table, every metric this run computed, and the run's
provenance.  The exit code is 0 when every output check passed, 1 when
one failed (or nothing could be measured) and 2 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Op classes whose median latency is reported where they occur.
OP_CLASSES = ("set", "simple", "hierarchy", "stochastic", "range_lookup",
              "sequential_scan", "insert", "update", "delete")

#: Traced runs fail their self-check when the layers' self times miss
#: this share of the ops' wall time measured around them.  On traverse,
#: where the harness only draws ops, time left in the harness's own
#: frames counts as missed too: a layer that is not wrapped lands there.
MAX_ATTRIBUTION_GAP_PCT = 5.0


def quantile(values, share: float) -> float:
    """Harrell-Davis estimate of the *share* quantile of *values*.

    A weighted mean of the order statistics, weighted by the Beta((n+1)
    share, (n+1)(1-share)) density over each one's rank interval.  A
    nearest-rank quantile jumps between neighbouring samples where a mix
    leaves a gap, as cluster's pooled runs before and after clustering
    do: its ``set_p50_ms`` spread 12% between quartiles on identical
    work.  This estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * share, (n + 1) * (1 - share)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [math.exp((a - 1) * math.log(t) + (b - 1) * math.log(1 - t)
                        - log_beta)
               for t in ((i + 0.5) / n for i in range(n))]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def provenance(seed: int, traced: bool, workload: str) -> dict:
    """Where and on what this run happened."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    import sqlite3
    return {"workload": workload, "seed": seed, "trace": traced,
            "git_rev": _git_rev(), "source_sha256": digest.hexdigest(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version,
            "platform": platform.platform()}


def _git_rev():
    """The checked-out commit, or None outside a git checkout.

    ``--git-dir`` keeps git from finding a repository above ROOT.
    """
    try:
        done = subprocess.run(
            ["git", f"--git-dir={os.path.join(ROOT, '.git')}", "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def ops_per_s(run) -> float:
    """Measured ops per second of measured-phase wall time.

    The phase's wall time, less the host-speed kernel's runs, is stated
    at the reference speed by the ops' time-weighted mean speed factor.
    """
    rec = run.recorder
    return rec.ops / (run.phase_wall * rec.busy / rec.raw_busy)


def end_to_end(run) -> dict:
    """Untraced metrics: every end-to-end metric plus the op-class
    medians that only some workloads have."""
    rec = run.recorder
    walls = [wall for per_class in rec.walls.values() for wall in per_class]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in run.setups),
        "ops_per_s": ops_per_s(run),
        "op_p90_ms": quantile(walls, 0.90) * 1e3,
        "peak_rss_mb": run.peak_rss_mb,
        "stored_bytes_per_object": run.stored_bytes_per_object,
    }
    metrics.update(op_medians(run))
    return metrics


def op_medians(run) -> dict:
    """Median latency of every op class the workload ran, and reorg_s."""
    medians = {f"{kind}_p50_ms": quantile(walls, 0.5) * 1e3
               for kind, walls in run.recorder.walls.items()
               if kind in OP_CLASSES}
    if run.extra.get("reorg_s"):
        medians["reorg_s"] = statistics.median(run.extra["reorg_s"])
    return medians


def per_layer(run) -> dict:
    """Traced metrics, each divided by the measured ops or txns.

    Layer self times are scaled to the reference host speed by the
    median factor of the measured ops.
    """
    rec = run.recorder
    clock = run.layers
    ops = rec.ops
    txns = max(rec.transactions, 1)
    factor = statistics.median(rec.factors)
    ms = lambda layer: (clock.self_s.get(layer, 0.0)  # noqa: E731
                        * factor * 1e3 / ops)
    reads = ("SQLiteBackend.read_object", "SQLiteBackend.read_many",
             "SQLiteBackend.traverse_refs_many", "SQLiteBackend.current_order")
    writes = ("SQLiteBackend.write_object", "SQLiteBackend.write_many",
              "SQLiteBackend.insert_object", "SQLiteBackend.delete_object",
              "SQLiteBackend.flush")
    decodes = [f"{module}.{name}"
               for module in ("repro.backends.sqlite", "repro.store.storage")
               for name in ("decode_object", "decode_object_lazy")]
    accesses = clock.count("Session.access") + clock.count("Session.touch")
    engine_reads = sum(clock.count(key, parent)
                       for key in ("SQLiteBackend.read_object",
                                   "ObjectStore.read_object")
                       for parent in ("Session.access", "Session.touch"))
    served = accesses - engine_reads
    prefetched = clock.row_count("SQLiteBackend.read_many",
                                 "Session.prefetch")
    counters = run.engine_counters
    median = lambda key: statistics.median(  # noqa: E731
        run.extra[key]) if run.extra.get(key) else 0.0
    inside = sum(seconds for layer, seconds in clock.self_s.items()
                 if layer != "phase")
    metrics = {
        "generation.generate_s": statistics.median(
            s["generate_s"] for s in run.setups),
        "backends.bulk_load_s": statistics.median(
            s.get("bulk_load_s", 0.0) for s in run.setups),
        "backends.read_ms_per_op": ms("backends.read"),
        "backends.read_calls_per_op":
            sum(clock.count(key) for key in reads) / ops,
        "backends.rows_read_per_op":
            (clock.count("SQLiteBackend.read_object")
             + sum(clock.row_count(key) for key in reads[1:])) / ops,
        "backends.round_trips_per_op":
            counters.get("sql_round_trips", 0) / ops,
        "backends.write_ms_per_op": ms("backends.write"),
        "backends.write_calls_per_op":
            sum(clock.count(key) for key in writes) / ops,
        "backends.busy_retries": counters.get("busy_retries", 0),
        "serializer.decode_ms_per_op": ms("serializer.decode"),
        "serializer.records_decoded_per_op":
            sum(clock.count(key) for key in decodes) / ops,
        "serializer.encode_ms_per_op": ms("serializer.encode"),
        "session.self_ms_per_op": ms("session"),
        "session.prefetch_hit_ratio": served / accesses if accesses else 0.0,
        "session.prefetch_waste_ratio":
            (prefetched - served) / prefetched if prefetched else 0.0,
        "transactions.self_ms_per_txn":
            clock.self_s.get("transactions", 0.0) * factor * 1e3 / txns,
        "transactions.visits_per_txn": rec.visits / txns,
        "scenario.harness_ms_per_op": ms("scenario"),
        "scenario.build_executors_s": statistics.median(
            s.get("build_executors_s", 0.0) for s in run.setups),
        "scenario.draw_ms_per_op": ms("scenario.draw"),
        "scenario.read_misses": rec.read_misses,
        "scenario.write_conflicts": rec.write_conflicts,
        "scenario.graph_inconsistencies": run.graph_inconsistencies,
        "store.read_ms_per_op": ms("store.read"),
        "store.evict_ms_per_op": ms("store.evict"),
        "store.page_reads_per_txn": rec.page_reads / txns,
        "store.buffer_hit_ratio": rec.buffer_hits / rec.buffer_accesses
            if rec.buffer_accesses else 0.0,
        "store.reorganize_s": median("store.reorganize_s"),
        "clustering.observe_ms_per_op": ms("clustering.observe"),
        "clustering.placement_s": median("clustering.placement_s"),
        "clustering.ios_before": run.extra.get("clustering.ios_before", 0.0),
        "clustering.ios_after": run.extra.get("clustering.ios_after", 0.0),
        "clustering.overhead_ios":
            run.extra.get("clustering.overhead_ios", 0),
        "trace.ops_per_s": ops_per_s(run),
        "trace.attribution_gap_pct":
            100.0 * (run.outside_wall - inside) / run.outside_wall,
        "trace.harness_share_pct":
            100.0 * clock.self_s.get("scenario", 0.0) / run.outside_wall,
    }
    medians = op_medians(run)
    metrics.update({name: medians.get(name, 0.0) for name in
                    [f"{kind}_p50_ms" for kind in OP_CLASSES] + ["reorg_s"]})
    return metrics


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"ocbbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"ocbbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_workload
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    traced = bool(args.trace)
    declared = declared_metrics()
    units = {**declared["end_to_end"], **declared["per_layer"]}

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, traced,
                           workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not all(run.recorder.walls.get(kind) for kind in ("set", "simple")):
        for failure in run.failures:
            print(f"ocbbench: {failure}", file=sys.stderr)
        print("ocbbench: no set or simple op completed; nothing to report",
              file=sys.stderr)
        return 1
    computed = per_layer(run) if traced else end_to_end(run)
    if traced:
        missed = computed["trace.attribution_gap_pct"]
        if args.workload == "traverse":
            missed += computed["trace.harness_share_pct"]
        if missed > MAX_ATTRIBUTION_GAP_PCT:
            run.failures.append(f"layer self times miss {missed:.2f}% of "
                                f"op wall time")
    attempted = len(run.recorder.logical)
    computed["failed_ops_ratio"] = run.failed / max(attempted, 1)

    factors = run.recorder.factors
    print(f"workload {args.workload}: {run.recorder.ops} measured ops in "
          f"{run.raw_wall:.2f} s ({run.recorder.ops / run.raw_wall:.4g} "
          f"ops/s as timed), {attempted} attempted, {run.failed} failed; "
          f"host speed factor median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}-{max(factors):.3f}")
    for name, value in computed.items():
        print(f"  {name:38s} {value:14.6g} {units.get(name, 'ratio')}")
    for failure in run.failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({"provenance": provenance(args.seed, traced,
                                               args.workload)}))
    result = {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": computed[name], "unit": unit}
                    for name, unit in declared[
                        "per_layer" if traced else "end_to_end"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
