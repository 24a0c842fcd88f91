"""Decode-free fast-path benchmark: decoded vs lazy vs structure-only.

One generated database in a SQLite engine, and the same set of BFS
frontier expansions walked three ways:

* **decoded** — every frontier fetched with :meth:`read_many` and each
  record fully decoded with ``materialize()`` (refs *and* back_refs
  unpacked into a :class:`StoredObject`), the pre-fast-path cost;
* **lazy** — the same fetches as they come back from the engine:
  zero-copy records whose headers parse eagerly but whose reference
  vectors unpack only when the walk touches ``.refs`` (back_refs never);
* **structure** — no record fetch at all:
  :meth:`traverse_refs_many` answers each frontier from the blobs'
  reference vectors alone.

All three modes expand identical frontiers from identical roots (the
equivalence is asserted), so the wall-clock ratio is a pure decode-cost
measurement.  The run lands as one schema-versioned ``decode_fastpath``
document; ``BENCH_decode_baseline.json`` is the committed trajectory
the CI ``decode-smoke`` leg gates with ``ocb bench --compare``.

Runs as a plain pytest module (no pytest-benchmark required)::

    PYTHONPATH=src python -m pytest benchmarks/bench_decode.py -q

Set ``BENCH_DECODE_OUT=/path/to.json`` to persist the document (the CI
leg does, to feed the compare gate).  Wall-clock depends on the host —
assertions pin structure (identical visit sets, decode counters, the
structure path beating the decoded one), never a millisecond value.
"""

from __future__ import annotations

import json
import os
import time

import pytest

try:
    from conftest import term_print
except ImportError:
    def term_print(*args, **kwargs):
        print(*args, **kwargs)

from repro.backends.sqlite import SQLiteBackend
from repro.core.generation import generate_database
from repro.core.presets import default_database_parameters

#: Scaled-down database; the seed is the paper's conference date.
DB_SCALE = 0.1
SEED = 19980323  # EDBT '98.
WALKS = 50
DEPTH = 5
MAX_VISITS = 512


def _percentile(sorted_seconds, fraction):
    index = min(len(sorted_seconds) - 1,
                max(0, int(fraction * len(sorted_seconds))))
    return sorted_seconds[index] * 1e3


def _roots(database):
    """WALKS deterministic roots, spread across the oid space."""
    oids = sorted(database.objects)
    step = max(1, len(oids) // WALKS)
    return [oids[(i * step) % len(oids)] for i in range(WALKS)]


def _expand_decoded(backend, frontier, materialize):
    records = backend.read_many(frontier)
    if materialize:
        records = {oid: record.materialize()
                   for oid, record in records.items()}
    targets = []
    for oid in frontier:
        targets.extend(ref for ref in records[oid].refs if ref is not None)
    return targets


def _expand_structure(backend, frontier):
    answers = backend.traverse_refs_many(frontier)
    targets = []
    for oid in frontier:
        targets.extend(answers[oid])
    return targets


def _walk(backend, root, mode):
    """BFS to DEPTH (capped at MAX_VISITS); returns the visited set."""
    visited = {root}
    frontier = [root]
    for _ in range(DEPTH):
        if not frontier or len(visited) >= MAX_VISITS:
            break
        if mode == "structure":
            targets = _expand_structure(backend, frontier)
        else:
            targets = _expand_decoded(backend, frontier,
                                      materialize=(mode == "decoded"))
        frontier = []
        for target in targets:
            if len(visited) >= MAX_VISITS:
                break
            if target not in visited:
                visited.add(target)
                frontier.append(target)
    return visited


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    database, _ = generate_database(
        default_database_parameters(scale=DB_SCALE, seed=SEED))
    path = str(tmp_path_factory.mktemp("decode") / "bench.db")
    backend = SQLiteBackend(path=path)
    database.load_into(backend)
    roots = _roots(database)
    # One untimed warmup so every mode sees the same hot page cache.
    for root in roots:
        _walk(backend, root, "decoded")
    return backend, roots


@pytest.fixture(scope="module")
def frontiers(env):
    """Every frontier the WALKS walks expand, precomputed once.

    All three modes expand identical frontiers (the equivalence test
    pins it), so the sequence is mode-independent — and timing only the
    expansion of each precomputed frontier keeps the BFS bookkeeping
    (visited sets, frontier rebuilds, identical client-side work) out
    of the A/B entirely.  What remains per mode is exactly the cost the
    fast paths attack: the engine call plus reference extraction.
    """
    backend, roots = env
    sequences = []
    for root in roots:
        visited = {root}
        frontier = [root]
        for _ in range(DEPTH):
            if not frontier or len(visited) >= MAX_VISITS:
                break
            sequences.append(list(frontier))
            targets = _expand_structure(backend, frontier)
            frontier = []
            for target in targets:
                if len(visited) >= MAX_VISITS:
                    break
                if target not in visited:
                    visited.add(target)
                    frontier.append(target)
    return sequences


@pytest.fixture(scope="module")
def cells(env, frontiers):
    backend, _ = env
    measured = []
    for mode in ("decoded", "lazy", "structure"):
        backend.reset_stats()
        expansion_seconds = []
        targets_total = 0
        started = time.perf_counter()
        for frontier in frontiers:
            expansion_start = time.perf_counter()
            if mode == "structure":
                targets = _expand_structure(backend, frontier)
            else:
                targets = _expand_decoded(backend, frontier,
                                          materialize=(mode == "decoded"))
            expansion_seconds.append(time.perf_counter() - expansion_start)
            targets_total += len(targets)
        elapsed = time.perf_counter() - started
        stats = backend.stats()
        expansion_seconds.sort()
        measured.append({
            "key": f"sqlite/decode_walk/c1/{mode}",
            "backend": "sqlite",
            "scenario": "decode_walk",
            "clients": 1,
            "mode": mode,
            "operations": len(frontiers),
            "write_operations": 0,
            "targets": targets_total,
            "elapsed_seconds": elapsed,
            "throughput": len(frontiers) / elapsed if elapsed > 0 else 0.0,
            "wall_p50_ms": _percentile(expansion_seconds, 0.50),
            "wall_p95_ms": _percentile(expansion_seconds, 0.95),
            "wall_p99_ms": _percentile(expansion_seconds, 0.99),
            "records_decoded": int(stats["records_decoded"]),
            "decodes_avoided": int(stats["decodes_avoided"]),
        })
    return measured


def test_modes_visit_identical_sets(env):
    """The ratio only means something if the walks do the same work."""
    backend, roots = env
    for root in roots[:5]:
        decoded = _walk(backend, root, "decoded")
        assert _walk(backend, root, "lazy") == decoded
        assert _walk(backend, root, "structure") == decoded


def test_decode_counters_split_by_mode(cells):
    by_mode = {cell["mode"]: cell for cell in cells}
    # The engine hands both record modes the same lazy reads; only the
    # decoded walk then materializes them, client-side.
    assert by_mode["decoded"]["records_decoded"] == 0
    assert by_mode["decoded"]["decodes_avoided"] \
        == by_mode["lazy"]["decodes_avoided"]
    assert by_mode["lazy"]["records_decoded"] == 0
    assert by_mode["lazy"]["decodes_avoided"] > 0
    # Structure-only never touches a record blob at all.
    assert by_mode["structure"]["records_decoded"] == 0
    assert by_mode["structure"]["decodes_avoided"] > 0
    assert by_mode["decoded"]["targets"] == by_mode["lazy"]["targets"] \
        == by_mode["structure"]["targets"]


def test_structure_walk_beats_the_decoded_walk(cells):
    """The structural assertion (the committed baseline pins >= 2x; a
    loaded CI host still has to show the direction)."""
    by_mode = {cell["mode"]: cell for cell in cells}
    ratio = (by_mode["structure"]["throughput"]
             / by_mode["decoded"]["throughput"])
    term_print(f"structure/decoded throughput ratio: {ratio:.2f}x")
    assert ratio > 1.0


def test_document_round_trips_and_persists(cells):
    from repro.obs import results
    document = results.build_document(
        kind="decode_fastpath",
        cells=cells,
        config={"db_scale": DB_SCALE, "seed": SEED, "walks": WALKS,
                "depth": DEPTH, "max_visits": MAX_VISITS,
                "backend": "sqlite"},
        name="bench_decode")
    term_print(json.dumps(document, indent=2))
    assert results.validate_document(document) is document
    out = os.environ.get("BENCH_DECODE_OUT")
    if out:
        written = results.write_document(document, path=out)
        term_print(f"bench_decode: wrote {written}")
