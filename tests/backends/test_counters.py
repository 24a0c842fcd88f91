"""One engine-counter record: every engine reports it, every report
merges it the same way.

For each registered engine, ``stats()`` carries every
:class:`EngineCounters` field with the value ``counters()`` returns,
``reset_stats()`` zeroes them all, and in every scenario report the
top-level counters are the sum of the per-client ones — in-process,
open-loop and as (sequential-fallback) worker processes.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.backends import create_backend
from repro.backends.base import EngineCounters
from repro.backends.registry import backend_names
from repro.core.loadgen import OpenLoopRunner
from repro.core.presets import scenario_preset
from repro.core.scenario import ScenarioRunner
from repro.parallel.spec import ParallelConfig

ENGINES = backend_names()
COUNTERS = tuple(EngineCounters().to_dict())


def _loaded(name, database):
    engine = create_backend(name)
    database.load_into(engine)
    engine.reset_stats()
    return engine


def _exercise(engine, database):
    oids = sorted(database.objects)[:20]
    engine.read_many(oids)
    engine.traverse_refs_many(oids)
    engine.write_many([database.to_record(oid) for oid in oids[:5]])
    engine.flush()


def _scenario(name, **overrides):
    return dataclasses.replace(scenario_preset("mixed_oltp"), backend=name,
                               clients=2, cold_ops=2, warm_ops=10, seed=5,
                               **overrides)


def _assert_top_level_is_the_client_sum(document):
    for counter in COUNTERS:
        per_client = [client[counter] for client in document["per_client"]]
        assert document[counter] == sum(per_client), counter


@pytest.mark.parametrize("name", ENGINES)
class TestEngineCounters:
    def test_stats_carry_every_counter(self, name, small_database):
        engine = _loaded(name, small_database)
        _exercise(engine, small_database)
        stats = engine.stats()
        counters = engine.counters()
        # 20 reads, 20 structure lookups, 5 writes — each counted once.
        assert counters.object_accesses == 45
        assert engine.snapshot().object_accesses == 45
        for counter, value in counters.to_dict().items():
            assert stats[counter] == value, counter
        engine.close()

    def test_reset_stats_zeroes_every_counter(self, name, small_database):
        engine = _loaded(name, small_database)
        _exercise(engine, small_database)
        engine.reset_stats()
        assert engine.counters() == EngineCounters()
        assert all(engine.stats()[counter] == 0 for counter in COUNTERS)
        engine.close()

    def test_interleaved_report_merges_client_counters(self, name,
                                                       small_database):
        engine = _loaded(name, small_database)
        report = ScenarioRunner(small_database, _scenario(name),
                                store=engine).run()
        document = report.to_dict()
        _assert_top_level_is_the_client_sum(document)
        # One shared engine: the whole record is attributed to client 0.
        assert report.clients[0].counters == engine.counters()
        assert report.counters == engine.counters()
        engine.close()

    def test_open_loop_report_merges_client_counters(self, name,
                                                     small_database):
        engine = _loaded(name, small_database)
        report = OpenLoopRunner(small_database, _scenario(name), rate=5000.0,
                                store=engine).run().scenario
        _assert_top_level_is_the_client_sum(report.to_dict())
        assert report.counters == engine.counters()
        engine.close()

    def test_process_report_merges_worker_counters(self, name,
                                                   small_database):
        # The sequential fallback runs the workers in this process, on
        # the database object itself: give the mutating mix a copy.
        report = ScenarioRunner(copy.deepcopy(small_database),
                                _scenario(name)) \
            .run_processes(config=ParallelConfig(parallel=False))
        document = report.to_dict()
        _assert_top_level_is_the_client_sum(document)
        assert document["object_accesses"] > 0
        assert all(client.counters.object_accesses > 0
                   for client in report.clients)


def test_sharded_busy_retries_are_charged_to_the_sharded_engine(tmp_path):
    """Per-op retry deltas read the engine's ``busy_retries`` attribute:
    a sharded engine's shard connections charge their retries to it."""
    import sqlite3

    from repro.backends.sharded import ShardedSQLiteBackend
    from repro.errors import BackendError
    from repro.store.serializer import StoredObject

    engine = ShardedSQLiteBackend(path=str(tmp_path), shards=2,
                                  journal_mode="WAL", busy_timeout_ms=50)
    engine.bulk_load([StoredObject(oid=oid, cid=1, filler=16)
                      for oid in range(1, 5)])
    holder = sqlite3.connect(engine.shard_path(0))
    holder.execute("BEGIN IMMEDIATE")
    try:
        with pytest.raises(BackendError, match="locked"):
            engine.write_object(StoredObject(oid=2, cid=5, filler=16))
    finally:
        holder.rollback()
        holder.close()
    assert engine.busy_retries > 0
    assert engine.busy_wait_seconds > 0.0
    assert engine.counters().busy_retries == engine.busy_retries
    assert engine.stats()["busy_retries"] == engine.busy_retries
    engine.close()
