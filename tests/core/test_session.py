"""The unified execution kernel: construction, access, batching, metrics."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backends import MemoryBackend, SQLiteBackend, SimulatedBackend
from repro.clustering.base import NoClustering
from repro.core.presets import scenario_preset
from repro.core.scenario import ScenarioCollector, ScenarioRunner
from repro.core.session import Session
from repro.core.transactions import AccessContext
from repro.errors import BackendError, WorkloadError
from repro.store.storage import StoreConfig


def loaded_sqlite(database):
    backend = SQLiteBackend(page_size=512, cache_pages=16)
    records = database.to_records()
    backend.bulk_load(records.values(), order=sorted(records))
    backend.reset_stats()
    return backend


class TestConstruction:
    def test_access_context_is_the_session(self):
        # The historical name must keep working.
        assert AccessContext is Session

    def test_wraps_classic_store(self, loaded_store):
        session = Session(loaded_store)
        assert session.object_count == loaded_store.object_count
        assert not session.batch_reads

    def test_for_database_with_backend_name(self, small_database):
        session = Session.for_database(small_database, "memory")
        assert session.backend_name == "memory"
        assert session.object_count == small_database.num_objects
        # Counters were reset after the bulk load.
        assert session.snapshot().object_accesses == 0
        session.close()

    def test_for_database_default_is_simulated(self, small_database):
        session = Session.for_database(
            small_database, store_config=StoreConfig(page_size=512,
                                                     buffer_pages=8))
        assert session.backend_name == "simulated"
        session.close()

    def test_for_database_unknown_name(self, small_database):
        with pytest.raises(BackendError):
            Session.for_database(small_database, "no-such-engine")

    def test_require_loaded(self):
        session = Session(MemoryBackend())
        with pytest.raises(WorkloadError):
            session.require_loaded()


class TestBatching:
    def test_auto_detects_sqlite(self, small_database):
        session = Session(loaded_sqlite(small_database))
        assert session.batch_reads
        assert session.batch_writes
        session.close()

    def test_auto_detects_non_batched(self, small_database):
        session = Session.for_database(small_database, "memory")
        assert not session.batch_reads
        session.close()

    def test_forced_off(self, small_database):
        session = Session(loaded_sqlite(small_database), batch=False)
        assert not session.batch_reads
        session.close()

    def test_prefetch_serves_access_without_round_trips(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oids = sorted(small_database.objects)[:10]
        fetched = session.prefetch(oids)
        assert fetched == len(oids)
        trips = backend.sql_round_trips
        for oid in oids:
            session.access(oid)
        assert backend.sql_round_trips == trips  # All served from cache.
        session.close()

    def test_prefetch_skips_cached(self, small_database):
        session = Session(loaded_sqlite(small_database))
        oids = sorted(small_database.objects)[:5]
        assert session.prefetch(oids) == 5
        assert session.prefetch(oids) == 0
        session.close()

    def test_prefetch_noop_without_batching(self, loaded_store,
                                            small_database):
        session = Session(loaded_store)
        assert session.prefetch(sorted(small_database.objects)[:5]) == 0

    def test_prefetched_record_consumed_by_first_serve(self, small_database):
        # Repeat visits are charged to the engine, exactly as without
        # batching (OO1 heritage: duplicate visits count).
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oid, other = sorted(small_database.objects)[:2]
        session.prefetch([oid, other])
        trips = backend.sql_round_trips
        session.access(oid)
        assert backend.sql_round_trips == trips       # Served from cache.
        session.access(oid)
        assert backend.sql_round_trips == trips + 1   # Cache was consumed.
        session.close()

    def test_single_missing_oid_is_left_to_a_point_read(self,
                                                         small_database):
        # A one-element IN query costs more than the point read access()
        # issues anyway, so prefetch does not reach the engine for it.
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        first, second = sorted(small_database.objects)[:2]
        assert session.prefetch([first, first]) == 0
        assert backend.sql_round_trips == 0
        assert session.prefetch([first, second]) == 2
        assert session.prefetch([first, second]) == 0  # Both cached.
        assert backend.sql_round_trips == 1
        session.close()

    def test_scan_cache_stays_bounded(self, small_database):
        from repro.core.generic_ops import GenericOperationsRunner
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        runner = GenericOperationsRunner(small_database, session)
        runner.sequential_scan()
        assert not session._prefetched  # Every chunk record was consumed.
        session.close()

    def test_end_transaction_clears_cache(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oid, other = sorted(small_database.objects)[:2]
        assert session.prefetch([oid, other]) == 2
        session.end_transaction()
        trips = backend.sql_round_trips
        session.access(oid)
        assert backend.sql_round_trips == trips + 1  # Cache was dropped.
        session.close()

    def test_write_invalidates_prefetched_record(self, small_database):
        session = Session(loaded_sqlite(small_database))
        records = small_database.to_records()
        oid, other = sorted(records)[:2]
        assert session.prefetch([oid, other]) == 2
        changed = records[oid].with_back_refs(((999, 0),))
        session.write_record(changed)
        assert session.access(oid) == changed
        session.close()



class RecordingPolicy(NoClustering):
    """Logs every observation the session hands the policy."""

    def __init__(self):
        self.seen = []

    def observe_access(self, source, target, ref_type=None):
        self.seen.append((source, target, ref_type))


class OpLog(ScenarioCollector):
    """A collector that also logs each op's logical outcome, in order."""

    def __init__(self, phase_name):
        super().__init__(phase_name)
        self.log = []

    def record_transaction(self, result, delta, wall_seconds, retries=0):
        super().record_transaction(result, delta, wall_seconds, retries)
        self.log.append((result.kind.value, result.visits))

    def record_operation(self, result, retries=0):
        super().record_operation(result, retries)
        self.log.append((result.operation.value, result.objects_touched))


def oltp_op_log(database, backend, **options):
    """Op-for-op outcomes of a 2-client partitioned ``mixed_oltp`` run."""
    scenario = replace(scenario_preset("mixed_oltp"), clients=2,
                       backend=backend, backend_options=options, seed=7)
    assert scenario.partitioned
    runner = ScenarioRunner(database, scenario)
    engine = runner._resolve_engine()
    executors = runner.build_executors(engine)
    logs = [OpLog("warm") for _ in executors]
    for _ in range(60):
        for executor, log in zip(executors, logs):
            executor.step(log)
    engine.close()
    return [log.log for log in logs]


class TestScan:
    def scan_engines(self, database, store):
        """SQLite, plus both cost-model surfaces reorganized out of oid
        order so physical order is not oid order."""
        records = database.to_records()
        simulated = SimulatedBackend(
            store_config=StoreConfig(page_size=512, buffer_pages=16))
        simulated.bulk_load(records.values(), order=sorted(records))
        for engine in (simulated, store):
            engine.reorganize(sorted(records, reverse=True))
        return {"sqlite": loaded_sqlite(database), "classic": store,
                "simulated": simulated}

    def test_policy_sees_each_record_in_physical_order(self, small_database,
                                                      loaded_store):
        for name, engine in self.scan_engines(small_database,
                                              loaded_store).items():
            policy = RecordingPolicy()
            session = Session(engine, policy=policy)
            expected = [oid for oid in engine.current_order()
                        if oid % 2 == 1]
            assert session.scan(2, 1) == len(expected), name
            assert policy.seen == [(None, oid, None) for oid in expected], \
                name

    def test_whole_extent_by_default(self, small_database):
        session = Session(loaded_sqlite(small_database))
        assert session.scan() == small_database.num_objects
        session.close()

    def test_prefetch_cache_stays_empty(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        assert session.batch_reads
        session.scan(3, 0)
        assert not session._prefetched
        assert backend.sql_round_trips == 1
        session.close()

    def test_partitioned_oltp_matches_memory(self, small_database,
                                             tmp_path):
        """File-backed SQLite's engine-side lane filter touches exactly
        what the memory engine's read loop touches, op for op."""
        on_sqlite = oltp_op_log(small_database, "sqlite",
                                path=str(tmp_path / "oltp.db"))
        on_memory = oltp_op_log(small_database, "memory")
        scans = [outcome for log in on_memory for outcome in log
                 if outcome[0] == "sequential_scan"]
        assert scans
        assert on_sqlite == on_memory


class TestMetricsCharging:
    def test_measure_span(self, loaded_store, small_database):
        session = Session(loaded_store)
        oids = sorted(small_database.objects)[:5]
        with session.measure() as span:
            for oid in oids:
                session.access(oid)
        assert span.delta is not None
        assert span.delta.object_accesses == 5
        assert span.wall > 0.0

    def test_charge_think_time(self, loaded_store):
        session = Session(loaded_store)
        before = loaded_store.clock.now
        session.charge_think_time(0.5)
        assert loaded_store.clock.now == pytest.approx(before + 0.5)

    def test_zero_think_time_is_free(self, loaded_store):
        session = Session(loaded_store)
        before = loaded_store.clock.now
        session.charge_think_time(0.0)
        assert loaded_store.clock.now == before


class TestLifecycle:
    def test_drop_caches_reports_honestly(self, small_database):
        config = StoreConfig(page_size=512, buffer_pages=8)
        records = small_database.to_records()

        for factory, expected in (
                (lambda: SimulatedBackend(store_config=config), True),
                (MemoryBackend, False),
                (lambda: SQLiteBackend(page_size=512, cache_pages=8), True)):
            backend = factory()
            backend.bulk_load(records.values(), order=sorted(records))
            session = Session(backend)
            assert session.drop_caches() is expected
            # The engine still answers reads after a cache drop.
            oid = sorted(records)[0]
            assert session.access(oid) == records[oid]
            session.close()

    def test_drop_caches_on_classic_store(self, loaded_store):
        assert Session(loaded_store).drop_caches() is True

    def test_flush_and_reset(self, loaded_store, small_database):
        session = Session(loaded_store)
        session.access(sorted(small_database.objects)[0])
        session.flush()
        session.reset_stats()
        assert session.snapshot().object_accesses == 0


class TestPolicyOwnership:
    """A Session owns its policy; conflicting explicit policies error."""

    def test_workload_runner_rejects_conflicting_policy(self, small_database,
                                                        loaded_store):
        from repro.clustering.dstc import DSTCPolicy
        from repro.core.parameters import WorkloadParameters
        from repro.core.workload import WorkloadRunner
        session = Session(loaded_store)
        params = WorkloadParameters(cold_n=0, hot_n=1)
        with pytest.raises(WorkloadError, match="conflicting"):
            WorkloadRunner(small_database, session, params,
                           policy=DSTCPolicy())

    def test_generic_ops_rejects_conflicting_policy(self, small_database,
                                                    loaded_store):
        from repro.clustering.dstc import DSTCPolicy
        from repro.core.generic_ops import GenericOperationsRunner
        session = Session(loaded_store)
        with pytest.raises(WorkloadError, match="conflicting"):
            GenericOperationsRunner(small_database, session,
                                    policy=DSTCPolicy())

    def test_same_policy_instance_accepted(self, small_database,
                                           loaded_store):
        from repro.core.parameters import WorkloadParameters
        from repro.core.workload import WorkloadRunner
        from repro.clustering.base import NoClustering
        policy = NoClustering()
        session = Session(loaded_store, policy=policy)
        params = WorkloadParameters(cold_n=0, hot_n=1)
        runner = WorkloadRunner(small_database, session, params,
                                policy=policy)
        assert runner.policy is policy
