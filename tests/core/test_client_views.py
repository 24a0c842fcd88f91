"""Client views: flat database clones and incremental partition indexes.

A mutating client drives a private :meth:`OCBDatabase.clone` of the
generated graph, and keeps three sorted indexes over it (live oids,
owned oids, owned oids bucketed by ``attribute_of``) up to date as it
inserts and deletes.  These tests pin the indexes to a rebuild from the
view after every step, the range-lookup match list and the oid
allocation rule to the whole-view formulas they replaced, the clone's
independence from its source, and the private views of sequential
fallback workers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import OCBObject
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters
from repro.core.presets import scenario_preset
from repro.core.scenario import (
    MixEntry,
    Scenario,
    ScenarioRunner,
    WorkloadMix,
    attribute_of,
)
from repro.parallel import ParallelConfig

MUTATING_MIX = WorkloadMix(name="index-probe", entries=(
    MixEntry("insert", weight=0.3),
    MixEntry("update", weight=0.3),
    MixEntry("delete", weight=0.2),
    MixEntry("range_lookup", weight=0.1),
    MixEntry("sequential_scan", weight=0.1),
))


def make_database(num_objects=90, seed=41):
    params = DatabaseParameters(num_classes=5, max_nref=3, base_size=25,
                                num_objects=num_objects, seed=seed)
    database, _ = generate_database(params)
    return database


def make_executors(clients):
    scenario = Scenario(mix=MUTATING_MIX, clients=clients, cold_ops=0,
                        warm_ops=0, backend="memory", seed=5)
    runner = ScenarioRunner(make_database(), scenario)
    return runner.build_executors(runner._resolve_engine())


def old_next_oid(executor):
    """The allocation rule as a formula over the whole view."""
    floor = max(executor.view.objects, default=0) + 1
    if not executor.partitioned:
        return floor
    return floor + (executor.client_id - floor) % executor.total_clients


def old_matches(executor, low, width):
    """The range-lookup match list as a sweep of the whole view."""
    return [oid for oid in executor.view.objects
            if executor._owns(oid)
            and low <= attribute_of(oid) < low + width]


def assert_indexes_match_view(executor):
    live = sorted(executor.view.objects)
    owned = [oid for oid in live if executor._owns(oid)]
    buckets = [[] for _ in range(100)]
    for oid in owned:
        buckets[attribute_of(oid)].append(oid)
    assert executor._live_sorted() == live
    assert executor._owned_sorted() == owned
    assert executor._attribute_buckets() == buckets
    assert executor._next_oid() == old_next_oid(executor)


def recorded_prefetches(executor):
    """Wrap the executor's ``session.prefetch`` to record its arguments."""
    calls = []
    prefetch = executor.session.prefetch

    def spy(oids):
        calls.append(list(oids))
        return prefetch(oids)
    executor.session.prefetch = spy
    return calls


STEP = st.tuples(
    st.sampled_from(("insert", "update", "delete", "delete_top",
                     "range_lookup", "sequential_scan")),
    st.integers(min_value=0, max_value=2),     # which client
    st.integers(min_value=-12, max_value=105),  # range-lookup low
    st.integers(min_value=1, max_value=100))    # range-lookup width


class TestPartitionIndexes:
    @pytest.mark.parametrize("clients", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(STEP, min_size=1, max_size=30))
    def test_indexes_track_the_view(self, clients, steps):
        executors = make_executors(clients)
        assert all(executor.partitioned == (clients > 1)
                   for executor in executors)
        prefetches = [recorded_prefetches(executor)
                      for executor in executors]
        for executor in executors:
            assert_indexes_match_view(executor)
        for kind, client, low, width in steps:
            executor = executors[client % clients]
            calls = prefetches[client % clients]
            if kind == "insert":
                oid = executor._next_oid()
                executor.op_insert()
                assert oid in executor.view.objects
            elif kind == "update":
                executor.op_update()
            elif kind == "delete" and len(executor._owned_sorted()) > 1:
                executor.op_delete()
            elif kind == "delete_top" and len(executor._owned_sorted()) > 1:
                # Delete the view's largest oid when this client owns it:
                # the next insert may then take that oid again.
                top = max(executor.view.objects)
                if executor._owns(top):
                    executor.op_delete(top)
                    assert executor._next_oid() == old_next_oid(executor)
            elif kind == "range_lookup":
                expected = old_matches(executor, low, width)
                del calls[:]
                result = executor.op_range_lookup(low=low, width=width)
                assert calls == [expected]
                assert result.objects_touched == len(expected)
            elif kind == "sequential_scan":
                result = executor.op_sequential_scan()
                assert result.objects_touched == len(executor._owned_sorted())
            for each in executors:
                assert_indexes_match_view(each)

    def test_deleted_top_oid_is_taken_again(self):
        executor = make_executors(2)[1]
        executor.op_insert()
        top = max(executor.view.objects)
        assert executor._owns(top)
        executor.op_delete(top)
        assert executor._next_oid() == top == old_next_oid(executor)
        assert_indexes_match_view(executor)

    def test_drawn_range_lookup_matches_the_view_sweep(self):
        for executor in make_executors(2):
            calls = recorded_prefetches(executor)
            for _ in range(20):
                state = executor.rng.getstate()
                low = executor.rng.randint(0, 100 - 7)
                executor.rng.setstate(state)
                expected = old_matches(executor, low, 7)
                del calls[:]
                executor.op_range_lookup(width=7)
                assert calls == [expected]
                executor.op_insert()


class TestClone:
    def test_clone_equals_its_source(self):
        database = make_database()
        twin = database.clone()
        assert twin.to_records() == database.to_records()
        assert twin.catalog() == database.catalog()
        assert twin.tref_table() == database.tref_table()
        assert list(twin.objects) == list(database.objects)
        assert twin.parameters == database.parameters
        for descriptor in database.schema:
            twin_descriptor = twin.schema.get(descriptor.cid)
            assert twin_descriptor.iterator == descriptor.iterator
            assert twin_descriptor.instance_size == descriptor.instance_size
        twin.validate()

    def test_mutating_the_clone_leaves_the_source_unchanged(self):
        database = make_database()
        records = database.to_records()
        catalog = database.catalog()
        iterators = {descriptor.cid: list(descriptor.iterator)
                     for descriptor in database.schema}
        twin = database.clone()
        victim = max(twin.objects)
        for source, index in list(twin.get(victim).back_refs):
            twin.get(source).oref[index] = None
        for index, target in enumerate(twin.get(victim).oref):
            if target is not None and target != victim:
                twin.get(target).back_refs.remove((victim, index))
        twin.remove_object(victim)
        fresh = victim + 10
        cid = twin.schema.class_ids()[0]
        slots = twin.schema.get(cid).max_nref
        twin.add_object(OCBObject(oid=fresh, cid=cid, oref=[None] * slots))
        next(iter(twin.objects.values())).back_refs.append((fresh, 0))
        assert database.to_records() == records
        assert database.catalog() == catalog
        assert {descriptor.cid: descriptor.iterator
                for descriptor in database.schema} == iterators
        assert victim in database.objects and fresh not in database.objects


def logical_signature(report):
    """Per-client per-class logical metrics — nothing wall-clock."""
    return tuple(
        (client.client_id, phase.name, op_class, stats.count, stats.objects)
        for client in report.clients
        for phase in (client.cold, client.warm)
        for op_class, stats in sorted(phase.per_class.items()))


class TestSequentialFallbackViews:
    @pytest.mark.parametrize("backend", ["memory", "simulated"])
    def test_workers_leave_the_callers_graph_alone(self, backend):
        scenario = replace(scenario_preset("write_heavy"), clients=2,
                           cold_ops=2, warm_ops=30, backend=backend,
                           seed=13)
        database = make_database(num_objects=150)
        records = database.to_records()
        sequential = ScenarioRunner(database, scenario).run_processes(
            config=ParallelConfig(parallel=False))
        assert not sequential.executed_parallel
        assert sequential.total_operations == 2 * 32
        assert database.to_records() == records
        processes = ScenarioRunner(make_database(num_objects=150),
                                   scenario).run_processes()
        assert logical_signature(sequential) == \
            logical_signature(processes)
