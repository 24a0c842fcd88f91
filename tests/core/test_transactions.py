"""Fig. 3 transaction tests over a hand-built store."""

from __future__ import annotations

import pytest

from repro.backends.sqlite import SQLiteBackend
from repro.clustering.base import NoClustering
from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.core import transactions
from repro.core.session import Session
from repro.core.transactions import (
    AccessContext,
    TransactionKind,
    TransactionSpec,
    run_transaction,
)
from repro.errors import WorkloadError
from repro.rand.lewis_payne import LewisPayne
from repro.store.serializer import StoredObject
from repro.store.storage import ObjectStore


def build_store(records):
    store = ObjectStore(page_size=256, buffer_pages=16)
    store.bulk_load(records)
    store.reset_stats()
    return store


def make_tree():
    """A binary tree of depth 3 with typed refs: slot 0 type 1, slot 1 type 2.

    oid 1 -> (2, 3); 2 -> (4, 5); 3 -> (6, 7); leaves 4..7.
    """
    records = []
    back = {i: [] for i in range(1, 8)}
    children = {1: (2, 3), 2: (4, 5), 3: (6, 7)}
    for oid in range(1, 8):
        refs = children.get(oid, (None, None))
        records.append(StoredObject(oid=oid, cid=1, refs=refs, filler=8))
        for slot, target in enumerate(refs):
            if target is not None:
                back[target].append((oid, slot))
    records = [r.with_back_refs(tuple(back[r.oid])) for r in records]
    tref_table = {1: (1, 2)}
    catalog = {oid: 1 for oid in range(1, 8)}
    return records, tref_table, catalog


@pytest.fixture
def tree_ctx():
    records, tref_table, catalog = make_tree()
    store = build_store(records)
    return AccessContext(store, tref_table=tref_table, catalog=catalog)


def spec(kind, root=1, depth=3, **kw):
    return TransactionSpec(kind=kind, root=root, depth=depth, **kw)


class TestSetOrientedAccess:
    def test_breadth_first_visits_whole_tree(self, tree_ctx, rng):
        result = run_transaction(tree_ctx, spec(TransactionKind.SET), rng)
        assert result.visits == 7
        assert result.distinct_objects == 7
        assert result.max_depth_reached == 2

    def test_depth_zero_touches_root_only(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, depth=0), rng)
        assert result.visits == 1
        assert result.distinct_objects == 1

    def test_depth_limits_frontier(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, depth=1), rng)
        assert result.visits == 3  # Root + two children.

    def test_duplicates_counted_without_dedupe(self, rng):
        # 1 -> (2, 2): the same child twice.
        records = [
            StoredObject(oid=1, cid=1, refs=(2, 2)),
            StoredObject(oid=2, cid=1, refs=(None, None),
                         back_refs=((1, 0), (1, 1))),
        ]
        ctx = AccessContext(build_store(records), tref_table={1: (1, 1)},
                            catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.SET, depth=1), rng)
        assert result.visits == 3
        assert result.distinct_objects == 2

    def test_dedupe_visits_once(self, rng):
        records = [
            StoredObject(oid=1, cid=1, refs=(2, 2)),
            StoredObject(oid=2, cid=1, refs=(None, None),
                         back_refs=((1, 0), (1, 1))),
        ]
        ctx = AccessContext(build_store(records), tref_table={1: (1, 1)},
                            catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.SET, depth=1, dedupe=True), rng)
        assert result.visits == 2

    def test_max_visits_truncates(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, max_visits=3), rng)
        assert result.visits == 3
        assert result.truncated

    def test_reverse_walks_back_references(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, root=7, reverse=True), rng)
        # 7 <- 3 <- 1.
        assert result.visits == 3
        assert result.distinct_objects == 3


class TestSimpleTraversal:
    def test_depth_first_covers_tree(self, tree_ctx, rng):
        result = run_transaction(tree_ctx, spec(TransactionKind.SIMPLE), rng)
        assert result.visits == 7
        assert result.max_depth_reached == 2

    def test_counts_revisits_on_cycles(self, rng):
        records = [
            StoredObject(oid=1, cid=1, refs=(2,), back_refs=((2, 0),)),
            StoredObject(oid=2, cid=1, refs=(1,), back_refs=((1, 0),)),
        ]
        ctx = AccessContext(build_store(records), tref_table={1: (1,)},
                            catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.SIMPLE, depth=4), rng)
        assert result.visits == 5  # 1,2,1,2,1 — bounded by depth.
        assert result.distinct_objects == 2


class TestHierarchyTraversal:
    def test_follows_single_type(self, tree_ctx, rng):
        # Type 1 references = slot 0 = left children: 1 -> 2 -> 4.
        result = run_transaction(
            tree_ctx, spec(TransactionKind.HIERARCHY, ref_type=1), rng)
        assert result.visits == 3
        assert result.distinct_objects == 3

    def test_other_type(self, tree_ctx, rng):
        # Type 2 = right children: 1 -> 3 -> 7.
        result = run_transaction(
            tree_ctx, spec(TransactionKind.HIERARCHY, ref_type=2), rng)
        assert result.visits == 3

    def test_requires_ref_type(self, tree_ctx, rng):
        with pytest.raises(WorkloadError):
            run_transaction(
                tree_ctx, spec(TransactionKind.HIERARCHY), rng)

    def test_reverse_hierarchy_filters_by_origin_type(self, tree_ctx, rng):
        # From 4 backwards along type 1: 4 <- 2 <- 1.
        result = run_transaction(
            tree_ctx, spec(TransactionKind.HIERARCHY, root=4, ref_type=1,
                           reverse=True), rng)
        assert result.visits == 3


class TestStochasticTraversal:
    def test_walk_length_bounded_by_depth(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.STOCHASTIC, depth=2), rng)
        assert result.visits <= 3

    def test_stops_at_sink(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.STOCHASTIC, root=7, depth=10), rng)
        assert result.visits == 1  # Leaf: no outgoing references.

    def test_long_walk_on_cycle(self, rng):
        records = [
            StoredObject(oid=1, cid=1, refs=(2,), back_refs=((2, 0),)),
            StoredObject(oid=2, cid=1, refs=(1,), back_refs=((1, 0),)),
        ]
        ctx = AccessContext(build_store(records), tref_table={1: (1,)},
                            catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.STOCHASTIC, depth=30), rng)
        assert result.visits >= 10  # Mostly keeps walking the 2-cycle.

    def test_first_reference_preferred(self):
        # Star: root references 1..4; p(N) = 1/2^N favours slot 1.
        records = [StoredObject(oid=9, cid=1, refs=(1, 2, 3, 4))]
        back = {}
        for oid in (1, 2, 3, 4):
            records.append(StoredObject(oid=oid, cid=1, refs=(9,),
                                        back_refs=()))
        ctx = AccessContext(build_store(records),
                            tref_table={1: (1, 1, 1, 1)},
                            catalog={oid: 1 for oid in (1, 2, 3, 4, 9)})
        rng = LewisPayne(31415)
        first_steps = []
        for _ in range(300):
            seen = []
            original = ctx.access

            def spy(oid, source=None, ref_slot=None, via_back_ref=False):
                seen.append(oid)
                return original(oid, source=source, ref_slot=ref_slot,
                                via_back_ref=via_back_ref)

            ctx.access = spy  # type: ignore[assignment]
            run_transaction(ctx, spec(TransactionKind.STOCHASTIC, root=9,
                                      depth=1), rng)
            ctx.access = original  # type: ignore[assignment]
            if len(seen) > 1:
                first_steps.append(seen[1])
        share_first = sum(1 for s in first_steps if s == 1) / len(first_steps)
        assert 0.4 < share_first < 0.65  # p(1) = 1/2.


class TestAccessContext:
    def test_policy_sees_link_crossings(self, rng):
        records, tref_table, catalog = make_tree()
        store = build_store(records)
        policy = DSTCPolicy(DSTCParameters(observation_period=1,
                                           selection_threshold=1))
        ctx = AccessContext(store, policy=policy, tref_table=tref_table,
                            catalog=catalog)
        run_transaction(ctx, spec(TransactionKind.SIMPLE), rng)
        assert policy.consolidated_size == 6  # Six tree edges crossed.

    def test_transaction_end_signalled(self, rng):
        records, tref_table, catalog = make_tree()

        class CountingPolicy(DSTCPolicy):
            ended = 0

            def on_transaction_end(self):
                CountingPolicy.ended += 1
                super().on_transaction_end()

        ctx = AccessContext(build_store(records), policy=CountingPolicy(),
                            tref_table=tref_table, catalog=catalog)
        run_transaction(ctx, spec(TransactionKind.SET), rng)
        assert CountingPolicy.ended == 1

    def test_ref_type_lookup_handles_unknowns(self, tree_ctx):
        assert tree_ctx.ref_type_of(None, 0) is None
        assert tree_ctx.ref_type_of(42, 0) is None
        assert tree_ctx.ref_type_of(1, 99) is None

    def test_class_of(self, tree_ctx):
        assert tree_ctx.class_of(1) == 1
        assert tree_ctx.class_of(12345) is None


class _RecordingPolicy(NoClustering):
    """Logs every observed link crossing, in order."""

    def __init__(self):
        self.crossings = []

    def observe_access(self, source, target, ref_type=None):
        self.crossings.append((source, target, ref_type))


def _dfs_specs(database, kind, reverse, dedupe, max_visits):
    roots = sorted(database.objects)[::17]
    return [TransactionSpec(kind=kind, root=root, depth=4, reverse=reverse,
                            ref_type=(index % 4 if kind is
                                      TransactionKind.HIERARCHY else None),
                            dedupe=dedupe, max_visits=max_visits)
            for index, root in enumerate(roots)]


def _run_dfs(session, specs):
    policy = _RecordingPolicy()
    session.policy = policy
    results = [run_transaction(session, one, LewisPayne(7)) for one in specs]
    return results, policy.crossings


class TestDepthFirstPrefetch:
    """Depth-first walks prefetch each expanded node's children."""

    @pytest.mark.parametrize("max_visits", [5000, 9])
    @pytest.mark.parametrize("dedupe", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", [TransactionKind.SIMPLE,
                                      TransactionKind.HIERARCHY])
    def test_sqlite_results_equal_memory(self, small_database, kind,
                                         reverse, dedupe, max_visits):
        specs = _dfs_specs(small_database, kind, reverse, dedupe,
                           max_visits)
        memory = Session.for_database(small_database, "memory")
        sqlite = Session.for_database(small_database, "sqlite")
        assert sqlite.batch_reads and not memory.batch_reads
        expected = _run_dfs(memory, specs)
        assert _run_dfs(sqlite, specs) == expected
        results = expected[0]
        if max_visits == 9 and kind is TransactionKind.SIMPLE:
            assert any(result.truncated for result in results)
        assert sum(result.visits for result in results) > len(specs)
        memory.close()
        sqlite.close()

    def test_round_trips_bounded_by_expanded_nodes(self, small_database,
                                                   monkeypatch):
        # Set semantics: without dedupe, a repeat visit is charged to the
        # engine again by design (Session.access), so it adds trips.
        expanded = []
        original = transactions._neighbours

        def counting(ctx, record, reverse, type_filter):
            expanded.append(record.oid)
            return original(ctx, record, reverse, type_filter)

        monkeypatch.setattr(transactions, "_neighbours", counting)
        session = Session.for_database(small_database, "sqlite")
        backend = session.store
        for root in sorted(small_database.objects)[::29]:
            expanded.clear()
            before = backend.sql_round_trips
            run_transaction(session, TransactionSpec(
                kind=TransactionKind.SIMPLE, root=root, depth=3,
                dedupe=True), LewisPayne(3))
            trips = backend.sql_round_trips - before
            assert expanded
            assert trips <= len(expanded) + 1, (root, trips, expanded)
        session.close()

    def test_single_target_is_a_point_read(self):
        records = [StoredObject(oid=1, cid=1, refs=(2, None)),
                   StoredObject(oid=2, cid=1, back_refs=((1, 0),))]
        backend = SQLiteBackend()
        backend.bulk_load(records)
        backend.reset_stats()
        batches = []
        read_many = backend.read_many
        backend.read_many = lambda oids: batches.append(oids) or \
            read_many(oids)
        session = Session(backend, tref_table={1: (1, 2)},
                          catalog={1: 1, 2: 1})
        result = run_transaction(session, spec(TransactionKind.SIMPLE),
                                 LewisPayne(1))
        assert result.visits == 2
        assert batches == []
        assert backend.sql_round_trips == 2  # Root and child point reads.
        backend.close()
