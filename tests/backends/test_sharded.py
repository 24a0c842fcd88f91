"""ShardedSQLiteBackend specifics: routing, affinity accounting, sharing.

The generic protocol/roundtrip/equivalence matrices already run the
sharded engine alongside every other backend; this module pins what is
unique to it — the shard function contract, home-shard fan-out order,
the remote/cross-shard counters, worker connection sets and the
statement-scoped commit discipline.
"""

from __future__ import annotations

import os

import pytest

from repro.backends.sharded import (
    DEFAULT_SHARDS,
    SHARD_FILE_FORMAT,
    ShardedSQLiteBackend,
    shard_of,
)
from repro.errors import BackendError, StorageError
from repro.store.serializer import StoredObject


def make_records(count, refs=None):
    refs = refs or {}
    return [StoredObject(oid=oid, cid=1 + oid % 3, filler=32,
                         refs=tuple(refs.get(oid, ())))
            for oid in range(1, count + 1)]


def loaded(backend, count=10, refs=None):
    records = make_records(count, refs)
    backend.bulk_load(records, order=[r.oid for r in records])
    backend.reset_stats()
    return {r.oid: r for r in records}


class TestShardFunction:
    def test_contract_is_oid_modulo_shards(self):
        for shards in (1, 2, 4, 7):
            for oid in range(1, 40):
                assert shard_of(oid, shards) == oid % shards

    def test_engine_routes_by_contract(self):
        backend = ShardedSQLiteBackend(shards=4)
        loaded(backend, count=10)
        for oid in range(1, 11):
            assert backend.shard_of(oid) == oid % 4
            assert oid in backend
        stats = backend.stats()
        # oids 1..10 over 4 residue classes: 0 -> {4, 8}, 1 -> {1, 5, 9},
        # 2 -> {2, 6, 10}, 3 -> {3, 7}.
        assert stats["objects_per_shard"] == [2, 3, 3, 2]
        backend.close()

    def test_rejects_bad_shape(self):
        with pytest.raises(BackendError):
            ShardedSQLiteBackend(shards=0)
        with pytest.raises(BackendError):
            ShardedSQLiteBackend(shards=4, home_shard=4)
        with pytest.raises(BackendError):
            ShardedSQLiteBackend(shards=4, home_shard=-1)

    def test_default_shard_count(self):
        backend = ShardedSQLiteBackend()
        assert backend.shards == DEFAULT_SHARDS
        backend.close()


class TestAffinityAccounting:
    def test_reads_off_home_are_remote(self):
        backend = ShardedSQLiteBackend(shards=4, home_shard=1)
        loaded(backend, count=10)
        backend.read_many([1, 5, 9])       # All home (oid % 4 == 1).
        assert backend.remote_reads == 0
        backend.read_many([2, 3, 4])       # All off-home.
        assert backend.remote_reads == 3
        backend.read_object(6)
        assert backend.remote_reads == 4
        backend.close()

    def test_scan_records_off_home_are_remote(self):
        backend = ShardedSQLiteBackend(shards=4, home_shard=1)
        loaded(backend, count=10)
        # Lane 1 of 2 is the odd oids: shard 1 holds {1, 5, 9} (home),
        # shard 3 holds {3, 7}.
        scanned = backend.scan(2, 1)
        assert [r.oid for r in scanned] == [1, 3, 5, 7, 9]
        assert backend.remote_reads == 2
        backend.close()

    def test_writes_off_home_are_remote(self):
        backend = ShardedSQLiteBackend(shards=4, home_shard=1)
        records = loaded(backend, count=10)
        backend.write_object(records[5])   # Home lane.
        assert backend.remote_writes == 0
        backend.write_many([records[2], records[5], records[7]])
        assert backend.remote_writes == 2
        backend.close()

    def test_no_home_no_remote_counts(self):
        backend = ShardedSQLiteBackend(shards=4)
        records = loaded(backend, count=10)
        backend.read_many(list(records))
        backend.write_many(list(records.values()))
        assert backend.remote_reads == 0
        assert backend.remote_writes == 0
        backend.close()

    def test_cross_shard_refs_counted_home_independent(self):
        # 1 -> 5 stays on shard 1; 1 -> 2 and 2 -> 7 cross shards.
        refs = {1: (5, 2), 2: (7,)}
        backend = ShardedSQLiteBackend(shards=4, home_shard=1)
        loaded(backend, count=10, refs=refs)
        resolved = backend.traverse_refs_many([1, 2])
        assert resolved[1] == (5, 2)
        assert resolved[2] == (7,)
        assert backend.cross_shard_refs == 2
        # Remote reads: the off-home lookup of oid 2, plus the frontier
        # edge 1 -> 2 that leaves the home shard.  2 -> 7 starts off-home
        # and is therefore not a *home* departure.
        assert backend.remote_reads == 1 + 1
        backend.close()

    def test_reset_stats_clears_counters(self):
        backend = ShardedSQLiteBackend(shards=4, home_shard=0)
        records = loaded(backend, count=8)
        backend.read_many(list(records))
        backend.write_many(list(records.values()))
        backend.reset_stats()
        assert backend.remote_reads == 0
        assert backend.remote_writes == 0
        assert backend.cross_shard_refs == 0
        assert backend.stats()["object_accesses"] == 0
        backend.close()


class TestCommitDiscipline:
    def test_writes_commit_per_shard_immediately(self):
        backend = ShardedSQLiteBackend(shards=3)
        records = loaded(backend, count=9)
        backend.write_many(list(records.values()))
        # Statement-scoped transactions: nothing is left open, so the
        # session-level flush after an operation touches no engine.
        assert backend._dirty_shards == set()
        assert backend.flush() == 0
        backend.close()

    def test_fanout_order_puts_home_first(self):
        backend = ShardedSQLiteBackend(shards=4, home_shard=2)
        assert backend.connection_order == (2, 0, 1, 3)
        assert backend._fanout_order([3, 1, 2]) == [2, 1, 3]
        assert backend._fanout_order([0, 3]) == [0, 3]
        backend.close()


class TestSharedDirectories:
    def test_directory_path_materializes_shard_files(self, tmp_path):
        root = os.path.join(str(tmp_path), "shards")
        backend = ShardedSQLiteBackend(path=root, shards=3)
        loaded(backend, count=6)
        for shard in range(3):
            assert os.path.exists(
                os.path.join(root, SHARD_FILE_FORMAT.format(index=shard)))
        backend.close()

    def test_connect_worker_shares_and_overrides_home(self, tmp_path):
        root = os.path.join(str(tmp_path), "shards")
        backend = ShardedSQLiteBackend(path=root, shards=4)
        records = loaded(backend, count=8)
        worker = backend.connect_worker(home_shard=1)
        assert worker.home_shard == 1
        assert worker.connection_order == (1, 0, 2, 3)
        assert worker.read_object(3) == records[3]
        inherited = worker.connect_worker()
        assert inherited.home_shard == 1
        worker.close()
        inherited.close()
        backend.close()

    def test_worker_writes_visible_to_sibling(self, tmp_path):
        root = os.path.join(str(tmp_path), "shards")
        backend = ShardedSQLiteBackend(path=root, shards=2)
        records = loaded(backend, count=4)
        worker = backend.connect_worker(home_shard=0)
        changed = StoredObject(oid=2, cid=records[2].cid, filler=64,
                               refs=records[2].refs)
        worker.write_object(changed)
        assert backend.read_object(2) == changed
        worker.close()
        backend.close()

    def test_in_memory_cannot_be_shared(self):
        backend = ShardedSQLiteBackend(shards=2)
        with pytest.raises(BackendError):
            backend.connect_worker()
        backend.close()

    def test_bulk_load_requires_empty(self):
        backend = ShardedSQLiteBackend(shards=2)
        loaded(backend, count=4)
        with pytest.raises(StorageError):
            backend.bulk_load(make_records(2))
        backend.close()
