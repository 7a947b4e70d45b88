"""Unit tests for the sharded triple store (`repro.kg.sharding`).

The load-bearing property is *transparency*: a ShardedTripleStore must be
byte-identical to an unsharded TripleStore — same results, same order —
for every read in the contract, at every shard count and worker count.
Most tests therefore compare against a reference store built from the
same triples rather than against hand-written expectations.
"""

import os

import pytest

from repro.core.executor import ParallelExecutor
from repro.kg.sharding import (
    DurableShardedTripleStore,
    ShardedTripleStore,
    shard_of,
)
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, XSD, Literal, Triple
from repro.kg.wal import recover, scan_wal

EX = lambda name: IRI(f"http://example.org/{name}")

SHARD_COUNTS = (1, 2, 4, 7)


def corpus():
    """A deliberately lumpy dataset: shared objects, literals, one dense
    predicate, subjects that land on different shards at every count."""
    triples = []
    for i in range(30):
        s = EX(f"person{i}")
        triples.append(Triple(s, EX("knows"), EX(f"person{(i * 7) % 30}")))
        triples.append(Triple(s, EX("age"),
                              Literal(str(20 + i % 9), datatype=XSD.integer)))
        triples.append(Triple(s, EX("team"), EX(f"team{i % 3}")))
    triples.append(Triple(EX("team0"), EX("name"), Literal("Blue")))
    triples.append(Triple(EX("team1"), EX("name"), Literal("Red")))
    return triples


def equivalent_reads(sharded, reference):
    """Assert every contract read agrees — values AND order."""
    assert list(sharded) == list(reference)
    assert len(sharded) == len(reference)
    s_probe, p_probe = EX("person3"), EX("knows")
    o_probe = EX("team1")
    combos = [
        (None, None, None),
        (s_probe, None, None),
        (None, p_probe, None),
        (None, None, o_probe),
        (s_probe, p_probe, None),
        (s_probe, None, o_probe),
        (None, p_probe, o_probe),
        (s_probe, EX("team"), o_probe),
    ]
    for s, p, o in combos:
        assert sharded.match(s, p, o) == reference.match(s, p, o), (s, p, o)
        assert sharded.match_count(s, p, o) == reference.match_count(s, p, o)
    assert sharded.subjects() == reference.subjects()
    assert sharded.subjects(p_probe) == reference.subjects(p_probe)
    assert sharded.subjects(EX("team"), o_probe) == \
        reference.subjects(EX("team"), o_probe)
    assert sharded.predicates() == reference.predicates()
    assert sharded.predicates(s_probe) == reference.predicates(s_probe)
    assert sharded.predicates(None, o_probe) == \
        reference.predicates(None, o_probe)
    assert sharded.objects() == reference.objects()
    assert sharded.objects(s_probe) == reference.objects(s_probe)
    assert sharded.objects(None, EX("team")) == \
        reference.objects(None, EX("team"))
    assert sharded.value(s_probe, EX("age")) == \
        reference.value(s_probe, EX("age"))
    assert sharded.relations() == reference.relations()
    assert sharded.entities() == reference.entities()
    assert sharded.stats() == reference.stats()
    assert sharded.predicate_stats() == reference.predicate_stats()


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for n in SHARD_COUNTS:
            for i in range(50):
                index = shard_of(EX(f"x{i}"), n)
                assert 0 <= index < n
                assert index == shard_of(EX(f"x{i}"), n)

    def test_subject_triples_live_on_their_shard(self):
        store = ShardedTripleStore(corpus(), shards=4)
        for triple in store:
            owner = store.shards[store.shard_index(triple.subject)]
            assert triple in owner
            for other in store.shards:
                if other is not owner:
                    assert triple not in other

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedTripleStore(shards=0)


class TestTransparency:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_reads_identical_to_unsharded(self, shards):
        data = corpus()
        equivalent_reads(ShardedTripleStore(data, shards=shards),
                         TripleStore(data))

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_parallel_fanout_is_order_identical(self, workers):
        data = corpus()
        sharded = ShardedTripleStore(
            data, shards=4, executor=ParallelExecutor(max_workers=workers))
        equivalent_reads(sharded, TripleStore(data))

    def test_reads_identical_after_mutation_history(self):
        data = corpus()
        sharded = ShardedTripleStore(shards=4)
        reference = TripleStore()
        for store in (sharded, reference):
            store.add_all(data[:40])
            store.remove_all(data[5:15])
            store.add_all(data[10:60])
            store.remove(data[20])
            store.add(data[5])
        equivalent_reads(sharded, reference)

    def test_clear_empties_everything(self):
        sharded = ShardedTripleStore(corpus(), shards=4)
        sharded.clear()
        assert len(sharded) == 0
        assert sharded.relations() == []
        assert all(len(shard) == 0 for shard in sharded.shards)

    def test_copy_preserves_content_and_topology(self):
        sharded = ShardedTripleStore(corpus(), shards=4)
        clone = sharded.copy()
        assert clone.shard_count == 4
        assert list(clone) == list(sharded)
        clone.add(Triple(EX("new"), EX("p"), EX("o")))
        assert len(clone) == len(sharded) + 1


class TestVersionComposition:
    def test_one_bump_per_effective_batch(self):
        store = ShardedTripleStore(shards=4)
        data = corpus()
        store.add_all(data)  # touches all 4 shards, still one batch
        assert store.version == 1
        store.remove_all(data[:8])
        assert store.version == 2
        store.add_all(data[:8])
        assert store.version == 3

    def test_noop_batches_do_not_bump(self):
        store = ShardedTripleStore(corpus(), shards=4)
        v = store.version
        assert store.add_all(corpus()) == 0
        assert store.remove(Triple(EX("nope"), EX("p"), EX("o"))) is False
        assert store.version == v

    def test_direct_shard_write_raises_composed_version(self):
        store = ShardedTripleStore(corpus(), shards=4)
        v = store.version
        # A write that bypasses the façade must still invalidate
        # version-keyed caches immediately.
        store.shards[2].add(Triple(EX("backdoor"), EX("p"), EX("o")))
        assert store.version > v
        # The next façade batch folds the drift in and keeps monotonicity.
        store.add(Triple(EX("front"), EX("p"), EX("o")))
        assert store.version > v + 1

    def test_shard_stats_shape(self):
        store = ShardedTripleStore(corpus(), shards=4)
        rows = store.shard_stats()
        assert len(rows) == 4
        assert sum(row["triples"] for row in rows) == len(store)
        assert all({"triples", "relations", "version"} <= set(row)
                   for row in rows)


class TestDurableSharded:
    def test_roundtrip_recovers_byte_identically(self, tmp_path):
        directory = str(tmp_path / "kg")
        data = corpus()
        store = DurableShardedTripleStore(directory, shards=4)
        store.add_all(data)
        store.remove_all(data[10:20])
        store.close()
        recovered = recover(directory)
        assert recovered.shard_count == 4  # from the manifest
        assert list(recovered) == list(store)
        assert recovered.version == store.version
        equivalent_reads(recovered, TripleStore(list(store)))
        recovered.close()

    def test_per_shard_logs_exist_and_seq_is_global(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=3)
        store.add_all(corpus())
        store.close()
        seqs = []
        for i in range(3):
            path = os.path.join(directory, f"shard-{i:02d}", "wal.log")
            assert os.path.exists(path)
            records, _ = scan_wal(path)
            seqs.extend(record.seq for record in records)
        assert sorted(seqs) == list(range(1, len(seqs) + 1))

    def test_snapshot_resets_all_shard_logs(self, tmp_path):
        store = DurableShardedTripleStore(str(tmp_path / "kg"), shards=4)
        store.add_all(corpus())
        count = store.snapshot()
        assert count == len(store)
        assert all(os.path.getsize(path) == 0 for path in store.wal.paths)
        store.add(Triple(EX("post"), EX("p"), EX("o")))
        store.close()
        recovered = recover(str(tmp_path / "kg"))
        assert recovered.last_recovery.snapshot_triples == count
        assert recovered.last_recovery.records_replayed == 1
        assert len(recovered) == count + 1
        recovered.close()

    def test_torn_tail_recovers_longest_contiguous_prefix(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=2)
        batches = [corpus()[i:i + 10] for i in range(0, 30, 10)]
        for batch in batches:
            store.add_all(batch)
        store.close()
        # Tear the tail of whichever shard log holds the highest seq. The
        # contract is run-level: recovery replays the longest contiguous
        # seq prefix, so the state must be exactly the triples of every
        # run before the torn one — records after a gap on *either* shard
        # are dropped.
        all_records = []
        for path in store.wal.paths:
            records, _ = scan_wal(path)
            all_records.extend((record, path) for record in records)
        all_records.sort(key=lambda pair: pair[0].seq)
        victim = all_records[-1][1]
        with open(victim, "r+b") as handle:
            handle.seek(-6, os.SEEK_END)
            handle.truncate()
        expected = set()
        for record, _ in all_records[:-1]:
            expected.update(record.triples)
        recovered = recover(directory)
        state = set(recovered)
        assert state == expected
        assert state != set(store)  # the torn run really was lost
        recovered.close()
        # Orphan records were physically dropped: recovery is now stable.
        again = recover(directory)
        assert set(again) == state
        assert again.last_recovery.truncated_bytes == 0
        again.close()

    def test_manifest_overrides_default_shard_count(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=7)
        store.add_all(corpus())
        store.close()
        recovered = recover(directory)  # no shards= argument
        assert recovered.shard_count == 7
        recovered.close()

    def test_recovery_reroutes_under_new_shard_count(self, tmp_path):
        directory = str(tmp_path / "kg")
        data = corpus()
        store = DurableShardedTripleStore(directory, shards=2)
        store.add_all(data)
        store.close()
        recovered = recover(directory, shards=5)
        assert recovered.shard_count == 5
        assert list(recovered) == list(store)
        equivalent_reads(recovered, TripleStore(data))
        recovered.close()

    def test_recovery_under_fewer_shards_reads_every_log(self, tmp_path):
        directory = str(tmp_path / "kg")
        data = corpus()
        store = DurableShardedTripleStore(directory, shards=7)
        store.add_all(data)
        store.close()
        recovered = recover(directory, shards=2)
        assert recovered.shard_count == 2
        assert list(recovered) == list(store)
        assert recovered.last_recovery.truncated_bytes == 0
        # Logs past the new count take no new runs; the next snapshot
        # empties them, and later recoveries still see every write.
        recovered.add(Triple(EX("late"), EX("p"), EX("o")))
        recovered.close()
        again = recover(directory)
        assert list(again) == list(recovered)
        again.snapshot()
        assert all(os.path.getsize(path) == 0 for path in again.wal.paths)
        again.close()
        final = recover(directory)
        assert list(final) == list(recovered)
        assert final.version == recovered.version
        final.close()

    def test_clear_is_logged_and_replayed(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=3)
        store.add_all(corpus())
        store.clear()
        store.add(Triple(EX("sole"), EX("p"), EX("o")))
        store.close()
        recovered = recover(directory)
        assert set(recovered) == {Triple(EX("sole"), EX("p"), EX("o"))}
        recovered.close()

    def test_durability_stats(self, tmp_path):
        store = DurableShardedTripleStore(str(tmp_path / "kg"), shards=4)
        store.add_all(corpus())
        stats = store.durability_stats()
        assert stats["logs"] == 4
        assert stats["triples"] == len(store)
        assert stats["wal_records"] >= 1
        assert stats["seq"] == stats["wal_records"]
        store.close()


def _subjects_on_shard(shard, shard_count, n):
    """The first ``n`` generated subjects that CRC-route to ``shard``."""
    out, i = [], 0
    while len(out) < n:
        candidate = EX(f"pin{i}")
        if shard_of(candidate, shard_count) == shard:
            out.append(candidate)
        i += 1
    return out


class TestRecoverShardedEdges:
    def test_zero_record_shard_wal_recovers(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=2)
        store.add_all(Triple(s, EX("p"), EX("o"))
                      for s in _subjects_on_shard(0, 2, 5))
        store.close()
        # Shard 1 never received a write; make its zero-record log exist
        # on disk (a crash can leave an empty file behind).
        idle = os.path.join(directory, "shard-01", "wal.log")
        with open(idle, "a", encoding="utf-8"):
            pass
        assert os.path.getsize(idle) == 0
        recovered = recover(directory)
        assert list(recovered) == list(store)
        assert recovered.last_recovery.records_replayed == 1
        recovered.close()

    def test_manifest_count_mismatch_reroutes(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=3)
        store.add_all(corpus())
        store.close()
        # The manifest now claims five shards while only three shard
        # directories hold records; the manifest is advisory and routing
        # happens at replay time, so nothing is lost.
        with open(os.path.join(directory, "manifest.json"), "w") as handle:
            handle.write('{"shards": 5}')
        recovered = recover(directory)
        assert recovered.shard_count == 5
        assert list(recovered) == list(store)
        equivalent_reads(recovered, TripleStore(corpus()))
        recovered.close()

    def test_missing_shard_directory_recovers_empty(self, tmp_path):
        import shutil
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=4)
        store.add_all(Triple(s, EX("p"), EX("o"))
                      for s in _subjects_on_shard(2, 4, 6))
        store.close()
        # Every record lived on shard 2; losing its directory loses all
        # durable state, and recovery must degrade to empty — not raise.
        shutil.rmtree(os.path.join(directory, "shard-02"))
        recovered = recover(directory)
        assert len(recovered) == 0
        assert recovered.last_recovery.records_replayed == 0
        recovered.close()

    def test_missing_shard_directory_keeps_contiguous_prefix(self, tmp_path):
        import shutil
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=4)
        store.add_all(corpus())
        store.close()
        shutil.rmtree(os.path.join(directory, "shard-03"))
        # Runs owned by the lost shard leave seq gaps; recovery keeps the
        # longest contiguous prefix of what remains and is stable across
        # repeated recoveries.
        recovered = recover(directory)
        state = set(recovered)
        assert state <= set(store)
        recovered.close()
        again = recover(directory)
        assert set(again) == state
        again.close()


class TestKnowledgeGraphSharded:
    def test_sharded_constructor(self):
        from repro.kg.graph import KnowledgeGraph
        kg = KnowledgeGraph.sharded(shards=3)
        assert kg.store.shard_count == 3
        kg.add(EX("a"), EX("p"), EX("b"))
        assert len(kg.store) == 1

    def test_sharded_durable_constructor(self, tmp_path):
        from repro.kg.graph import KnowledgeGraph
        directory = str(tmp_path / "facts")
        kg = KnowledgeGraph.sharded(shards=2, directory=directory)
        assert kg.name == "facts"
        kg.add(EX("a"), EX("p"), EX("b"))
        kg.store.close()
        resumed = KnowledgeGraph.sharded(directory=directory)
        assert resumed.store.shard_count == 2
        assert len(resumed.store) == 1
        resumed.store.close()
