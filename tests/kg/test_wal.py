"""Unit tests for the WAL + snapshot durability layer (`repro.kg.wal`)."""

import os

import pytest

from repro.core.observability import Observability
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, Triple
from repro.kg.wal import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    DurableTripleStore,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
    decode_payload,
    encode_record,
    read_snapshot,
    recover,
    scan_wal,
    write_snapshot,
)

EX = lambda name: IRI(f"http://example.org/{name}")


def t(i):
    return Triple(EX(f"s{i}"), EX("p"), EX(f"o{i}"))


class TestRecordCodec:
    def test_round_trip(self):
        record = WalRecord("add", 7, (t(1), t(2)))
        data = encode_record(record)
        assert decode_payload(data[8:]) == record

    def test_round_trip_literal_with_newline(self):
        tricky = Triple(EX("s"), EX("p"), Literal('line1\nline"2"'))
        record = WalRecord("add", 3, (tricky,))
        assert decode_payload(encode_record(record)[8:]) == record

    def test_clear_record_has_no_triples(self):
        record = WalRecord("clear", 9)
        assert decode_payload(encode_record(record)[8:]) == record

    def test_bad_op_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_payload(b"explode 3\n")

    def test_bad_lsn_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_payload(b"add seven\n")

    def test_non_utf8_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_payload(b"\xff\xfe\x00")


class TestScanWal:
    def _log(self, tmp_path, *records):
        path = str(tmp_path / WAL_FILENAME)
        with open(path, "wb") as handle:
            for record in records:
                handle.write(encode_record(record))
        return path

    def test_reads_all_records(self, tmp_path):
        wanted = [WalRecord("add", i, (t(i),)) for i in range(1, 4)]
        records, truncated = scan_wal(self._log(tmp_path, *wanted))
        assert records == wanted
        assert truncated == 0

    def test_missing_file_is_empty(self, tmp_path):
        assert scan_wal(str(tmp_path / "nope.log")) == ([], 0)

    def test_short_header_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)))
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")
        records, truncated = scan_wal(path)
        assert len(records) == 1
        assert truncated == 2

    def test_short_payload_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)))
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(encode_record(WalRecord("add", 2, (t(2),)))[:-5])
        records, truncated = scan_wal(path)
        assert len(records) == 1
        assert truncated == os.path.getsize(path) - good_size

    def test_crc_mismatch_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)),
                         WalRecord("add", 2, (t(2),)))
        with open(path, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"XXX")
        records, truncated = scan_wal(path)
        assert [r.lsn for r in records] == [1]
        assert truncated > 0

    def test_truncate_cuts_the_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)))
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"garbage after the last record")
        records, truncated = scan_wal(path, truncate=True)
        assert truncated == 29
        assert os.path.getsize(path) == good_size
        # Second scan is clean.
        assert scan_wal(path) == (records, 0)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / SNAPSHOT_FILENAME)
        triples = [t(i) for i in range(5)]
        assert write_snapshot(triples, path, 42, 7) == 5
        loaded, seq, version = read_snapshot(path)
        assert loaded == triples
        assert (seq, version) == (42, 7)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / SNAPSHOT_FILENAME)
        write_snapshot([t(0)], path, 1, 1)
        assert os.listdir(str(tmp_path)) == [SNAPSHOT_FILENAME]

    def test_unheadered_snapshot_defaults_to_lsn_zero(self, tmp_path):
        path = str(tmp_path / "plain.nt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(t(1).n3() + "\n")
        loaded, seq, version = read_snapshot(path)
        assert loaded == [t(1)] and seq == version == 0

    def test_lsn_only_snapshot_reads_version_as_lsn(self, tmp_path):
        path = str(tmp_path / SNAPSHOT_FILENAME)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# lsn=5\n" + t(1).n3() + "\n")
        assert read_snapshot(path) == ([t(1)], 5, 5)


class TestWriteAheadLog:
    def test_append_counts_records_and_bytes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / WAL_FILENAME))
        n = wal.append(WalRecord("add", 1, (t(1),)))
        wal.append(WalRecord("add", 2, (t(2),)))
        assert wal.records_written == 2
        assert wal.bytes_written == os.path.getsize(wal.path)
        assert n > 8
        wal.close()

    def test_reset_empties_the_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / WAL_FILENAME))
        wal.append(WalRecord("add", 1, (t(1),)))
        wal.reset()
        assert os.path.getsize(wal.path) == 0
        # Appending after a reset reopens lazily.
        wal.append(WalRecord("add", 2, (t(2),)))
        records, _ = scan_wal(wal.path)
        assert [r.lsn for r in records] == [2]
        wal.close()


class TestDurableTripleStore:
    def test_behaves_like_a_triple_store(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"))
        reference = TripleStore()
        for s in (store, reference):
            s.add(t(1))
            s.add_all([t(2), t(3)])
            s.remove(t(2))
        assert set(store) == set(reference)
        assert store.version == reference.version == 3
        store.close()

    def test_recover_restores_triples_and_version(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(i) for i in range(6)])
        store.remove(t(0))
        store.close()
        recovered = recover(directory)
        assert set(recovered) == {t(i) for i in range(1, 6)}
        assert recovered.version == store.version == 2
        assert recovered.last_recovery.records_replayed == 2
        recovered.close()

    def test_noop_batches_write_no_records(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"))
        store.add(t(1))
        assert store.add(t(1)) is False
        assert store.add_all([t(1)]) == 0
        assert store.remove(t(9)) is False
        assert store.remove_all([t(9)]) == 0
        assert store.durability_stats()["wal_records"] == 1
        store.close()

    def test_clear_is_logged_and_replayed(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(1), t(2)])
        store.clear()
        store.add(t(3))
        store.close()
        recovered = recover(directory)
        assert set(recovered) == {t(3)}
        assert recovered.version == 3
        recovered.close()

    def test_snapshot_compacts_and_resets_log(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(i) for i in range(4)])
        assert store.snapshot() == 4
        assert os.path.getsize(store.wal.paths[0]) == 0
        _, seq, version = read_snapshot(store.wal.snapshot_path)
        assert seq == version == store.version == 1
        store.close()
        recovered = recover(directory)
        assert recovered.last_recovery.snapshot_triples == 4
        assert recovered.last_recovery.records_replayed == 0
        assert recovered.version == 1
        recovered.close()

    def test_snapshot_every_autocompacts(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"), snapshot_every=3)
        for i in range(7):
            store.add(t(i))
        assert store.durability_stats()["snapshots"] == 2
        records, _ = scan_wal(store.wal.paths[0])
        assert len(records) == 1  # only the post-snapshot suffix remains
        store.close()

    def test_replay_skips_records_folded_into_snapshot(self, tmp_path):
        # A crash between write_snapshot and wal.reset leaves the log full
        # of records at LSNs the snapshot already covers.
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(1), t(2)])
        store.add(t(3))
        write_snapshot(store, store.wal.snapshot_path, store.version,
                       store.version)
        store.close()  # log never reset: all records ≤ snapshot LSN
        recovered = recover(directory)
        assert recovered.last_recovery.records_replayed == 0
        assert set(recovered) == {t(1), t(2), t(3)}
        assert recovered.version == 2
        recovered.close()

    def test_fresh_directory_reports_no_recovery(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"))
        assert store.durability_stats()["recoveries"] == 0
        assert store.last_recovery.version == 0
        store.close()

    def test_obs_counters_and_pull_source(self, tmp_path):
        obs = Observability()
        store = DurableTripleStore(str(tmp_path / "kg"), snapshot_every=2,
                                   obs=obs)
        store.add(t(1))
        store.add(t(2))
        assert obs.metrics.counter_total("wal.records") == 2
        assert obs.metrics.counter_total("wal.snapshots") == 1
        assert obs.metrics.counter_total("wal.bytes") > 0
        stats = store.durability_stats()
        assert stats["snapshots"] == 1 and stats["lsn"] == 2
        assert stats["triples"] == 2
        store.close()

    def test_recovery_counts_truncated_bytes(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add(t(1))
        store.close()
        with open(store.wal.paths[0], "ab") as handle:
            handle.write(b"\x00\x00\x00\x20torn")
        recovered = recover(directory)
        assert recovered.last_recovery.truncated_bytes == 8
        assert set(recovered) == {t(1)}
        # The truncation is physical: a second recovery sees a clean log.
        recovered.close()
        again = recover(directory)
        assert again.last_recovery.truncated_bytes == 0
        again.close()


class TestRecoverLayouts:
    def test_shards_for_a_flat_directory_is_rejected(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add(t(1))
        store.close()
        with pytest.raises(ValueError, match="flat"):
            recover(directory, shards=4)
        # Nothing was rewritten: the flat store still recovers whole.
        again = recover(directory)
        assert type(again) is DurableTripleStore
        assert list(again) == [t(1)]
        again.close()


class TestKnowledgeGraphDurable:
    def test_durable_constructor_wires_a_durable_store(self, tmp_path):
        from repro.kg.graph import KnowledgeGraph
        directory = str(tmp_path / "facts")
        kg = KnowledgeGraph.durable(directory)
        assert kg.name == "facts"
        kg.add(EX("a"), EX("p"), EX("b"))
        kg.store.close()
        resumed = KnowledgeGraph.durable(directory)
        assert len(resumed.store) == 1
        assert resumed.store.last_recovery.records_replayed == 1
        resumed.store.close()
