"""Write-ahead logging, snapshots, and crash recovery for the triple stores.

The survey's construction pipelines build KGs over thousands of LLM calls;
losing the store to a process crash means re-spending all of them. This
module gives both durable stores — the flat :class:`DurableTripleStore`
and :class:`~repro.kg.sharding.DurableShardedTripleStore` — process-level
durability through one engine, :class:`WalEngine`, with the classic WAL
discipline:

* every *effective* mutation batch (the same batches that bump
  :attr:`~repro.kg.store.TripleStore.version`) is appended to a
  checksummed log **before** control returns to the caller; each record
  carries the batch's LSN (the store's version after the batch) and a
  globally monotonic ``seq``;
* a compacted **snapshot** (plain N-Triples under a ``# lsn=<seq>`` and a
  ``# version=<version>`` header comment) is written atomically (tmp
  file + fsync + ``os.replace``) every ``snapshot_every`` batches, after
  which the logs are reset;
* recovery loads the snapshot, scans every log (truncating torn or
  corrupt tails, detected by per-record CRC32), and replays the longest
  contiguous ``seq`` prefix — a crash mid-``write`` can cost at most the
  batch that was being logged, never consistency.

Two on-disk layouts share that engine::

    flat (DurableTripleStore)        sharded (DurableShardedTripleStore)
      snapshot.nt                      manifest.json   {"shards": N}
      wal.log                          snapshot.nt
                                       shard-00/wal.log ... shard-NN/wal.log

With one log a batch is one record. With several, a batch is logged as
one record per run of consecutive triples routed to the same log, and the
``seq`` restores the cross-log order. :func:`recover` opens whichever
layout a directory holds.

Record format (binary, little machinery on the hot path)::

    +--------------+-------------+----------------------------------+
    | length (u32) | crc32 (u32) | payload (UTF-8, ``length`` bytes)|
    +--------------+-------------+----------------------------------+

with a payload of ``"<op> <lsn> <seq>\\n"`` (op ∈ add/remove/clear)
followed by one N-Triples line per affected triple — the same
``Triple.n3()`` encoding the rest of the toolkit round-trips. Appends are
flushed to the OS per record, so any process-level crash (the
crash-injection harness uses ``os._exit``) preserves every completed
batch. Logs and snapshots written before the ``seq``/``version`` fields
existed stay readable: a record without a ``seq`` reads as ``seq = lsn``
and a snapshot without ``# version=`` as ``version = lsn`` (both held for
the flat store, which bumped its version once per logged batch).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.observability import resolve_obs
from repro.kg.rdf import RDFSyntaxError, parse_ntriples_line
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Triple

__all__ = [
    "DurableStore", "DurableTripleStore", "RecoveryReport",
    "SNAPSHOT_FILENAME", "WAL_FILENAME", "WalCorruptionError", "WalEngine",
    "WalRecord", "WriteAheadLog", "apply_record", "decode_payload",
    "encode_record", "read_snapshot", "recover", "scan_wal",
    "write_snapshot",
]


def apply_record(store: TripleStore, record: "WalRecord") -> None:
    """Apply one WAL record to ``store`` without logging or version bumps.

    The single definition of what a record *means*, shared by recovery of
    both durable stores (through the ``_insert``/``_delete``/``_clear``
    hooks every store implements) and replica catch-up (the replication
    layer ships these same records to keep followers consistent with the
    primary's log).
    """
    if record.op == "add":
        for triple in record.triples:
            store._insert(triple)
    elif record.op == "remove":
        for triple in record.triples:
            store._delete(triple)
    elif record.op == "clear":
        store._clear()
    else:
        raise ValueError(f"unknown WAL op {record.op!r}")

#: Per-record frame header: payload length then CRC32, both big-endian u32.
_HEADER = struct.Struct(">II")

#: Log file name inside a durability directory.
WAL_FILENAME = "wal.log"
#: Snapshot file name inside a durability directory.
SNAPSHOT_FILENAME = "snapshot.nt"

_OPS = ("add", "remove", "clear")


class WalCorruptionError(ValueError):
    """Raised when a WAL payload passes framing but cannot be decoded."""


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation batch: the op, its LSN, and the triples touched.

    ``lsn`` is the store's :attr:`~repro.kg.store.TripleStore.version`
    *after* the batch committed; replaying a record therefore both applies
    the triples and restores the exact version counter.
    """

    op: str
    lsn: int
    triples: Tuple[Triple, ...] = ()
    #: Global sequence number. A sharded store appends to one log per
    #: shard, losing the cross-log interleave a single log gets for free;
    #: ``seq`` restores it — recovery merges every log's records by ``seq``
    #: and replays in that order. Records written without one (two-token
    #: headers) read as ``seq = lsn``.
    seq: Optional[int] = None


def encode_record(record: WalRecord) -> bytes:
    """Serialize a record to its framed on-disk bytes."""
    if record.seq is None:
        lines = [f"{record.op} {record.lsn}"]
    else:
        lines = [f"{record.op} {record.lsn} {record.seq}"]
    append = lines.append
    for t in record.triples:
        # Equivalent to t.n3(), with the all-IRI case (the overwhelming
        # majority of logged triples) flattened to one f-string — encoding
        # sits on the bulk-load hot path, budgeted at ≤10% overhead (see
        # benchmarks/test_bench_durability.py).
        o = t.object
        if type(o) is IRI:
            append(f"<{t.subject.value}> <{t.predicate.value}> <{o.value}> .")
        else:
            append(f"<{t.subject.value}> <{t.predicate.value}> {o.n3()} .")
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> WalRecord:
    """Decode one CRC-verified payload back into a :class:`WalRecord`."""
    try:
        lines = payload.decode("utf-8").splitlines()
        head = lines[0].split(" ") if lines else []
        if len(head) not in (2, 3) or head[0] not in _OPS:
            raise WalCorruptionError(f"malformed WAL record header: {lines[:1]!r}")
        triples = []
        for line in lines[1:]:
            triple = parse_ntriples_line(line)
            if triple is not None:
                triples.append(triple)
        seq = int(head[2]) if len(head) == 3 else None
        return WalRecord(op=head[0], lsn=int(head[1]), triples=tuple(triples),
                         seq=seq)
    except (UnicodeDecodeError, RDFSyntaxError, ValueError) as exc:
        if isinstance(exc, WalCorruptionError):
            raise
        raise WalCorruptionError(f"undecodable WAL payload: {exc}") from exc


def scan_wal(path: str, truncate: bool = False) -> Tuple[List[WalRecord], int]:
    """Read every complete record from a log file.

    Returns ``(records, truncated_bytes)`` where ``truncated_bytes`` counts
    the torn/corrupt tail (short frame, short payload, CRC mismatch, or
    undecodable payload — everything from the first bad frame on). With
    ``truncate=True`` the bad tail is also physically cut from the file, so
    subsequent appends continue from a consistent state.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[WalRecord] = []
    offset, size = 0, len(data)
    while offset < size:
        if size - offset < _HEADER.size:
            break
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > size:
            break
        payload = data[offset + _HEADER.size:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(decode_payload(payload))
        except WalCorruptionError:
            break
        offset = end
    truncated = size - offset
    if truncate and truncated:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
    return records, truncated


class WriteAheadLog:
    """An append-only record log over one file.

    Owns the append handle (opened lazily, line-buffered ``ab``) and the
    written-records/bytes counters surfaced by ``durability_stats()``.
    Appends flush to the OS per record: a process crash — however abrupt —
    loses at most the record being framed at that instant, which the CRC
    then catches on recovery.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None
        self.records_written = 0
        self.bytes_written = 0

    def append(self, record: WalRecord) -> int:
        """Frame + append one record; returns the bytes written."""
        if self._handle is None:
            self._handle = open(self.path, "ab")
        data = encode_record(record)
        self._handle.write(data)
        self._handle.flush()
        self.records_written += 1
        self.bytes_written += len(data)
        return len(data)

    def reset(self) -> None:
        """Truncate the log to empty (called right after a snapshot)."""
        self.close()
        with open(self.path, "wb"):
            pass

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def write_snapshot(triples: Iterable[Triple], path: str, seq: int,
                   version: int) -> int:
    """Write a compacted snapshot atomically; returns the triple count.

    The snapshot is a regular N-Triples document under two header
    comments, ``# lsn=<seq>`` (the last ``seq`` it folds in) and
    ``# version=<version>`` (comments are skipped by every N-Triples
    reader, so the file stays loadable by
    :func:`repro.kg.rdf.load_ntriples`). The write goes to a temp file
    that is fsynced and then ``os.replace``d over the target, so a crash
    mid-snapshot leaves the previous snapshot intact.
    """
    tmp_path = path + ".tmp"
    count = 0
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(f"# lsn={seq}\n# version={version}\n")
        for triple in triples:
            handle.write(triple.n3() + "\n")
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return count


def read_snapshot(path: str) -> Tuple[List[Triple], int, int]:
    """Read a snapshot back as ``(triples, seq, version)``.

    An unheadered file reads as seq 0; a file without ``# version=``
    reads as ``version = seq``.
    """
    seq = 0
    version: Optional[int] = None
    triples: List[Triple] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# lsn="):
                seq = int(line[len("# lsn="):].strip())
            elif line.startswith("# version="):
                version = int(line[len("# version="):].strip())
            else:
                triple = parse_ntriples_line(line)
                if triple is not None:
                    triples.append(triple)
    return triples, seq, seq if version is None else version


def _seq(record: WalRecord) -> int:
    """A record's position in the global order (``lsn`` when unsequenced)."""
    return record.lsn if record.seq is None else record.seq


@dataclass(frozen=True)
class RecoveryReport:
    """What a recovery found: snapshot state, replay extent, damage cut.

    ``snapshot_lsn`` is the last ``seq`` the snapshot folds in;
    ``version`` and ``triples`` describe the recovered store.
    """

    snapshot_lsn: int
    snapshot_triples: int
    records_replayed: int
    truncated_bytes: int
    version: int
    triples: int


class WalEngine:
    """The durability engine behind both durable stores.

    Owns the store's log files, global ``seq`` allocation, the commit step
    (batch → records), the snapshot, recovery, ``snapshot_every``
    autocompaction and the durability counters (the ``kg.wal`` obs
    source). ``paths`` lists the logs; with more than one, ``route`` maps
    a triple's subject to the index of the log that owns it.

    Snapshot-then-reset ordering is crash-safe: a crash between the two
    leaves records whose ``seq`` is ≤ the snapshot's in the logs, and
    replay skips those.
    """

    def __init__(self, store: TripleStore, directory: str,
                 paths: List[str], *,
                 route: Optional[Callable[[IRI], int]] = None,
                 snapshot_every: Optional[int] = None, obs=None):
        self.store = store
        self.paths = list(paths)
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
        self.route = route
        self.snapshot_every = snapshot_every
        self.obs = resolve_obs(obs)
        self.seq = 0
        self.records_since_snapshot = 0
        self.recoveries = 0
        self.truncated_bytes = 0
        self.snapshots_written = 0
        self._logs: Optional[List[WriteAheadLog]] = None  # None while recovering
        for path in self.paths:
            os.makedirs(os.path.dirname(path), exist_ok=True)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Load snapshot + the logs' longest contiguous ``seq`` prefix.

        Torn tails are truncated; records beyond a gap (a run lost to a
        torn tail on one log) are dropped from every log, so the
        recovered state is always one the store actually passed through
        and re-allocated ``seq`` numbers never collide with orphans. The
        logs then open for appends.
        """
        store = self.store
        had_state = any(os.path.exists(path)
                        for path in [self.snapshot_path, *self.paths])
        snap_seq = version = snap_count = 0
        if os.path.exists(self.snapshot_path):
            triples, snap_seq, version = read_snapshot(self.snapshot_path)
            apply_record(store, WalRecord("add", version, tuple(triples)))
            snap_count = len(triples)
        per_log: List[List[WalRecord]] = []
        truncated = 0
        for path in self.paths:
            records, cut = scan_wal(path, truncate=True)
            truncated += cut
            per_log.append([r for r in records if _seq(r) > snap_seq])
        merged = sorted((r for records in per_log for r in records), key=_seq)
        cutoff = snap_seq
        for record in merged:
            if _seq(record) != cutoff + 1:
                break
            apply_record(store, record)
            version = record.lsn
            cutoff += 1
        replayed = cutoff - snap_seq
        if replayed < len(merged):
            truncated += self._drop_orphans(per_log, cutoff)
        store._version = version
        self.seq = cutoff
        self.records_since_snapshot = replayed
        self.truncated_bytes += truncated
        if had_state:
            self.recoveries += 1
            if self.obs.enabled:
                self.obs.count("wal.recoveries")
                if truncated:
                    self.obs.count("wal.truncated_bytes", truncated)
        self._logs = [WriteAheadLog(path) for path in self.paths]
        self.obs.register_source("kg.wal", self.stats)
        return RecoveryReport(
            snapshot_lsn=snap_seq, snapshot_triples=snap_count,
            records_replayed=replayed, truncated_bytes=truncated,
            version=version, triples=len(store))

    def _drop_orphans(self, per_log: List[List[WalRecord]],
                      cutoff: int) -> int:
        """Rewrite each log without its records past ``cutoff``.

        Each rewrite goes to a temp file replaced over the log, so a crash
        mid-rewrite keeps the old log. Returns the bytes dropped.
        """
        dropped = 0
        for path, records in zip(self.paths, per_log):
            keep = [r for r in records if _seq(r) <= cutoff]
            if len(keep) == len(records):
                continue
            dropped += sum(len(encode_record(r)) for r in records[len(keep):])
            rewrite = WriteAheadLog(path + ".tmp")
            rewrite.reset()
            for record in keep:
                rewrite.append(record)
            rewrite.close()
            os.replace(rewrite.path, path)
        return dropped

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def commit(self, op: str, triples: Iterable[Triple]) -> None:
        """Log one just-committed batch; snapshot when one is due.

        The batch becomes one record per run of consecutive triples bound
        for the same log (the whole batch with a single log). ``clear``
        goes to every log, so each log is self-contained; its replay is
        idempotent and the seqs keep the global order.
        """
        logs = self._logs
        if logs is None:
            return  # recovering: the batch is already on disk
        if op == "clear":
            runs = [(index, ()) for index in range(len(logs))]
        elif self.route is None:
            runs = [(0, tuple(triples))]
        else:
            route = self.route
            runs = [(index, tuple(run)) for index, run in
                    groupby(triples, key=lambda t: route(t.subject))]
        lsn = self.store._version
        nbytes = 0
        for index, run in runs:
            self.seq += 1
            nbytes += logs[index].append(WalRecord(op, lsn, run, self.seq))
        if self.obs.enabled:
            self.obs.count("wal.records", len(runs))
            self.obs.count("wal.bytes", nbytes)
        self.records_since_snapshot += 1
        if self.snapshot_every and \
                self.records_since_snapshot >= self.snapshot_every:
            self.snapshot()

    def snapshot(self) -> int:
        """Write a compacted snapshot, then reset every log; returns the count.

        Safe at any point: the snapshot replaces atomically, and only once
        it is durable are the logs truncated.
        """
        store = self.store
        count = write_snapshot(store, self.snapshot_path, self.seq,
                               store._version)
        for log in self._logs or ():
            log.reset()
        self.records_since_snapshot = 0
        self.snapshots_written += 1
        if self.obs.enabled:
            self.obs.count("wal.snapshots")
        return count

    def close(self) -> None:
        """Close every log handle (state on disk stays recoverable)."""
        for log in self._logs or ():
            log.close()

    def stats(self) -> dict:
        """Counters for the observability layer's ``kg.wal`` source."""
        logs = self._logs or ()
        return {
            "wal_records": sum(log.records_written for log in logs),
            "wal_bytes": sum(log.bytes_written for log in logs),
            "snapshots": self.snapshots_written,
            "recoveries": self.recoveries,
            "truncated_bytes": self.truncated_bytes,
            "lsn": self.store._version,
            "seq": self.seq,
            "triples": len(self.store),
            "logs": len(self.paths),
        }


class DurableStore:
    """The durable surface both durable stores share, delegated to a
    :class:`WalEngine` (``self.wal``).

    Construction *is* recovery: :meth:`_open_wal` loads the snapshot,
    replays the logs' consistent prefix and truncates any torn tail,
    after which every effective batch is logged through the
    :meth:`~repro.kg.store.TripleStore._committed` hook.
    """

    wal: WalEngine
    last_recovery: RecoveryReport

    def _open_wal(self, directory: str, paths: List[str],
                  snapshot_every: Optional[int], obs,
                  route: Optional[Callable[[IRI], int]] = None) -> None:
        self.wal = WalEngine(self, directory, paths, route=route,
                             snapshot_every=snapshot_every, obs=obs)
        self.last_recovery = self.wal.recover()

    def _committed(self, op: str, triples: Iterable[Triple]) -> None:
        """Log the just-committed batch (WAL discipline)."""
        self.wal.commit(op, triples)

    def snapshot(self) -> int:
        """Write a compacted snapshot and reset the logs; returns the count."""
        return self.wal.snapshot()

    def close(self) -> None:
        """Release the log file handles (state on disk stays recoverable)."""
        self.wal.close()

    def durability_stats(self) -> dict:
        """Counters for the observability layer's ``kg.wal`` source."""
        return self.wal.stats()


class DurableTripleStore(DurableStore, TripleStore):
    """A :class:`TripleStore` whose mutations survive process crashes.

    State lives in one directory: ``snapshot.nt`` (the compacted base
    image) and ``wal.log`` (batches since the snapshot, one record each).
    ``snapshot_every`` bounds log growth: after that many logged batches
    a compacted snapshot is written and the log reset.
    """

    def __init__(self, directory: str,
                 snapshot_every: Optional[int] = None,
                 obs=None):
        super().__init__()
        self._open_wal(directory, [os.path.join(directory, WAL_FILENAME)],
                       snapshot_every, obs)


def recover(directory: str, *, shards: Optional[int] = None,
            snapshot_every: Optional[int] = None, executor=None,
            obs=None) -> DurableStore:
    """Open the durable store persisted under ``directory``, either layout.

    A directory holding ``manifest.json`` opens as a
    :class:`~repro.kg.sharding.DurableShardedTripleStore` (``shards=None``
    keeps the manifest's count; another count re-routes), and so does a
    new directory when ``shards`` is given; anything else opens as a
    :class:`DurableTripleStore`. The recovery's findings are on the
    returned store's ``last_recovery`` report.

    Raises ``ValueError`` when ``shards`` is given for a directory that
    holds a flat store, whose log a sharded store would not read.
    """
    from repro.kg.sharding import MANIFEST_FILENAME, DurableShardedTripleStore

    sharded = os.path.exists(os.path.join(directory, MANIFEST_FILENAME))
    if shards is not None and not sharded:
        if os.path.exists(os.path.join(directory, WAL_FILENAME)):
            raise ValueError(f"{directory} holds a flat durable store; "
                             f"shards= applies only to the sharded layout")
        sharded = True
    if sharded:
        return DurableShardedTripleStore(
            directory, shards=shards, snapshot_every=snapshot_every,
            executor=executor, obs=obs)
    return DurableTripleStore(directory, snapshot_every=snapshot_every,
                              obs=obs)
