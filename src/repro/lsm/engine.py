"""The LSM storage engine: the full write and read path of Figure 1.

Writes go WAL -> memtable; a full memtable is flushed as an sstable.
Reads consult the memtable, then sstables newest-first, pruned by bloom
filters — the read path whose fan-out compaction exists to shrink.  The
engine records read-amplification statistics so the effect of a
compaction strategy on reads is directly measurable (the paper's
motivation: "a typical read path may contact multiple sstables, making
disk I/O a bottleneck").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from ..errors import ConfigError, StorageError
from ..ycsb.operations import Operation, OperationType
from .compaction.base import CompactionResult, CompactionStrategy
from .compaction.major import MajorCompaction
from .disk import SimulatedDisk
from .memtable import Memtable, make_memtable
from .record import Record
from .sstable import SSTable
from .wal import WriteAheadLog

_INDEX_BLOCK_BYTES = 64  # charged for a bloom false positive probe


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the storage engine."""

    memtable_capacity: int = 1000
    memtable_mode: str = "map"  # "map" (engine) or "append" (paper simulator)
    bloom_fp_rate: float = 0.01
    default_value_size: int = 100
    use_wal: bool = True

    def __post_init__(self) -> None:
        if self.memtable_capacity < 1:
            raise ConfigError("memtable_capacity must be at least 1")
        if not 0.0 < self.bloom_fp_rate < 1.0:
            raise ConfigError("bloom_fp_rate must be in (0, 1)")
        if self.default_value_size < 0:
            raise ConfigError("default_value_size must be non-negative")
        if self.memtable_mode not in ("map", "append"):
            raise ConfigError("memtable_mode must be 'map' or 'append'")


@dataclass
class ReadStats:
    """Read-path accounting (read amplification observability).

    Point reads count ``reads``/``tables_probed``/``bloom_skips``;
    ``bloom_false_positives`` is the subset of probes where the bloom
    passed but the table did not hold the key (the probe bought only an
    index-block read).  Scans keep their own counters:
    ``scan_records_scanned`` is every sstable record the scan walk
    consumed (charged to the disk), ``scan_records_returned`` the live
    records handed back.  ``read_bytes`` totals all bytes charged on
    behalf of reads and scans.
    """

    reads: int = 0
    memtable_hits: int = 0
    tables_probed: int = 0
    bloom_skips: int = 0
    bloom_false_positives: int = 0
    hits: int = 0
    misses: int = 0
    read_bytes: int = 0
    scans: int = 0
    scan_tables_probed: int = 0
    scan_tables_pruned: int = 0
    scan_records_scanned: int = 0
    scan_records_returned: int = 0

    @property
    def tables_probed_per_read(self) -> float:
        """The engine's observed read amplification."""
        return self.tables_probed / self.reads if self.reads else 0.0

    @property
    def bloom_fp_rate(self) -> float:
        """Fraction of table probes the bloom filter let through in vain."""
        return (
            self.bloom_false_positives / self.tables_probed
            if self.tables_probed
            else 0.0
        )

    @property
    def scan_tables_per_scan(self) -> float:
        """The scan path's analogue of read amplification."""
        return self.scan_tables_probed / self.scans if self.scans else 0.0


class LSMEngine:
    """A single-node LSM key-value store over the simulated disk."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        disk: Optional[SimulatedDisk] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.disk = disk or SimulatedDisk()
        self.memtable: Memtable = make_memtable(
            self.config.memtable_mode, self.config.memtable_capacity
        )
        self.wal = WriteAheadLog(self.disk if self.config.use_wal else None)
        self.sstables: list[SSTable] = []  # oldest first, newest last
        self.read_stats = ReadStats()
        self._seqno = 0
        self._next_table_id = 0
        self.flush_count = 0
        self.user_bytes_written = 0  # payload accepted from callers

    @classmethod
    def open(
        cls,
        directory=None,
        config: Optional[EngineConfig] = None,
        fs=None,
        disk: Optional[SimulatedDisk] = None,
        wal_sync_every: int = 1,
    ):
        """Open (or create) a durable engine rooted at ``directory``.

        Rebuilds the pre-crash state from files alone — manifest, live
        sstables, WAL replay — and returns a
        :class:`~repro.lsm.durable.DurableLSMEngine`.  ``fs`` accepts a
        :mod:`~repro.lsm.faults` filesystem in place of a directory
        (in-memory or fault-injected stores for tests).
        """
        from .durable import DurableLSMEngine

        return DurableLSMEngine.open(
            directory=directory,
            config=config,
            fs=fs,
            disk=disk,
            wal_sync_every=wal_sync_every,
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def _write(self, record: Record) -> None:
        if self.memtable.is_full:
            self.flush()
        if self.config.use_wal:
            self.wal.append(record)
        self.memtable.add(record)
        self.user_bytes_written += record.size_bytes

    def put(
        self,
        key: Hashable,
        value_size: Optional[int] = None,
        value: Optional[bytes] = None,
    ) -> None:
        """Insert or update a key."""
        if value_size is None:
            value_size = len(value) if value is not None else self.config.default_value_size
        self._write(Record.put(key, self._next_seqno(), value_size, value))

    def delete(self, key: Hashable) -> None:
        """Delete a key (writes a tombstone; §5.1)."""
        self._write(Record.delete(key, self._next_seqno()))

    def flush(self) -> Optional[SSTable]:
        """Flush the memtable to a new sstable (Figure 1's dashed arrow)."""
        if self.memtable.is_empty:
            return None
        records = self.memtable.flush_records()
        table = SSTable(
            self._next_table_id, records, bloom_fp_rate=self.config.bloom_fp_rate
        )
        self._next_table_id += 1
        self.disk.write(table.size_bytes)
        self.sstables.append(table)
        self.wal.truncate()
        self.flush_count += 1
        return table

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Record]:
        """Newest live record for ``key``, or ``None`` (absent/deleted)."""
        self.read_stats.reads += 1
        record = self.memtable.get(key)
        if record is not None:
            self.read_stats.memtable_hits += 1
            return self._resolve(record)
        for table in reversed(self.sstables):
            if not table.may_contain(key):
                self.read_stats.bloom_skips += 1
                continue
            self.read_stats.tables_probed += 1
            record = table.get(key)
            if record is not None:
                self.disk.read(record.size_bytes)
                self.read_stats.read_bytes += record.size_bytes
                return self._resolve(record)
            self.read_stats.bloom_false_positives += 1
            self.disk.read(_INDEX_BLOCK_BYTES)  # bloom false positive
            self.read_stats.read_bytes += _INDEX_BLOCK_BYTES
        self.read_stats.misses += 1
        return None

    def _resolve(self, record: Record) -> Optional[Record]:
        if record.tombstone:
            self.read_stats.misses += 1
            return None
        self.read_stats.hits += 1
        return record

    def scan(self, start_key: Hashable, length: int) -> list[Record]:
        """Up to ``length`` live records with key >= ``start_key``.

        Merges the probed sstables and the memtable in ascending key
        order, resolving newest-per-key as it goes (a tombstone shadows
        every older version without producing output) and stopping only
        once ``length`` live records are resolved or every source is
        exhausted — heavily overwritten or tombstoned key ranges extend
        the walk instead of truncating the result.  Tables whose range
        ends before ``start_key`` are pruned without a probe, and every
        sstable record the walk consumes is charged to the simulated
        disk; memtable records are free.
        """
        if length < 1:
            return []
        stats = self.read_stats
        stats.scans += 1
        tails: list[list[Record]] = []
        for table in self.sstables:  # oldest first; seqno ties keep the first
            if start_key > table.max_key:
                stats.scan_tables_pruned += 1
                continue
            stats.scan_tables_probed += 1
            tails.append(table.scan(start_key, table.entry_count))
        tails.append(
            [
                record
                for record in self.memtable.pending_records()
                if record.key >= start_key
            ]
        )
        mem_index = len(tails) - 1
        positions = [0] * len(tails)
        live: list[Record] = []
        while len(live) < length:
            key = None
            for tail, position in zip(tails, positions):
                if position < len(tail):
                    candidate = tail[position].key
                    if key is None or candidate < key:
                        key = candidate
            if key is None:
                break
            best = None
            for index, tail in enumerate(tails):
                position = positions[index]
                if position >= len(tail) or tail[position].key != key:
                    continue
                record = tail[position]
                positions[index] = position + 1
                if index != mem_index:
                    self.disk.read(record.size_bytes)
                    stats.read_bytes += record.size_bytes
                    stats.scan_records_scanned += 1
                if best is None or record.seqno > best.seqno:
                    best = record
            if not best.tombstone:
                live.append(best)
        stats.scan_records_returned += len(live)
        return live

    # ------------------------------------------------------------------
    # Workload driving
    # ------------------------------------------------------------------
    def apply(self, operation: Operation) -> Optional[object]:
        """Apply one YCSB operation."""
        if operation.type in (OperationType.INSERT, OperationType.UPDATE):
            self.put(operation.key, value_size=operation.value_size)
            return None
        if operation.type is OperationType.DELETE:
            self.delete(operation.key)
            return None
        if operation.type is OperationType.READ:
            return self.get(operation.key)
        if operation.type is OperationType.SCAN:
            return self.scan(operation.key, operation.scan_length or 1)
        raise StorageError(f"unsupported operation {operation.type}")

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(
        self, strategy: Optional[CompactionStrategy] = None
    ) -> CompactionResult:
        """Run a compaction over all on-disk sstables.

        Flushes the memtable first so the result covers every write, then
        replaces the engine's tables with the strategy's output.
        """
        self.flush()
        if not self.sstables:
            raise StorageError("nothing to compact: no sstables on disk")
        strategy = strategy or MajorCompaction("balance_tree_input")
        result = strategy.compact(self.sstables, self.disk, self._next_table_id)
        self.sstables = list(result.output_tables)
        if self.sstables:
            self._next_table_id = (
                max(table.table_id for table in self.sstables) + 1
            )
        return result

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def simulate_crash_and_recover(
        self, config: Optional[EngineConfig] = None
    ) -> "LSMEngine":
        """Model a process crash and WAL-based recovery.

        The memtable (volatile) is lost; sstables and the WAL (durable)
        survive.  Recovery replays the WAL into a fresh memtable, exactly
        as a real LSM store starts up.  Returns the recovered engine;
        with ``use_wal=False`` any unflushed writes are gone — the
        trade-off the WAL exists to prevent.  ``config`` restarts the
        engine under different tunables (e.g. a smaller memtable, which
        can force flushes mid-replay that the crashed process never hit).
        """
        config = config or self.config
        recovered = LSMEngine(config, disk=self.disk)
        recovered.sstables = list(self.sstables)
        recovered._next_table_id = self._next_table_id
        max_disk_seqno = max(
            (record.seqno for table in self.sstables for record in table.records),
            default=0,
        )
        survivors = self.wal.replay() if self.config.use_wal else []
        max_wal_seqno = max((record.seqno for record in survivors), default=0)
        recovered._seqno = max(max_disk_seqno, max_wal_seqno)
        # Survivors re-enter the new WAL via restore(): they are already
        # durable in the pre-crash log, so recovery must not re-bill the
        # disk or bytes_appended_total for them.
        if config.use_wal:
            recovered.wal.restore(survivors)
        for index, record in enumerate(survivors):
            if recovered.memtable.is_full:
                # flush() truncates the recovered log wholesale, but the
                # survivors not yet replayed exist nowhere else — put
                # them back so a second crash mid-recovery still finds
                # them in the log.
                recovered.flush()
                if config.use_wal:
                    recovered.wal.restore(survivors[index:])
            recovered.memtable.add(record)
        return recovered

    # ------------------------------------------------------------------
    @property
    def table_count(self) -> int:
        return len(self.sstables)

    @property
    def total_entries_on_disk(self) -> int:
        return sum(table.entry_count for table in self.sstables)
