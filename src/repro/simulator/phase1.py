"""Phase 1 of the simulator: create sstables from YCSB operations.

"YCSB's load and run phases generate operations which are first inserted
into a fixed size (number of keys) memtable.  When the memtable is full,
it is flushed as an sstable and a new empty memtable is created for
subsequent writes." (paper §5.1)

The workload emits its whole operation stream as columns
(:meth:`~repro.ycsb.workload.CoreWorkload.op_stream_columns`, which
vectorizes the Gray-sampling choosers and drops read/scan ops after
consuming their rng draws).  The write stream is cut into flush slabs —
static ``capacity``-sized ranges in append mode (capacity counts
operations) or **data-dependent** ranges in map mode (capacity counts
distinct keys; a chunked running distinct-count kernel finds the exact
operation index of every flush) — and each slab is deduplicated to a
sorted newest-per-key run with one argsort: an array-native
:class:`~repro.lsm.sstable.SSTable` per flush, no ``Operation``/``Record``
objects, no per-op engine dispatch.  Without numpy the same slabs fill
the mode's :class:`~repro.lsm.memtable.Memtable` through one
``add_batch`` call each, reusing the engine's dedup code, and the
map-mode boundaries come from
:func:`~repro.lsm.memtable.distinct_capacity_boundaries`.

The tables are bit-identical to driving the real LSM engine operation by
operation (WAL disabled; the paper's simulator has none).  That loop is
the test oracle in ``tests/oracles/phase1.py``; the differential
harness under ``tests/simulator/`` holds the two byte-identical, with
numpy and without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from ..lsm.memtable import distinct_capacity_boundaries, make_memtable
from ..lsm.record import Record
from ..lsm.sstable import SSTable
from ..ycsb.workload import CoreWorkload, ReadOpColumns
from .config import SimulationConfig

try:  # optional acceleration; the pure path batches through the memtable
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

#: Upper bound on the map-mode distinct-count scan's chunk length; the
#: effective chunk also tracks the capacity so tiny memtables (many
#: boundaries per chunk) do not rescan long chunks per epoch.
_DISTINCT_CHUNK = 4096


@dataclass
class Phase1Result:
    """The sstables generated by one workload run."""

    tables: list[SSTable]
    total_operations: int
    total_entries: int  # sum of sstable entry counts = the LOPT of Fig. 8
    #: The pipeline that produced the tables; always "fast" here (the
    #: op-at-a-time test oracle reports "reference").  Benchmark
    #: harnesses record it.
    plane_used: str = "fast"
    #: The READ/SCAN operations of the stream, collected whenever the
    #: mix has a read or scan share — the serving phase replays them
    #: against each policy's compacted sstable set.  ``None`` for
    #: write-only mixes.
    read_ops: Optional[ReadOpColumns] = None
    #: Wall clock of table generation.
    ingest_wall_seconds: float = 0.0

    @property
    def n_tables(self) -> int:
        return len(self.tables)


def generate_sstables(config: SimulationConfig) -> Phase1Result:
    """Run load + run phases through a memtable; return the flushed tables.

    Reads never reach the memtable ("Thus, we ignore both of them in our
    simulation", §5.1) — they are dropped after consuming their rng
    draws, so mixes with reads/scans still produce the sstables of their
    write stream.
    """
    workload = CoreWorkload(config.workload_config())
    stream = workload.op_stream_columns(include_read_ops=_wants_read_ops(config))
    ingest_start = perf_counter()
    tables = build_tables_from_columns(
        stream.write_keynums, stream.tombstone_positions, config
    )
    ingest_wall = perf_counter() - ingest_start
    if config.storage == "disk":
        tables = spill_tables_to_disk(tables, wal_sync_every=config.wal_sync_every)
    return Phase1Result(
        tables=tables,
        total_operations=stream.total_operations,
        total_entries=sum(table.entry_count for table in tables),
        read_ops=stream.read_ops,
        ingest_wall_seconds=ingest_wall,
    )


def spill_tables_to_disk(
    tables: list[SSTable], wal_sync_every: int = 1
) -> list[SSTable]:
    """Round-trip every table through the on-disk sstable format.

    ``storage="disk"`` writes each flushed table as a real CRC-checked
    sstable file and reloads it before phase 2, so the rest of the run
    operates on tables that survived serialization.  The format
    round-trip is byte-identical (see docs/durability.md), so every
    downstream result — schedules, costs, figures — matches
    ``storage="memory"`` exactly; only real file I/O is added.

    ``wal_sync_every`` models the durable ingest path's group commit:
    before each table spills, its records are framed through a rotating
    file WAL segment synced every Nth append — the same
    :class:`~repro.lsm.format.wal.FileWriteAheadLog` knob the durable
    engine exposes — and the segment is retired once the sstable has
    round-tripped, exactly like a flush retiring its WAL.  Tables and
    every downstream metric are unchanged by the knob; only the real
    file traffic (and its sync cadence) varies.
    """
    import tempfile
    from pathlib import Path

    from ..lsm.faults import LocalFileSystem
    from ..lsm.format.wal import FileWriteAheadLog

    spilled: list[SSTable] = []
    with tempfile.TemporaryDirectory(prefix="repro-sst-") as tmpdir:
        fs = LocalFileSystem(Path(tmpdir))
        for index, table in enumerate(tables):
            wal = FileWriteAheadLog(
                fs, name=f"wal-{index:06d}.log", sync_every=wal_sync_every
            )
            for record in table.records:
                wal.append(record)
            wal.sync()
            wal.close()
            path = Path(tmpdir) / f"{table.table_id:06d}.sst"
            table.to_file(path)
            spilled.append(SSTable.from_file(path))
            fs.remove(f"wal-{index:06d}.log")
    return spilled


def _wants_read_ops(config: SimulationConfig) -> bool:
    """True when the mix has a read or scan share to serve after phase 1."""
    return config.read_fraction > 0.0 or config.scan_fraction > 0.0


def build_tables_from_columns(
    keynums, tombstone_positions, config: SimulationConfig
) -> list[SSTable]:
    """Flush a write column into sstables exactly like phase 1.

    The sharded engine feeds each shard's write column through this with
    shard-local indices, so per-shard seqnos restart at 1 — each shard
    is an independent engine with its own seqno space.  ``keynums`` may
    be a list or an int64 array; ``tombstone_positions`` indexes into it.
    """
    capacity = config.memtable_capacity
    if _np is not None:
        key_array = _np.asarray(keynums, dtype=_np.int64)
        if config.memtable_mode == "map":
            slabs = _map_mode_slabs_columnar(key_array, capacity)
        else:
            slabs = _append_mode_slabs(int(key_array.size), capacity)
        return _flush_slabs_columnar(
            key_array, list(tombstone_positions), slabs, config
        )
    keys = [int(key) for key in keynums]
    if config.memtable_mode == "map":
        slabs = distinct_capacity_boundaries(keys, capacity)
    else:
        slabs = _append_mode_slabs(len(keys), capacity)
    return _flush_slabs_pure(keys, list(tombstone_positions), slabs, config)


def _append_mode_slabs(total_writes: int, capacity: int) -> list[tuple[int, int]]:
    """Append mode flushes after exactly ``capacity`` operations."""
    return [
        (start, min(start + capacity, total_writes))
        for start in range(0, total_writes, capacity)
    ]


def _map_mode_slabs_columnar(
    keynums: "_np.ndarray", capacity: int
) -> list[tuple[int, int]]:
    """Data-dependent flush boundaries via a running distinct-count scan.

    The engine flushes a map-mode memtable before the first write after
    its distinct-key count reaches ``capacity``, so each epoch ends on
    the write that first brings the count to capacity.  The stream is
    scanned in chunks: ``np.unique`` finds each chunk's first
    occurrences, an ``isin`` merge against the epoch's seen-key set
    keeps only keys new to the epoch, and a sort of their positions
    locates the capacity-th distinct key exactly.  Epochs that end
    mid-chunk restart the scan at the boundary, so the kernel lands
    flushes on exactly the same operation indices as
    :func:`~repro.lsm.memtable.distinct_capacity_boundaries` (the pure
    reference it is differentially tested against).
    """
    n = int(keynums.size)
    chunk_len = min(_DISTINCT_CHUNK, max(64, 2 * capacity))
    boundaries: list[tuple[int, int]] = []
    empty = _np.empty(0, dtype=_np.int64)
    seen = empty
    count = 0
    start = 0
    pos = 0
    while pos < n:
        chunk = keynums[pos : min(pos + chunk_len, n)]
        uniq, first = _np.unique(chunk, return_index=True)
        if seen.size:
            fresh_first = first[~_np.isin(uniq, seen, assume_unique=True)]
        else:
            fresh_first = first
        if count + fresh_first.size < capacity:
            # Epoch keeps growing past this chunk.
            count += int(fresh_first.size)
            seen = _np.union1d(seen, uniq)
            pos += int(chunk.size)
            continue
        # Capacity is reached inside this chunk: the epoch ends at the
        # first occurrence of its capacity-th distinct key.
        fresh_positions = _np.sort(fresh_first)
        boundary = pos + int(fresh_positions[capacity - count - 1]) + 1
        boundaries.append((start, boundary))
        start = pos = boundary
        seen = empty
        count = 0
    if start < n:
        boundaries.append((start, n))
    return boundaries


def _flush_slabs_columnar(
    keynums: "_np.ndarray",
    tombstone_positions: list[int],
    slabs: list[tuple[int, int]],
    config: SimulationConfig,
) -> list[SSTable]:
    """Dedupe each flush slab with one stable argsort.

    The stable argsort keeps equal keys in write order, so the last
    entry of every equal-key run is the newest version — exactly the
    record both memtable flavours' dict dedup keeps at flush.  Works
    unchanged for static (append-mode) and data-dependent (map-mode)
    slab ranges.
    """
    tombstones = None
    if tombstone_positions:
        tombstones = _np.zeros(keynums.shape, dtype=bool)
        tombstones[_np.asarray(tombstone_positions, dtype=_np.intp)] = True
    value_size = config.value_size
    tables: list[SSTable] = []
    for table_id, (start, stop) in enumerate(slabs):
        slab_keys = keynums[start:stop]
        order = _np.argsort(slab_keys, kind="stable")
        sorted_keys = slab_keys[order]
        newest = _np.empty(sorted_keys.shape, dtype=bool)
        newest[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        newest[-1] = True
        survivors = order[newest]
        seqnos = survivors + (start + 1)  # seqno = 1-based write index
        if tombstones is not None:
            slab_tombstones = tombstones[start:stop][survivors]
            value_sizes = _np.where(slab_tombstones, 0, value_size)
        else:
            slab_tombstones = None
            value_sizes = value_size
        tables.append(
            SSTable.from_columns(
                table_id,
                sorted_keys[newest],
                seqnos,
                value_sizes,
                slab_tombstones,
                bloom_fp_rate=config.bloom_fp_rate,
            )
        )
    return tables


def _flush_slabs_pure(
    keynums: list[int],
    tombstone_positions: list[int],
    slabs: list[tuple[int, int]],
    config: SimulationConfig,
) -> list[SSTable]:
    """Numpy-less slab pipeline: batch-fill the mode's memtable and flush."""
    tombstone_set = set(tombstone_positions)
    value_size = config.value_size
    tables: list[SSTable] = []
    for table_id, (start, stop) in enumerate(slabs):
        memtable = make_memtable(config.memtable_mode, config.memtable_capacity)
        memtable.add_batch(
            [
                Record.delete(keynums[index], index + 1)
                if index in tombstone_set
                else Record(key=keynums[index], seqno=index + 1, value_size=value_size)
                for index in range(start, stop)
            ]
        )
        tables.append(
            SSTable(
                table_id,
                memtable.flush_records(),
                bloom_fp_rate=config.bloom_fp_rate,
            )
        )
    return tables
