"""The serving read path: replay READ/SCAN ops against a policy's tables.

Phase 1 produces sstables, phase 2 compacts them; this module answers
the question the paper poses but never measures — what those tables cost
to *read*.  :func:`serve_reads` replays the collected
:class:`~repro.ycsb.workload.ReadOpColumns` (point lookups and range
scans) against a final sstable set and returns a
:class:`ReadPhaseResult`: read amplification (tables probed per read),
bloom skip/false-positive counts, bytes charged, and the scan walk's
accounting.

Two kernels, differentially certified bit-identical:

* **scalar** — the reference: an :class:`~repro.lsm.engine.LSMEngine`
  with an empty memtable serves every op through its ordinary
  ``get``/``scan`` path, and the result is its ``ReadStats``.
* **batched** — point lookups run columnar over all
  queries at once (range masks + :meth:`BloomFilter.contains_batch` +
  :meth:`SSTable.get_batch`, tables newest to oldest, resolving queries
  as they hit), and each scan resolves its stop key with a windowed
  ``lexsort`` merge before charging the consumed slices in bulk.

:func:`serve_reads` uses the batched kernel whenever numpy is
importable and every table exposes an int64 column view
(:meth:`SSTable.columns` is not ``None``), and the scalar engine
otherwise; :attr:`ReadPhaseResult.kernel_used` says which one ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..lsm.disk import SimulatedDisk
from ..lsm.engine import _INDEX_BLOCK_BYTES, EngineConfig, LSMEngine
from ..lsm.record import ENTRY_OVERHEAD_BYTES
from ..lsm.sstable import SSTable, TableColumns
from ..ycsb.workload import ReadOpColumns

try:  # optional acceleration; the scalar engine needs no numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

#: The windowed scan resolver's smallest per-table slice; windows grow
#: geometrically from here, so short scans over heavily-shadowed ranges
#: converge in a couple of rounds instead of many tiny ones.
_MIN_SCAN_WINDOW = 16


@dataclass(frozen=True)
class ReadPhaseResult:
    """Accounting of one serving phase (mirrors the engine's ReadStats).

    ``tables_probed`` counts actual probes (range check and bloom both
    passed); ``bloom_skips`` the tables a read skipped via the range
    check or the bloom; ``bloom_false_positives`` the probes where the
    bloom passed but the key was absent.  ``read_bytes`` totals every
    byte charged on behalf of gets and scans.
    """

    reads: int = 0
    hits: int = 0
    misses: int = 0
    tables_probed: int = 0
    bloom_skips: int = 0
    bloom_false_positives: int = 0
    read_bytes: int = 0
    scans: int = 0
    scan_tables_probed: int = 0
    scan_tables_pruned: int = 0
    scan_records_scanned: int = 0
    scan_records_returned: int = 0
    kernel_used: str = "scalar"

    @property
    def read_amplification(self) -> float:
        """Tables probed per point read — the paper's motivating metric."""
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


def serve_reads(
    tables: Sequence[SSTable],
    read_ops: ReadOpColumns,
) -> ReadPhaseResult:
    """Replay ``read_ops`` against ``tables`` and account the cost.

    Both kernels produce identical counts; the differential harness in
    tests/simulator/test_read_path.py enforces it.
    """
    result = _serve_batched(tables, read_ops)
    if result is None:
        result = _serve_scalar(tables, read_ops)
    return result


def _serve_scalar(
    tables: Sequence[SSTable], read_ops: ReadOpColumns
) -> ReadPhaseResult:
    """The reference kernel: the real engine's get/scan over the tables."""
    engine = LSMEngine(EngineConfig(use_wal=False), disk=SimulatedDisk())
    engine.sstables = list(tables)
    for key in read_ops.read_keynums:
        engine.get(key)
    for start, length in zip(read_ops.scan_keynums, read_ops.scan_lengths):
        engine.scan(start, length)
    stats = engine.read_stats
    return ReadPhaseResult(
        reads=stats.reads,
        hits=stats.hits,
        misses=stats.misses,
        tables_probed=stats.tables_probed,
        bloom_skips=stats.bloom_skips,
        bloom_false_positives=stats.bloom_false_positives,
        read_bytes=stats.read_bytes,
        scans=stats.scans,
        scan_tables_probed=stats.scan_tables_probed,
        scan_tables_pruned=stats.scan_tables_pruned,
        scan_records_scanned=stats.scan_records_scanned,
        scan_records_returned=stats.scan_records_returned,
        kernel_used="scalar",
    )


def _serve_batched(
    tables: Sequence[SSTable], read_ops: ReadOpColumns
) -> Optional[ReadPhaseResult]:
    """The columnar kernel, or ``None`` when it does not apply."""
    if _np is None:
        return None
    columns = [table.columns() for table in tables]
    if any(column is None for column in columns):
        return None

    # ------------------------------------------------------------------
    # Point lookups: all queries at once, tables newest to oldest.
    # A query stays "open" until some table holds its key; each table
    # sees only the still-open queries, exactly like the scalar probe
    # order (range check, then bloom, then the binary search).
    # ------------------------------------------------------------------
    queries = _np.asarray(read_ops.read_keynums, dtype=_np.int64)
    reads = int(queries.size)
    hits = misses = 0
    tables_probed = bloom_skips = bloom_false_positives = 0
    read_bytes = 0
    if reads:
        open_mask = _np.ones(reads, dtype=bool)
        for table, column in zip(reversed(tables), reversed(columns)):
            active = _np.flatnonzero(open_mask)
            if active.size == 0:
                break
            active_keys = queries[active]
            in_range = (active_keys >= table.min_key) & (
                active_keys <= table.max_key
            )
            candidates = active[in_range]
            if candidates.size == 0:
                bloom_skips += int(active.size)
                continue
            passed = table.bloom.contains_batch(queries[candidates])
            if passed is None:  # pragma: no cover - int64 queries always batch
                return None
            probe = candidates[passed]
            bloom_skips += int(active.size) - int(probe.size)
            if probe.size == 0:
                continue
            tables_probed += int(probe.size)
            rows = table.get_batch(queries[probe])
            if rows is None:  # pragma: no cover - columns checked above
                return None
            found_mask = rows >= 0
            n_found = int(found_mask.sum())
            n_false = int(probe.size) - n_found
            bloom_false_positives += n_false
            read_bytes += n_false * _INDEX_BLOCK_BYTES
            if n_found:
                found_rows = rows[found_mask]
                # Int keys contribute no key bytes (Record.size_bytes).
                read_bytes += n_found * ENTRY_OVERHEAD_BYTES + int(
                    column.value_sizes[found_rows].sum()
                )
                if column.tombstones is not None:
                    dead = int(column.tombstones[found_rows].sum())
                else:
                    dead = 0
                misses += dead
                hits += n_found - dead
                open_mask[probe[found_mask]] = False
        misses += int(open_mask.sum())

    # ------------------------------------------------------------------
    # Range scans: resolve each scan's stop key with a windowed merge,
    # then charge the consumed slice of every probed table in bulk.
    # ------------------------------------------------------------------
    scans = scan_tables_probed = scan_tables_pruned = 0
    scan_records_scanned = scan_records_returned = 0
    n_tables = len(tables)
    if read_ops.scan_count and n_tables:
        max_keys = _np.fromiter(
            (table.max_key for table in tables), dtype=_np.int64, count=n_tables
        )
    else:
        max_keys = None
    for start, length in zip(read_ops.scan_keynums, read_ops.scan_lengths):
        if length < 1:
            continue
        scans += 1
        if max_keys is None:
            continue
        probed = _np.flatnonzero(max_keys >= start)
        scan_tables_pruned += n_tables - int(probed.size)
        scan_tables_probed += int(probed.size)
        if probed.size == 0:
            continue
        scan_columns = [columns[index] for index in probed]
        starts = [
            int(_np.searchsorted(column.keys, start)) for column in scan_columns
        ]
        stop_key, returned = _scan_resolve(scan_columns, starts, length)
        scan_records_returned += returned
        for column, lo in zip(scan_columns, starts):
            hi = (
                int(column.keys.size)
                if stop_key is None
                else int(_np.searchsorted(column.keys, stop_key, side="right"))
            )
            consumed = hi - lo
            if consumed <= 0:
                continue
            scan_records_scanned += consumed
            read_bytes += consumed * ENTRY_OVERHEAD_BYTES + int(
                column.value_sizes[lo:hi].sum()
            )

    return ReadPhaseResult(
        reads=reads,
        hits=hits,
        misses=misses,
        tables_probed=tables_probed,
        bloom_skips=bloom_skips,
        bloom_false_positives=bloom_false_positives,
        read_bytes=read_bytes,
        scans=scans,
        scan_tables_probed=scan_tables_probed,
        scan_tables_pruned=scan_tables_pruned,
        scan_records_scanned=scan_records_scanned,
        scan_records_returned=scan_records_returned,
        kernel_used="batched",
    )


def _scan_resolve(
    scan_columns: Sequence[TableColumns],
    starts: Sequence[int],
    length: int,
) -> tuple[Optional[int], int]:
    """One scan's stop key and live-record count via a windowed merge.

    Takes a window of each probed table's tail, merges the windows with
    the same ``lexsort`` tie-break as the compaction kernel (newest
    seqno per key wins; equal seqnos keep the oldest table, matching
    the scalar walk's strict ``>``), and counts live (non-tombstone)
    keys up to the *safe bound* — the smallest last key among truncated
    windows, beyond which an unseen record could still shadow a key.
    Returns ``(stop_key, length)`` once the ``length``-th live key is
    certain, or ``(None, live_count)`` when every table is exhausted
    first; the caller charges each table's ``[start, stop_key]`` slice,
    exactly the records the scalar walk consumes.
    """
    window = max(length, _MIN_SCAN_WINDOW)
    while True:
        segment_keys = []
        segment_seqnos = []
        segment_tombstones = []
        segment_streams = []
        truncated_edges = []
        for stream, (column, lo) in enumerate(zip(scan_columns, starts)):
            hi = min(lo + window, int(column.keys.size))
            if hi <= lo:
                continue
            keys = column.keys[lo:hi]
            segment_keys.append(keys)
            segment_seqnos.append(column.seqnos[lo:hi])
            if column.tombstones is not None:
                segment_tombstones.append(column.tombstones[lo:hi])
            else:
                segment_tombstones.append(_np.zeros(hi - lo, dtype=bool))
            segment_streams.append(_np.full(hi - lo, stream, dtype=_np.int64))
            if hi < int(column.keys.size):
                truncated_edges.append(int(keys[-1]))
        if not segment_keys:
            return None, 0
        keys = _np.concatenate(segment_keys)
        seqnos = _np.concatenate(segment_seqnos)
        tombstones = _np.concatenate(segment_tombstones)
        streams = _np.concatenate(segment_streams)
        order = _np.lexsort((-streams, seqnos, keys))
        sorted_keys = keys[order]
        newest = _np.empty(sorted_keys.shape, dtype=bool)
        newest[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        newest[-1] = True
        unique_keys = sorted_keys[newest]
        live_mask = ~tombstones[order][newest]
        if truncated_edges:
            live_mask = live_mask & (unique_keys <= min(truncated_edges))
        live_keys = unique_keys[live_mask]
        if int(live_keys.size) >= length:
            return int(live_keys[length - 1]), length
        if not truncated_edges:
            return None, int(live_keys.size)
        window *= 4
