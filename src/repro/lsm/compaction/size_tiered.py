"""Size-Tiered compaction (Cassandra STCS) — the related-work baseline.

The paper (§1) cites Cassandra's Size-Tiered strategy, "inspired from
Google's Bigtable", which "merges sstables of equal size" and notes its
resemblance to SMALLESTINPUT.  This implementation follows the
documented STCS algorithm:

1. bucket tables whose sizes are within ``[bucket_low, bucket_high]``
   of the bucket's running average,
2. compact any bucket holding at least ``min_threshold`` tables (at most
   ``max_threshold`` per merge),
3. repeat until no bucket qualifies.

With ``until_single=True`` (the default, to compare against the paper's
major-compaction policies) a final merge collapses the remaining tables
into one and garbage-collects tombstones.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..disk import SimulatedDisk
from ..sstable import SSTable, merge_sstables
from .base import CompactionResult, CompactionStrategy


class SizeTieredCompaction(CompactionStrategy):
    """Cassandra's STCS, optionally driven to a single output table."""

    def __init__(
        self,
        min_threshold: int = 4,
        max_threshold: int = 32,
        bucket_low: float = 0.5,
        bucket_high: float = 1.5,
        until_single: bool = True,
        bloom_fp_rate: float = 0.01,
    ) -> None:
        if min_threshold < 2:
            raise ValueError("min_threshold must be at least 2")
        if max_threshold < min_threshold:
            raise ValueError("max_threshold must be >= min_threshold")
        if not 0 < bucket_low <= 1 <= bucket_high:
            raise ValueError("bucket bounds must satisfy 0 < low <= 1 <= high")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.bucket_low = bucket_low
        self.bucket_high = bucket_high
        self.until_single = until_single
        self.bloom_fp_rate = bloom_fp_rate
        self.name = f"size_tiered(min={min_threshold}, max={max_threshold})"

    # ------------------------------------------------------------------
    def _buckets(self, tables: list[SSTable]) -> list[list[SSTable]]:
        """Group tables of similar size (smallest-first, running average)."""
        buckets: list[tuple[float, list[SSTable]]] = []
        for table in sorted(tables, key=lambda t: (t.size_bytes, t.table_id)):
            size = table.size_bytes
            placed = False
            for index, (average, members) in enumerate(buckets):
                if self.bucket_low * average <= size <= self.bucket_high * average:
                    members.append(table)
                    new_average = (average * (len(members) - 1) + size) / len(members)
                    buckets[index] = (new_average, members)
                    placed = True
                    break
            if not placed:
                buckets.append((float(size), [table]))
        return [members for _, members in buckets]

    def _pick_bucket(self, buckets: list[list[SSTable]]) -> list[SSTable] | None:
        eligible = [b for b in buckets if len(b) >= self.min_threshold]
        if not eligible:
            return None
        # Prefer the bucket of smallest tables (cheapest round first).
        chosen = min(eligible, key=lambda b: sum(t.size_bytes for t in b))
        return chosen[: self.max_threshold]

    # ------------------------------------------------------------------
    def compact(
        self,
        tables: Sequence[SSTable],
        disk: SimulatedDisk,
        next_table_id: int,
    ) -> CompactionResult:
        if not tables:
            raise ValueError("nothing to compact")
        started = time.perf_counter()
        live = list(tables)
        cost_actual = 0
        cost_simplified = sum(table.entry_count for table in tables)
        bytes_read = bytes_written = 0
        io_seconds = 0.0
        n_merges = 0
        rounds = 0

        def do_merge(group: list[SSTable], drop: bool) -> SSTable:
            nonlocal cost_actual, cost_simplified, bytes_read, bytes_written
            nonlocal io_seconds, n_merges, next_table_id
            output = merge_sstables(
                group,
                new_table_id=next_table_id,
                drop_tombstones=drop,
                bloom_fp_rate=self.bloom_fp_rate,
            )
            next_table_id += 1
            for table in group:
                io_seconds += disk.read(table.size_bytes)
                bytes_read += table.size_bytes
            io_seconds += disk.write(output.size_bytes)
            bytes_written += output.size_bytes
            cost_actual += sum(t.entry_count for t in group) + output.entry_count
            cost_simplified += output.entry_count
            n_merges += 1
            return output

        while True:
            group = self._pick_bucket(self._buckets(live))
            if group is None:
                break
            rounds += 1
            for table in group:
                live.remove(table)
            live.append(do_merge(group, drop=False))

        if self.until_single and len(live) > 1:
            final = do_merge(live, drop=True)
            live = [final]
        elif self.until_single and len(live) == 1:
            # Single survivor: rewrite once to GC tombstones, as a real
            # major compaction would.
            live = [do_merge(live, drop=True)]

        return CompactionResult(
            strategy_name=self.name,
            input_count=len(tables),
            output_tables=live,
            schedule=None,
            n_merges=n_merges,
            cost_actual_entries=cost_actual,
            cost_simplified_entries=cost_simplified,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            io_seconds=io_seconds,
            simulated_seconds=io_seconds,  # STCS merges serially
            wall_seconds=time.perf_counter() - started,
            extras={"rounds": rounds},
        )
