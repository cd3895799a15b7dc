"""Result records and aggregation for simulator runs."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields
from typing import Sequence


@dataclass(frozen=True)
class StrategyResult:
    """Metrics of one compaction strategy on one set of sstables."""

    strategy: str
    n_tables: int
    n_merges: int
    cost_actual: int
    cost_simplified: int
    lopt_entries: int
    bytes_read: int
    bytes_written: int
    io_seconds: float
    simulated_seconds: float
    strategy_overhead_seconds: float
    wall_seconds: float
    # Measured wall clock of the merges alone (see
    # lsm/compaction/executor.py).
    merge_wall_seconds: float = 0.0
    # Serving-phase read metrics (zero when the mix has no reads/scans
    # or the serving phase did not run; see simulator/read_path.py).
    reads: int = 0
    scans: int = 0
    read_hits: int = 0
    read_misses: int = 0
    read_tables_probed: int = 0
    read_bloom_skips: int = 0
    read_bloom_false_positives: int = 0
    read_bytes: int = 0
    scan_tables_probed: int = 0
    scan_tables_pruned: int = 0
    scan_records_scanned: int = 0
    scan_records_returned: int = 0
    # Cluster-level fields (num_shards == 1 with empty vectors for
    # unsharded runs so historical results are unchanged; see
    # cluster/scheduler.py for the makespan/imbalance definitions).
    num_shards: int = 1
    cluster_makespan_seconds: float = 0.0
    shard_imbalance: float = 0.0
    shard_ops: tuple[int, ...] = ()
    shard_costs: tuple[int, ...] = ()
    shard_read_amps: tuple[float, ...] = ()
    # Measured wall clock of phase-1 table generation (shared by every
    # strategy of one run).
    ingest_wall_seconds: float = 0.0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def total_simulated_seconds(self) -> float:
        """Simulated compaction time: scheduled I/O + strategy overhead."""
        return self.simulated_seconds + self.strategy_overhead_seconds

    @property
    def cost_over_lopt(self) -> float:
        """Cost relative to the Fig. 8 lower bound (sum of sstable sizes)."""
        return self.cost_actual / self.lopt_entries if self.lopt_entries else 0.0

    @property
    def read_amplification(self) -> float:
        """Tables probed per point read against this strategy's output."""
        return self.read_tables_probed / self.reads if self.reads else 0.0

    @property
    def bloom_fp_rate(self) -> float:
        """Fraction of read probes the bloom filter let through in vain."""
        return (
            self.read_bloom_false_positives / self.read_tables_probed
            if self.read_tables_probed
            else 0.0
        )


@dataclass(frozen=True)
class AggregateResult:
    """Mean and standard deviation over repeated runs of one strategy."""

    strategy: str
    runs: int
    cost_actual_mean: float
    cost_actual_std: float
    cost_simplified_mean: float
    simulated_seconds_mean: float
    simulated_seconds_std: float
    wall_seconds_mean: float
    strategy_overhead_mean: float
    lopt_entries_mean: float
    merge_wall_seconds_mean: float = 0.0
    # Serving-phase read metrics, averaged over runs (all zero for
    # write-only mixes so historical reports are unchanged).
    reads_mean: float = 0.0
    scans_mean: float = 0.0
    read_amplification_mean: float = 0.0
    bloom_fp_rate_mean: float = 0.0
    read_bytes_mean: float = 0.0
    scan_records_scanned_mean: float = 0.0
    # Cluster-level fields: shard count is constant across runs of one
    # config; the makespan/imbalance headlines and the per-shard load
    # vector are averaged elementwise over runs.
    num_shards: int = 1
    cluster_makespan_mean: float = 0.0
    shard_imbalance_mean: float = 0.0
    shard_ops_mean: tuple[float, ...] = ()
    shard_costs_mean: tuple[float, ...] = ()
    shard_read_amps_mean: tuple[float, ...] = ()
    ingest_wall_seconds_mean: float = 0.0

    @property
    def cost_over_lopt(self) -> float:
        return (
            self.cost_actual_mean / self.lopt_entries_mean
            if self.lopt_entries_mean
            else 0.0
        )


def _std(values: Sequence[float]) -> float:
    return statistics.stdev(values) if len(values) > 1 else 0.0


def _elementwise_mean(
    vectors: Sequence[Sequence[float]],
) -> tuple[float, ...]:
    """Per-shard mean over runs (empty when the vectors are empty)."""
    if not vectors or not vectors[0]:
        return ()
    lengths = {len(vector) for vector in vectors}
    if len(lengths) != 1:
        raise ValueError(f"mixed shard-vector lengths: {sorted(lengths)}")
    return tuple(
        statistics.mean([float(vector[i]) for vector in vectors])
        for i in range(len(vectors[0]))
    )


def aggregate(results: Sequence[StrategyResult]) -> AggregateResult:
    """Aggregate repeated runs of the same strategy."""
    if not results:
        raise ValueError("cannot aggregate zero results")
    names = {result.strategy for result in results}
    if len(names) != 1:
        raise ValueError(f"mixed strategies in aggregation: {sorted(names)}")
    costs = [result.cost_actual for result in results]
    sims = [result.total_simulated_seconds for result in results]
    return AggregateResult(
        strategy=results[0].strategy,
        runs=len(results),
        cost_actual_mean=statistics.mean(costs),
        cost_actual_std=_std(costs),
        cost_simplified_mean=statistics.mean(
            [result.cost_simplified for result in results]
        ),
        simulated_seconds_mean=statistics.mean(sims),
        simulated_seconds_std=_std(sims),
        wall_seconds_mean=statistics.mean(
            [result.wall_seconds for result in results]
        ),
        strategy_overhead_mean=statistics.mean(
            [result.strategy_overhead_seconds for result in results]
        ),
        lopt_entries_mean=statistics.mean(
            [result.lopt_entries for result in results]
        ),
        merge_wall_seconds_mean=statistics.mean(
            [result.merge_wall_seconds for result in results]
        ),
        reads_mean=statistics.mean([result.reads for result in results]),
        scans_mean=statistics.mean([result.scans for result in results]),
        read_amplification_mean=statistics.mean(
            [result.read_amplification for result in results]
        ),
        bloom_fp_rate_mean=statistics.mean(
            [result.bloom_fp_rate for result in results]
        ),
        read_bytes_mean=statistics.mean(
            [result.read_bytes for result in results]
        ),
        scan_records_scanned_mean=statistics.mean(
            [result.scan_records_scanned for result in results]
        ),
        num_shards=results[0].num_shards,
        cluster_makespan_mean=statistics.mean(
            [result.cluster_makespan_seconds for result in results]
        ),
        shard_imbalance_mean=statistics.mean(
            [result.shard_imbalance for result in results]
        ),
        shard_ops_mean=_elementwise_mean(
            [result.shard_ops for result in results]
        ),
        shard_costs_mean=_elementwise_mean(
            [result.shard_costs for result in results]
        ),
        shard_read_amps_mean=_elementwise_mean(
            [result.shard_read_amps for result in results]
        ),
        ingest_wall_seconds_mean=statistics.mean(
            [result.ingest_wall_seconds for result in results]
        ),
    )


def result_fields() -> tuple[str, ...]:
    """Names of the scalar fields of :class:`StrategyResult` (for tables)."""
    return tuple(field.name for field in fields(StrategyResult))
