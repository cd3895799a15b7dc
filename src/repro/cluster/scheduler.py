"""Cluster-level compaction scheduling and cross-shard aggregation.

Each shard runs its compaction schedule independently (one engine and
one strategy instance per shard), but a real cluster shares its I/O
lanes: :class:`ClusterScheduler` models the cluster as ``lanes``
identical lanes and packs the per-shard compaction jobs onto them with
the deterministic LPT (longest-processing-time-first) rule.  The
resulting **global makespan** is the cluster's simulated compaction
time — the number a capacity planner would compare against an
unsharded run's makespan.

Beyond the makespan the scheduler reports the cross-shard load shape:

* ``shard_ops`` / ``shard_costs`` / ``shard_read_amps`` — per-shard
  routed operations, ``costactual`` and read amplification;
* ``imbalance`` — the p99/mean ratio of per-shard routed operations
  (nearest-rank p99), the standard skew headline: 1.0 means perfectly
  even, large values mean a few hot shards dominate.

:func:`combine_shard_results` folds one label's per-shard
:class:`~repro.simulator.metrics.StrategyResult` rows into a single
cluster-level row whose additive counters (costs, bytes, reads) are
sums, whose ``simulated_seconds`` is the scheduler's global makespan,
and whose ``strategy_overhead_seconds`` is the per-shard sum — the
quantity that answers whether an estimation-heavy policy's overhead
amortizes under sharding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError
from ..simulator.metrics import StrategyResult


def nearest_rank_percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (q in (0, 1]) of ``values``."""
    if not values:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"percentile q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def imbalance_p99_over_mean(values: Sequence[float]) -> float:
    """p99/mean of a per-shard load vector (0.0 for an empty/zero one)."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    return nearest_rank_percentile(values, 0.99) / mean


@dataclass(frozen=True)
class ClusterMetrics:
    """Cross-shard shape of one strategy's run on a sharded cluster."""

    num_shards: int
    makespan_seconds: float
    imbalance: float  # p99/mean of per-shard routed operations
    shard_ops: tuple[int, ...]
    shard_costs: tuple[int, ...]
    shard_read_amps: tuple[float, ...]
    shard_simulated_seconds: tuple[float, ...]


class ClusterScheduler:
    """Packs per-shard compaction jobs onto a shared lane budget."""

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise ConfigError(f"cluster lanes must be at least 1, got {lanes}")
        self.lanes = lanes

    def makespan(self, durations: Sequence[float]) -> float:
        """LPT makespan of ``durations`` on ``self.lanes`` lanes.

        Deterministic: jobs sorted by (duration desc, index asc), each
        assigned to the least-loaded lane (lowest index on ties).
        """
        lanes = [0.0] * min(self.lanes, max(1, len(durations)))
        jobs = sorted(
            enumerate(durations), key=lambda pair: (-pair[1], pair[0])
        )
        for _, duration in jobs:
            lane = min(range(len(lanes)), key=lambda i: (lanes[i], i))
            lanes[lane] += duration
        return max(lanes) if lanes else 0.0

    def metrics(
        self, shard_ops: Sequence[int], shard_results: Sequence[StrategyResult]
    ) -> ClusterMetrics:
        """Cluster metrics for one label's per-shard results."""
        simulated = tuple(r.simulated_seconds for r in shard_results)
        return ClusterMetrics(
            num_shards=len(shard_results),
            makespan_seconds=self.makespan(simulated),
            imbalance=imbalance_p99_over_mean([float(n) for n in shard_ops]),
            shard_ops=tuple(int(n) for n in shard_ops),
            shard_costs=tuple(r.cost_actual for r in shard_results),
            shard_read_amps=tuple(r.read_amplification for r in shard_results),
            shard_simulated_seconds=simulated,
        )


def combine_shard_results(
    label: str,
    shard_ops: Sequence[int],
    shard_results: Sequence[StrategyResult],
    scheduler: ClusterScheduler,
) -> StrategyResult:
    """One cluster-level :class:`StrategyResult` from per-shard rows.

    Additive counters are summed across shards; ``simulated_seconds``
    becomes the scheduler's global makespan under the shared lane
    budget; the per-shard vectors and the imbalance headline ride along
    in the cluster fields.
    """
    if not shard_results:
        raise ConfigError("combine_shard_results needs at least one shard")
    if any(r.strategy != label for r in shard_results):
        raise ConfigError(
            f"mixed strategy labels in shard results for {label!r}"
        )
    metrics = scheduler.metrics(shard_ops, shard_results)
    return StrategyResult(
        strategy=label,
        n_tables=sum(r.n_tables for r in shard_results),
        n_merges=sum(r.n_merges for r in shard_results),
        cost_actual=sum(r.cost_actual for r in shard_results),
        cost_simplified=sum(r.cost_simplified for r in shard_results),
        lopt_entries=sum(r.lopt_entries for r in shard_results),
        bytes_read=sum(r.bytes_read for r in shard_results),
        bytes_written=sum(r.bytes_written for r in shard_results),
        io_seconds=sum(r.io_seconds for r in shard_results),
        simulated_seconds=metrics.makespan_seconds,
        strategy_overhead_seconds=sum(
            r.strategy_overhead_seconds for r in shard_results
        ),
        wall_seconds=sum(r.wall_seconds for r in shard_results),
        merge_wall_seconds=sum(r.merge_wall_seconds for r in shard_results),
        reads=sum(r.reads for r in shard_results),
        scans=sum(r.scans for r in shard_results),
        read_hits=sum(r.read_hits for r in shard_results),
        read_misses=sum(r.read_misses for r in shard_results),
        read_tables_probed=sum(r.read_tables_probed for r in shard_results),
        read_bloom_skips=sum(r.read_bloom_skips for r in shard_results),
        read_bloom_false_positives=sum(
            r.read_bloom_false_positives for r in shard_results
        ),
        read_bytes=sum(r.read_bytes for r in shard_results),
        scan_tables_probed=sum(r.scan_tables_probed for r in shard_results),
        scan_tables_pruned=sum(r.scan_tables_pruned for r in shard_results),
        scan_records_scanned=sum(
            r.scan_records_scanned for r in shard_results
        ),
        scan_records_returned=sum(
            r.scan_records_returned for r in shard_results
        ),
        num_shards=len(shard_results),
        cluster_makespan_seconds=metrics.makespan_seconds,
        shard_imbalance=metrics.imbalance,
        shard_ops=metrics.shard_ops,
        shard_costs=metrics.shard_costs,
        shard_read_amps=metrics.shard_read_amps,
    )
