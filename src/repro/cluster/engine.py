"""Sharded execution: one independent engine per keyspace shard.

A sharded run models a scale-out deployment: the partitioner routes the
YCSB op stream over ``config.num_shards`` shards, each shard runs the
full two-phase simulation independently (its own memtable/seqno space,
its own strategy instance), and the :class:`ClusterScheduler` folds the
per-shard schedules into cluster metrics.

Determinism and seeding
-----------------------
Everything is a pure function of ``(config, labels, run_index,
shard_id)``:

* the op stream comes from the workload's certified columnar generator
  (bit-identical to the scalar reference loop), seeded exactly like the
  unsharded cell (``config.seed + run_index``);
* shard ``s`` seeds its strategy with :func:`shard_seed` —
  ``seed + 1_000_003 * s`` — so RANDOM-style policies draw independent
  streams per shard while shard 0 keeps the base seed (which is what
  makes a ``num_shards=1`` sharded run byte-identical to the unsharded
  baseline, RANDOM included);
* the ``--jobs`` fan-out only changes *where* a shard task runs, never
  what it computes: a worker regenerates the shard's stream from the
  config alone, so results are byte-stable for any job count.

The differential harness in tests/cluster/test_sharded_engine.py pins
the ``num_shards=1`` identity and the jobs byte-stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import ConfigError
from ..simulator.config import SimulationConfig
from ..simulator.metrics import StrategyResult
from ..simulator.phase1 import build_tables_from_columns, spill_tables_to_disk
from ..simulator.phase2 import run_strategy
from ..simulator.pool import map_in_order
from ..ycsb.workload import CoreWorkload, ReadOpColumns
from .partitioner import ShardStream, make_partitioner, split_stream
from .scheduler import ClusterScheduler, combine_shard_results

#: Seed stride between shards.  Large and odd so per-shard RANDOM
#: streams never collide across the run_index increments (+1 per run),
#: and zero-offset for shard 0 so one-shard runs keep the base seed.
SHARD_SEED_STRIDE = 1_000_003


def shard_seed(seed: int, shard_id: int) -> int:
    """The strategy seed of shard ``shard_id`` under base ``seed``."""
    return seed + SHARD_SEED_STRIDE * shard_id


@dataclass(frozen=True)
class ShardRunResult:
    """One shard's full two-phase outcome (every label, paired)."""

    shard_id: int
    seed: int
    op_count: int
    write_count: int
    n_tables: int
    total_entries: int
    per_label: dict[str, StrategyResult]


def shard_streams(config: SimulationConfig) -> list[ShardStream]:
    """Generate ``config``'s op stream and split it across its shards.

    Pure function of the config: the columnar generator is seeded by
    ``config.seed`` and certified bit-identical to the scalar reference
    loop, and the split is deterministic per key.
    """
    workload = CoreWorkload(config.workload_config())
    if not workload.supports_op_stream():
        raise ConfigError(
            "sharded runs need a workload that supports the columnar op "
            "stream (every SimulationConfig-expressible workload does)"
        )
    stream = workload.op_stream_columns(
        include_read_ops=(
            config.read_fraction > 0.0 or config.scan_fraction > 0.0
        )
    )
    partitioner = make_partitioner(
        config.partitioner, config.num_shards, config.shard_skew
    )
    return split_stream(stream, partitioner)


def _empty_shard_result(
    label: str, read_ops: Optional[ReadOpColumns]
) -> StrategyResult:
    """A shard that received no writes: nothing to compact, all reads miss.

    High ``shard_skew`` with few operations can starve the tail shards
    entirely; phase 2 refuses empty table sets, so the zero result is
    synthesized here with the same serving semantics an empty engine
    would have (every point read probes zero tables and misses).
    """
    reads = scans = 0
    if read_ops is not None:
        reads = read_ops.read_count
        scans = read_ops.scan_count
    return StrategyResult(
        strategy=label,
        n_tables=0,
        n_merges=0,
        cost_actual=0,
        cost_simplified=0,
        lopt_entries=0,
        bytes_read=0,
        bytes_written=0,
        io_seconds=0.0,
        simulated_seconds=0.0,
        strategy_overhead_seconds=0.0,
        wall_seconds=0.0,
        reads=reads,
        scans=scans,
        read_misses=reads,
    )


def run_shard(
    config: SimulationConfig,
    labels: Sequence[str],
    stream: ShardStream,
) -> ShardRunResult:
    """Phase 1 + phase 2 (every label) on one shard's stream slice."""
    seed = shard_seed(config.seed, stream.shard_id)
    tables = build_tables_from_columns(
        stream.write_keynums, stream.tombstone_positions, config
    )
    if config.storage == "disk":
        tables = spill_tables_to_disk(tables)
    per_label: dict[str, StrategyResult] = {}
    for label in labels:
        if tables:
            per_label[label] = run_strategy(
                tables, label, config, seed=seed, read_ops=stream.read_ops
            )
        else:
            per_label[label] = _empty_shard_result(label, stream.read_ops)
    return ShardRunResult(
        shard_id=stream.shard_id,
        seed=seed,
        op_count=stream.op_count,
        write_count=stream.write_count,
        n_tables=len(tables),
        total_entries=sum(table.entry_count for table in tables),
        per_label=per_label,
    )


def sharded_shard_task(
    config: SimulationConfig,
    labels: tuple[str, ...],
    run_index: int,
    shard_id: int,
) -> ShardRunResult:
    """One shard of one (point, run) cell — the process-pool work unit.

    Module-level so worker processes can import it.  The worker
    regenerates the run's stream from the config (generation is cheap
    next to per-shard compaction at scale) and keeps only its shard, so
    the task depends on nothing but its arguments — which is what makes
    ``--jobs`` invisible in the results.
    """
    run_config = config.with_seed(config.seed + run_index)
    stream = shard_streams(run_config)[shard_id]
    return run_shard(run_config, labels, stream)


def combine_shard_runs(
    config: SimulationConfig,
    labels: Sequence[str],
    shard_runs: Sequence[ShardRunResult],
) -> dict[str, StrategyResult]:
    """Fold per-shard results into one cluster-level row per label."""
    ordered = sorted(shard_runs, key=lambda run: run.shard_id)
    if [run.shard_id for run in ordered] != list(range(len(ordered))):
        raise ConfigError(
            f"incomplete shard set: {[run.shard_id for run in ordered]}"
        )
    scheduler = ClusterScheduler(config.parallel_lanes)
    shard_ops = [run.op_count for run in ordered]
    return {
        label: combine_shard_results(
            label,
            shard_ops,
            [run.per_label[label] for run in ordered],
            scheduler,
        )
        for label in labels
    }


def run_sharded_cell(
    config: SimulationConfig,
    labels: tuple[str, ...],
    run_index: int,
    jobs: int = 1,
) -> dict[str, StrategyResult]:
    """One sharded (point, run) cell: split, run every shard, combine.

    Serial by default (the stream is generated and split once); with
    ``jobs > 1`` the shards fan out over a process pool via
    :func:`sharded_shard_task`, byte-identically.  The sweep runner
    prefers expanding shards into its own pool so cross-cell and
    cross-shard work share workers — this entry point is the direct API
    (and the differential harness's).
    """
    return ShardedEngine(config, labels).run(run_index, jobs=jobs)


class ShardedEngine:
    """Run a sharded configuration end to end, shard-parallel on demand.

    Thin object API over the cell functions: holds the config and label
    set, exposes per-run execution plus the shard-level inspection the
    tests and notebooks want (streams, per-shard results).
    """

    def __init__(
        self, config: SimulationConfig, labels: Sequence[str]
    ) -> None:
        self.config = config
        self.labels = tuple(labels)

    def streams(self, run_index: int = 0) -> list[ShardStream]:
        """The per-shard stream slices of one run's op stream."""
        return shard_streams(
            self.config.with_seed(self.config.seed + run_index)
        )

    def run_shards(
        self, run_index: int = 0, jobs: int = 1
    ) -> list[ShardRunResult]:
        """Every shard's individual result for one run (shard order)."""
        run_config = self.config.with_seed(self.config.seed + run_index)
        if jobs > 1 and run_config.num_shards > 1:
            return map_in_order(
                [
                    (
                        sharded_shard_task,
                        (self.config, self.labels, run_index, shard_id),
                    )
                    for shard_id in range(run_config.num_shards)
                ],
                jobs,
            )
        return [
            run_shard(run_config, self.labels, stream)
            for stream in self.streams(run_index)
        ]

    def run(
        self, run_index: int = 0, jobs: int = 1
    ) -> dict[str, StrategyResult]:
        """Cluster-level results of one run (one row per label)."""
        return combine_shard_runs(
            self.config.with_seed(self.config.seed + run_index),
            self.labels,
            self.run_shards(run_index, jobs=jobs),
        )
