"""Run orchestration: repeated runs and the paper's parameter sweeps.

The paper reports "the average and the standard deviation for cost and
time ... from 3 independent runs of the experiment" (§5.2); runs here
differ by workload seed, and every strategy is evaluated on the *same*
phase-1 sstables within a run (paired comparison, as in the paper).

Sweeps correspond one-to-one to the figures:

* :func:`sweep_update_fraction` — Figure 7 (and 9a): vary the
  insert/update mix.
* :func:`sweep_memtable_capacity` — Figure 8: vary memtable size with a
  fixed number of sstables.
* :func:`sweep_operationcount` — Figure 9b: vary the data size.

Parallelism
-----------
Every sweep (and :func:`run_comparison`) accepts ``jobs``: the
independent *(point, run)* cells fan out over worker processes
(:func:`~repro.simulator.pool.map_in_order`; the first failing cell
cancels the cells not yet started).  A cell is one seeded
phase 1 plus phase 2 for every strategy label — the whole unit the
paired comparison needs — and its seed is derived from the cell's
configuration alone (``config.seed + run_index``), never from
scheduling order.  Cells are reassembled in submission order, so all
deterministic outputs (costs, simulated seconds, byte counts, figure
tables) are byte-identical for any job count; only the wall-clock
overhead columns vary, exactly as they do between two serial runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ConfigError
from .config import SimulationConfig
from .metrics import AggregateResult, StrategyResult, aggregate
from .phase1 import generate_sstables
from .phase2 import run_strategy, strategy_labels
from .pool import map_in_order


@dataclass(frozen=True)
class ComparisonResult:
    """All strategies on one configuration, aggregated over runs."""

    config: SimulationConfig
    per_strategy: dict[str, AggregateResult]
    runs: int


@dataclass(frozen=True)
class SweepPoint:
    """One x-value of a sweep with its per-strategy aggregates."""

    x: float
    config: SimulationConfig
    per_strategy: dict[str, AggregateResult]


@dataclass(frozen=True)
class SweepResult:
    """A full sweep: the series behind one paper figure."""

    parameter: str
    points: tuple[SweepPoint, ...]
    labels: tuple[str, ...]

    def series(self, label: str, metric: str = "cost_actual_mean") -> list[tuple[float, float]]:
        """(x, metric) pairs for one strategy across the sweep."""
        return [
            (point.x, getattr(point.per_strategy[label], metric))
            for point in self.points
        ]


def _comparison_cell(
    config: SimulationConfig,
    labels: tuple[str, ...],
    run_index: int,
) -> dict[str, StrategyResult]:
    """One (point, run) unit of work: phase 1 + phase 2 for every label.

    Module-level so worker processes can import it; deterministic given
    its arguments, which is what makes ``jobs`` invisible in the
    results.  Sharded configurations route to the cluster engine — the
    routing depends on the config alone (``num_shards > 1``), never on
    the job count, so a given config always takes the same code path.
    """
    if config.num_shards > 1:
        from ..cluster.engine import run_sharded_cell

        return run_sharded_cell(config, labels, run_index)
    run_config = config.with_seed(config.seed + run_index)
    phase1 = generate_sstables(run_config)
    return {
        label: replace(
            run_strategy(
                phase1.tables,
                label,
                run_config,
                seed=run_config.seed,
                read_ops=phase1.read_ops,
            ),
            # The tables are shared within a run, so the ingest wall
            # clock is per-cell, not per-strategy.
            ingest_wall_seconds=phase1.ingest_wall_seconds,
        )
        for label in labels
    }


def _run_cells(
    cells: Sequence[tuple[SimulationConfig, tuple[str, ...], int]],
    jobs: int,
) -> list[dict[str, StrategyResult]]:
    """Evaluate comparison cells serially or on a process pool.

    Results come back in ``cells`` order either way.  Sharded cells
    expand into per-shard tasks on the pool (a cell with 8 shards keeps
    8 workers busy, not 1) and are reassembled by
    :func:`~repro.cluster.engine.combine_shard_runs` — the same fold the
    serial path applies, so the results are byte-identical for any
    ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or (
        len(cells) <= 1
        and all(config.num_shards == 1 for config, _, _ in cells)
    ):
        return [_comparison_cell(*cell) for cell in cells]
    from ..cluster.engine import combine_shard_runs, sharded_shard_task

    tasks: list[tuple[int, object, tuple]] = []
    for index, (config, labels, run_index) in enumerate(cells):
        if config.num_shards > 1:
            for shard_id in range(config.num_shards):
                tasks.append(
                    (
                        index,
                        sharded_shard_task,
                        (config, labels, run_index, shard_id),
                    )
                )
        else:
            tasks.append(
                (index, _comparison_cell, (config, labels, run_index))
            )
    outputs = map_in_order([(fn, args) for _, fn, args in tasks], jobs)
    results: list[dict[str, StrategyResult] | None] = [None] * len(cells)
    shard_runs: dict[int, list] = {}
    for (index, fn, _), output in zip(tasks, outputs):
        if fn is _comparison_cell:
            results[index] = output
        else:
            shard_runs.setdefault(index, []).append(output)
    for index, runs in shard_runs.items():
        config, labels, run_index = cells[index]
        results[index] = combine_shard_runs(
            config.with_seed(config.seed + run_index), labels, runs
        )
    return results


def _comparison_from_cells(
    config: SimulationConfig,
    labels: tuple[str, ...],
    cell_results: Sequence[dict[str, StrategyResult]],
) -> ComparisonResult:
    return ComparisonResult(
        config=config,
        per_strategy={
            label: aggregate([cell[label] for cell in cell_results])
            for label in labels
        },
        runs=len(cell_results),
    )


def run_comparison(
    config: SimulationConfig,
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> ComparisonResult:
    """Phase 1 + phase 2 for every label, over ``runs`` seeds."""
    labels = tuple(labels) if labels is not None else strategy_labels()
    cells = [(config, labels, run_index) for run_index in range(runs)]
    return _comparison_from_cells(config, labels, _run_cells(cells, jobs))


def _sweep(
    parameter: str,
    points: Sequence[tuple[float, SimulationConfig]],
    labels: tuple[str, ...],
    runs: int,
    jobs: int,
) -> SweepResult:
    """Evaluate every (point, run) cell of a sweep, fanned out together.

    Parallelizing at the sweep level (rather than per point) keeps all
    ``jobs`` workers busy across point boundaries.
    """
    cells = [
        (config, labels, run_index)
        for _, config in points
        for run_index in range(runs)
    ]
    cell_results = _run_cells(cells, jobs)
    sweep_points = []
    for index, (x, config) in enumerate(points):
        comparison = _comparison_from_cells(
            config, labels, cell_results[index * runs : (index + 1) * runs]
        )
        sweep_points.append(
            SweepPoint(x=x, config=config, per_strategy=comparison.per_strategy)
        )
    return SweepResult(parameter, tuple(sweep_points), labels)


def sweep_update_fraction(
    base: SimulationConfig,
    fractions: Sequence[float],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> SweepResult:
    """Figure 7's x-axis: update percentage of the write mix."""
    labels = tuple(labels) if labels is not None else strategy_labels()
    points = [
        (fraction * 100.0, replace(base, update_fraction=fraction))
        for fraction in fractions
    ]
    return _sweep("update_percentage", points, labels, runs, jobs)


def sweep_memtable_capacity(
    capacities: Sequence[int],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    n_sstables: int = 100,
    distribution: str = "latest",
    seed: int = 0,
    backend: str | None = None,
    jobs: int = 1,
    base: SimulationConfig | None = None,
) -> SweepResult:
    """Figure 8's x-axis: memtable size with a fixed sstable count.

    ``backend=None`` keeps the config default (frozenset).  When
    ``base`` is given, every point derives from it (keeping its
    estimator/storage/... fields) with only the capacity and the
    implied ``operationcount = capacity * n_sstables - recordcount``
    replaced — the scenario layer's path; ``distribution``/``seed``/
    ``backend`` are then ignored.  A ``base`` equal to
    :meth:`SimulationConfig.figure8` defaults produces configs identical
    to the classic path.
    """
    labels = tuple(labels) if labels is not None else ("BT(I)",)
    points = []
    for capacity in capacities:
        if base is not None:
            operationcount = capacity * n_sstables - base.recordcount
            if operationcount < 0:
                raise ConfigError(
                    "memtable_capacity * n_sstables must cover the recordcount"
                )
            config = replace(
                base,
                memtable_capacity=capacity,
                operationcount=operationcount,
            )
        else:
            config = SimulationConfig.figure8(
                memtable_capacity=capacity,
                n_sstables=n_sstables,
                distribution=distribution,
                seed=seed,
            )
            if backend is not None:
                config = replace(config, backend=backend)
        points.append((float(capacity), config))
    return _sweep("memtable_capacity", points, labels, runs, jobs)


def sweep_operationcount(
    base: SimulationConfig,
    counts: Sequence[int],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> SweepResult:
    """Figure 9b's x-axis: number of run-phase operations (data size)."""
    labels = tuple(labels) if labels is not None else ("SI",)
    points = [
        (float(count), replace(base, operationcount=count)) for count in counts
    ]
    return _sweep("operationcount", points, labels, runs, jobs)


def sweep_k(
    base: SimulationConfig,
    ks: Sequence[int],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> SweepResult:
    """Merge fan-in sweep: how much a larger k shrinks re-merge cost."""
    labels = tuple(labels) if labels is not None else strategy_labels()
    points = [(float(k), replace(base, k=k)) for k in ks]
    return _sweep("k", points, labels, runs, jobs)


def sweep_hll_precision(
    base: SimulationConfig,
    precisions: Sequence[int],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> SweepResult:
    """HLL precision sweep; defaults to the estimator-driven strategies
    (the "SO"/"BT(O)" labels are the only ones precision can move)."""
    labels = tuple(labels) if labels is not None else ("SO", "BT(O)")
    points = [
        (float(p), replace(base, hll_precision=p)) for p in precisions
    ]
    return _sweep("hll_precision", points, labels, runs, jobs)


def sweep_num_shards(
    base: SimulationConfig,
    shard_counts: Sequence[int],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> SweepResult:
    """Scale-out sweep: shard the keyspace over 1..N engine instances.

    The headline series are the cluster makespan under the shared lane
    budget and the summed compaction cost — does splitting the workload
    shrink the schedule faster than it inflates total work?
    """
    labels = tuple(labels) if labels is not None else strategy_labels()
    points = [
        (float(count), replace(base, num_shards=count))
        for count in shard_counts
    ]
    return _sweep("num_shards", points, labels, runs, jobs)


def sweep_shard_skew(
    base: SimulationConfig,
    skews: Sequence[float],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> SweepResult:
    """Multi-tenant sweep: zipfian shard-weight skew at fixed shard count.

    Answers the ROADMAP question of whether estimation-heavy policies
    (SO) amortize their overhead better than LM under hot shards — the
    imbalance column tracks how concentrated traffic became.
    """
    labels = tuple(labels) if labels is not None else strategy_labels()
    base_shards = base if base.num_shards > 1 else replace(base, num_shards=8)
    points = [
        (float(skew), replace(base_shards, shard_skew=skew))
        for skew in skews
    ]
    return _sweep("shard_skew", points, labels, runs, jobs)
