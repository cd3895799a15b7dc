"""The paper's two-phase evaluation simulator (§5.1).

Phase 1 (:mod:`repro.simulator.phase1`) turns a YCSB workload into
sstables through a fixed-capacity memtable; phase 2
(:mod:`repro.simulator.phase2`) compacts them with a named strategy and
reports ``costactual`` plus simulated/wall time.  The runner
(:mod:`repro.simulator.runner`) repeats runs and sweeps parameters to
regenerate the paper's figures.
"""

from .config import SimulationConfig
from .metrics import AggregateResult, StrategyResult, aggregate
from .phase1 import Phase1Result, generate_sstables
from .phase2 import (
    PAPER_STRATEGIES,
    PRACTICAL_STRATEGIES,
    build_strategy,
    known_strategy_labels,
    run_strategy,
    strategy_labels,
)
from .read_path import ReadPhaseResult, serve_reads
from .runner import (
    ComparisonResult,
    SweepPoint,
    SweepResult,
    run_comparison,
    sweep_hll_precision,
    sweep_k,
    sweep_memtable_capacity,
    sweep_num_shards,
    sweep_operationcount,
    sweep_shard_skew,
    sweep_update_fraction,
)

__all__ = [
    "AggregateResult",
    "ComparisonResult",
    "PAPER_STRATEGIES",
    "PRACTICAL_STRATEGIES",
    "Phase1Result",
    "ReadPhaseResult",
    "SimulationConfig",
    "StrategyResult",
    "SweepPoint",
    "SweepResult",
    "aggregate",
    "build_strategy",
    "generate_sstables",
    "known_strategy_labels",
    "run_comparison",
    "run_strategy",
    "serve_reads",
    "strategy_labels",
    "sweep_hll_precision",
    "sweep_k",
    "sweep_memtable_capacity",
    "sweep_num_shards",
    "sweep_operationcount",
    "sweep_shard_skew",
    "sweep_update_fraction",
]
