"""Compaction strategy interface and result type.

A :class:`CompactionStrategy` consumes a list of sstables and produces
new sstables plus a :class:`CompactionResult` carrying every metric the
paper's evaluation reports: ``costactual`` in entries and bytes, the
simulated time (I/O time under the disk model, critical-path scheduled
over ``lanes`` parallel merge workers), the wall-clock time, and the
strategy's own decision overhead (the HLL estimation cost that dominates
SMALLESTOUTPUT in Figure 7b).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ...core.schedule import MergeSchedule
from ..disk import SimulatedDisk
from ..sstable import SSTable


@dataclass
class CompactionResult:
    """Outcome and accounting of one compaction run."""

    strategy_name: str
    input_count: int
    output_tables: list[SSTable]
    schedule: Optional[MergeSchedule] = None
    n_merges: int = 0
    cost_actual_entries: int = 0
    cost_simplified_entries: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    io_seconds: float = 0.0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    strategy_overhead_seconds: float = 0.0
    # Measured wall clock of the merges alone (see executor.py); zero
    # for strategies that never run a schedule.
    merge_wall_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def output_table(self) -> SSTable:
        """The single output of a major compaction."""
        if len(self.output_tables) != 1:
            raise ValueError(
                f"compaction produced {len(self.output_tables)} tables, not 1"
            )
        return self.output_tables[0]

    @property
    def total_simulated_seconds(self) -> float:
        """Simulated I/O time plus measured strategy overhead."""
        return self.simulated_seconds + self.strategy_overhead_seconds


class CompactionStrategy(ABC):
    """Turns a collection of sstables into fewer (or restructured) ones."""

    name: str = "abstract"

    @abstractmethod
    def compact(
        self,
        tables: Sequence[SSTable],
        disk: SimulatedDisk,
        next_table_id: int,
    ) -> CompactionResult:
        """Run the strategy.

        ``next_table_id`` is the first free table id; implementations
        must number their outputs ``next_table_id, next_table_id+1, ...``.
        """
