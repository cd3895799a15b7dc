"""Schedule execution: real sstable merges with I/O and time accounting.

:func:`execute_schedule` replays a :class:`~repro.core.schedule.MergeSchedule`
against actual sstables, performing each step with
:func:`~repro.lsm.sstable.merge_sstables`.  It returns the paper's cost
metrics measured on the *executed* merges (entry and byte units) and a
simulated duration computed by list-scheduling the merge steps onto
``lanes`` parallel workers of the disk model:

* a step becomes ready when all its input tables exist,
* each simulated worker executes one merge at a time,
* a merge's duration is the disk-model time to read its inputs and
  write its output.

With ``lanes=1`` this degenerates to the serial sum (SI/SO execution);
with ``lanes=c`` it models BALANCETREE's intra-level parallelism
(Figure 7b).  Tombstones are dropped only at the final merge, where the
output is bottommost by construction.  The merges themselves run one at
a time in schedule order; the lanes are simulated, not real workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ...core.schedule import MergeSchedule
from ...errors import CompactionError
from ..disk import SimulatedDisk
from ..sstable import SSTable, merge_sstables


def _propagate_sketches(
    inputs: Sequence[SSTable], output: SSTable, union_valid: bool
) -> None:
    """Carry the inputs' cached sketches onto the merge output.

    For every (precision, seed) cached on *all* inputs:

    * ``union_valid=True`` — the output's key set is exactly the union
      of the inputs' (no tombstone GC dropped a key), so the
      register-wise max of the input sketches is adopted losslessly.
    * ``union_valid=False`` — keys may have been dropped, so the union
      would overcount; instead the output's sketch is built fresh from
      its surviving keys (one batch-hash of the key column per
      parameterization), keeping the (precision, seed) cache alive on
      bottommost tables too.

    Single pass: each input's cache is consulted exactly once per
    parameterization.
    """
    first, rest = inputs[0], inputs[1:]
    for precision, seed in first.cached_sketch_keys:
        sketches = [first.cached_sketch(precision, seed)]
        for table in rest:
            sketch = table.cached_sketch(precision, seed)
            if sketch is None:
                break
            sketches.append(sketch)
        else:
            if union_valid:
                output.adopt_sketch(sketches[0].union(*sketches[1:]))
            else:
                output.sketch(precision, seed)  # fresh build over live keys


@dataclass
class ExecutionResult:
    """Metrics of one executed schedule."""

    output_table: SSTable
    n_merges: int
    cost_actual_entries: int
    cost_simplified_entries: int
    bytes_read: int
    bytes_written: int
    io_seconds: float
    simulated_seconds: float
    wall_seconds: float
    #: Measured wall clock of the merges alone (the simulated-disk
    #: makespan is ``simulated_seconds``).
    merge_wall_seconds: float = 0.0


def execute_schedule(
    tables: Sequence[SSTable],
    schedule: MergeSchedule,
    disk: SimulatedDisk,
    next_table_id: int,
    lanes: int = 1,
    drop_tombstones: bool = True,
    bloom_fp_rate: float = 0.01,
) -> ExecutionResult:
    """Execute every merge step; see module docstring for the time model."""
    if lanes < 1:
        raise CompactionError(f"lanes must be >= 1, got {lanes}")
    n_initial = schedule.n_initial
    if n_initial != len(tables):
        raise CompactionError(
            f"schedule expects {n_initial} tables, got {len(tables)}"
        )
    for index, step in enumerate(schedule.steps):
        for table_id in step.inputs:
            # The output of step j has id n_initial + j.
            if table_id >= n_initial + index:
                raise CompactionError(
                    f"step #{index} reads table {table_id}, which no "
                    f"earlier step produces"
                )
    started_wall = time.perf_counter()

    live: dict[int, SSTable] = dict(enumerate(tables))
    ready_at: dict[int, float] = {table_id: 0.0 for table_id in live}
    lane_free = [0.0] * lanes

    cost_actual = 0
    cost_simplified = sum(table.entry_count for table in tables)
    bytes_read = 0
    bytes_written = 0
    io_seconds = 0.0
    merge_wall = 0.0
    final_step_index = len(schedule.steps) - 1

    for index, step in enumerate(schedule.steps):
        inputs = [live.pop(table_id) for table_id in step.inputs]
        dropping = drop_tombstones and index == final_step_index
        merge_started = time.perf_counter()
        output = merge_sstables(
            inputs,
            new_table_id=next_table_id + index,
            drop_tombstones=dropping,
            bloom_fp_rate=bloom_fp_rate,
        )
        merge_wall += time.perf_counter() - merge_started
        live[step.output] = output
        # Sketch persistence: adopt the lossless union sketch, or — when
        # tombstone GC could have dropped keys — rebuild from the
        # surviving key column so bottommost outputs keep their caches.
        if output is not inputs[0]:
            union_valid = not dropping or not any(
                table.has_tombstones for table in inputs
            )
            _propagate_sketches(inputs, output, union_valid)

        # --- I/O accounting -------------------------------------------
        step_read = sum(table.size_bytes for table in inputs)
        step_written = output.size_bytes
        duration = 0.0
        for table in inputs:
            duration += disk.read(table.size_bytes)
        duration += disk.write(step_written)
        bytes_read += step_read
        bytes_written += step_written
        io_seconds += duration
        cost_actual += sum(table.entry_count for table in inputs) + output.entry_count
        cost_simplified += output.entry_count

        # --- simulated parallel list scheduling -----------------------
        ready = max(ready_at[table_id] for table_id in step.inputs)
        lane = min(range(lanes), key=lambda index_: lane_free[index_])
        begin = max(ready, lane_free[lane])
        finish = begin + duration
        lane_free[lane] = finish
        ready_at[step.output] = finish

    if len(live) != 1:
        raise CompactionError("schedule did not reduce the tables to one")
    (final_id, final_table), = live.items()
    return ExecutionResult(
        output_table=final_table,
        n_merges=len(schedule.steps),
        cost_actual_entries=cost_actual,
        cost_simplified_entries=cost_simplified,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        io_seconds=io_seconds,
        simulated_seconds=ready_at.get(final_id, 0.0),
        wall_seconds=time.perf_counter() - started_wall,
        merge_wall_seconds=merge_wall,
    )
