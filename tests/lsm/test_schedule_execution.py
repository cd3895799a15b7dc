"""Properties of the serial schedule executor over random schedules.

:func:`execute_schedule` replays a merge schedule one step at a time and
list-schedules the steps onto simulated lanes.  Over hypothesis-generated
valid schedules these tests pin:

* the output is the newest-live fold of the inputs, for both merge
  kernels (the heap kernel forced by ``tests/oracles/kernels.py``);
* the cost and byte metrics are exactly the per-step sums of a replay;
* the output's cached sketch equals a sketch built fresh from its keys;
* the simulated makespan lies between the critical path and the serial
  sum, and equals the serial sum on one lane;
* a schedule that reads a table no earlier step produces is refused
  before any merge runs.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MergeSchedule, MergeStep
from repro.errors import CompactionError
from repro.lsm import Record, SSTable, SimulatedDisk, execute_schedule
from repro.lsm.sstable import merge_sstables
from tests.oracles.kernels import reference_kernels

try:
    import numpy  # noqa: F401

    KERNELS = ["heap", "columnar"]
except ImportError:  # pragma: no cover - exercised on the pure leg
    KERNELS = ["heap"]


@st.composite
def schedules(draw, min_initial: int = 2, max_initial: int = 8) -> MergeSchedule:
    """Random valid schedules: repeatedly merge 2-3 live tables."""
    n = draw(st.integers(min_initial, max_initial))
    live = list(range(n))
    steps = []
    next_id = n
    while len(live) > 1:
        fan_in = draw(st.integers(2, min(3, len(live))))
        chosen = []
        for _ in range(fan_in):
            chosen.append(live.pop(draw(st.integers(0, len(live) - 1))))
        steps.append(MergeStep(tuple(chosen), next_id))
        live.append(next_id)
        next_id += 1
    schedule = MergeSchedule(n, steps)
    schedule.validate()
    return schedule


def make_tables(n_tables, seed, keys_per_table=12, universe=40, tombstone_rate=0.0):
    rng = random.Random(seed)
    tables = []
    seqno = 0
    for table_id in range(n_tables):
        records = []
        for key in sorted(rng.sample(range(universe), keys_per_table)):
            seqno += 1
            if rng.random() < tombstone_rate:
                records.append(Record.delete(key, seqno))
            else:
                records.append(Record.put(key, seqno, value_size=30))
        tables.append(SSTable(table_id, records))
    return tables


def newest_live_fold(tables, drop_tombstones):
    """The records a full merge of ``tables`` must keep, in key order."""
    newest = {}
    for table in tables:
        for record in table.records:
            kept = newest.get(record.key)
            if kept is None or record.seqno > kept.seqno:
                newest[record.key] = record
    return [
        newest[key]
        for key in sorted(newest)
        if not (drop_tombstones and newest[key].tombstone)
    ]


def run(tables, schedule, lanes=1, kernel="columnar", **kwargs):
    """Execute ``schedule``; ``kernel="heap"`` forces the numpy-free merge."""
    with reference_kernels() if kernel == "heap" else nullcontext():
        return execute_schedule(
            tables, schedule, SimulatedDisk(), next_table_id=100, lanes=lanes,
            **kwargs,
        )


class TestOutput:
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(
        schedule=schedules(),
        seed=st.integers(0, 10_000),
        with_tombstones=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_output_is_newest_live_fold(
        self, kernel, schedule, seed, with_tombstones
    ):
        tables = make_tables(
            schedule.n_initial,
            seed=seed,
            tombstone_rate=0.3 if with_tombstones else 0.0,
        )
        result = run(tables, schedule, kernel=kernel)
        assert list(result.output_table.records) == newest_live_fold(
            tables, drop_tombstones=True
        )

    @pytest.mark.parametrize("drop_tombstones", [True, False])
    @given(schedule=schedules(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_tombstones_dropped_only_when_asked(
        self, drop_tombstones, schedule, seed
    ):
        tables = make_tables(schedule.n_initial, seed=seed, tombstone_rate=0.4)
        result = run(tables, schedule, drop_tombstones=drop_tombstones)
        assert list(result.output_table.records) == newest_live_fold(
            tables, drop_tombstones=drop_tombstones
        )

    @given(schedule=schedules(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_output_table_id_is_the_last_steps(self, schedule, seed):
        tables = make_tables(schedule.n_initial, seed=seed)
        result = run(tables, schedule)
        assert result.n_merges == len(schedule.steps)
        assert result.output_table.table_id == 100 + len(schedule.steps) - 1

    @given(
        schedule=schedules(),
        seed=st.integers(0, 10_000),
        with_tombstones=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_kernels_agree_on_every_metric(self, schedule, seed, with_tombstones):
        pytest.importorskip("numpy")
        tables = make_tables(
            schedule.n_initial,
            seed=seed,
            tombstone_rate=0.3 if with_tombstones else 0.0,
        )
        heap = run(tables, schedule, lanes=2, kernel="heap")
        columnar = run(tables, schedule, lanes=2, kernel="columnar")
        assert columnar.output_table.records == heap.output_table.records
        assert columnar.cost_actual_entries == heap.cost_actual_entries
        assert columnar.cost_simplified_entries == heap.cost_simplified_entries
        assert columnar.bytes_read == heap.bytes_read
        assert columnar.bytes_written == heap.bytes_written
        assert columnar.io_seconds == heap.io_seconds
        assert columnar.simulated_seconds == heap.simulated_seconds

    def test_repeat_runs_are_identical(self):
        schedule = MergeSchedule(
            4, [MergeStep((0, 1), 4), MergeStep((2, 3), 5), MergeStep((4, 5), 6)]
        )
        tables = make_tables(4, seed=13, tombstone_rate=0.25)
        first = run(tables, schedule, lanes=2)
        second = run(tables, schedule, lanes=2)
        assert first.output_table.records == second.output_table.records
        assert first.cost_actual_entries == second.cost_actual_entries
        assert first.simulated_seconds == second.simulated_seconds


class TestAccounting:
    @given(
        schedule=schedules(),
        seed=st.integers(0, 10_000),
        with_tombstones=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_metrics_are_the_per_step_sums_of_a_replay(
        self, schedule, seed, with_tombstones
    ):
        tables = make_tables(
            schedule.n_initial,
            seed=seed,
            tombstone_rate=0.3 if with_tombstones else 0.0,
        )
        result = run(tables, schedule)

        live = dict(enumerate(tables))
        cost_actual = 0
        cost_simplified = sum(table.entry_count for table in tables)
        bytes_read = bytes_written = 0
        last = len(schedule.steps) - 1
        for index, step in enumerate(schedule.steps):
            inputs = [live.pop(table_id) for table_id in step.inputs]
            output = merge_sstables(
                inputs, new_table_id=100 + index, drop_tombstones=index == last
            )
            live[step.output] = output
            cost_actual += sum(t.entry_count for t in inputs) + output.entry_count
            cost_simplified += output.entry_count
            bytes_read += sum(t.size_bytes for t in inputs)
            bytes_written += output.size_bytes

        assert result.cost_actual_entries == cost_actual
        assert result.cost_simplified_entries == cost_simplified
        assert result.bytes_read == bytes_read
        assert result.bytes_written == bytes_written

    @given(schedule=schedules(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_disk_charged_exactly_the_reported_bytes(self, schedule, seed):
        tables = make_tables(schedule.n_initial, seed=seed)
        disk = SimulatedDisk()
        result = execute_schedule(tables, schedule, disk, next_table_id=100)
        assert disk.stats.bytes_read == result.bytes_read
        assert disk.stats.bytes_written == result.bytes_written
        assert disk.stats.write_ops == result.n_merges
        assert disk.stats.read_ops == sum(len(s.inputs) for s in schedule.steps)

    def test_merge_wall_is_part_of_the_wall(self):
        tables = make_tables(6, seed=2)
        schedule = MergeSchedule(
            6,
            [
                MergeStep((0, 1), 6),
                MergeStep((2, 3), 7),
                MergeStep((4, 5), 8),
                MergeStep((6, 7, 8), 9),
            ],
        )
        result = run(tables, schedule)
        assert 0.0 < result.merge_wall_seconds <= result.wall_seconds


class TestSketches:
    @pytest.mark.parametrize("with_tombstones", [False, True])
    @given(schedule=schedules(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_output_sketch_equals_a_fresh_build(
        self, with_tombstones, schedule, seed
    ):
        tables = make_tables(
            schedule.n_initial,
            seed=seed,
            tombstone_rate=0.3 if with_tombstones else 0.0,
        )
        for table in tables:
            table.sketch()
        output = run(tables, schedule).output_table
        cached = output.cached_sketch()
        assert cached is not None
        fresh = SSTable(999, list(output.records)).sketch()
        assert cached.to_bytes() == fresh.to_bytes()

    def test_no_sketch_invented_when_an_input_lacks_one(self):
        tables = make_tables(3, seed=4)
        tables[0].sketch()
        tables[1].sketch()
        schedule = MergeSchedule(3, [MergeStep((0, 1, 2), 3)])
        assert run(tables, schedule).output_table.cached_sketch() is None


class TestSimulatedTime:
    @given(schedule=schedules(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_one_lane_is_the_serial_sum(self, schedule, seed):
        tables = make_tables(schedule.n_initial, seed=seed)
        result = run(tables, schedule, lanes=1)
        assert result.simulated_seconds == pytest.approx(result.io_seconds)

    @pytest.mark.parametrize("lanes", [2, 3, 5])
    @given(schedule=schedules(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_makespan_between_critical_path_and_serial_sum(
        self, lanes, schedule, seed
    ):
        tables = make_tables(schedule.n_initial, seed=seed)
        result = run(tables, schedule, lanes=lanes)
        # With a lane per step, every step starts once its inputs exist:
        # that makespan is the critical path.
        critical = run(tables, schedule, lanes=len(schedule.steps)).simulated_seconds
        assert result.io_seconds == pytest.approx(
            run(tables, schedule, lanes=1).io_seconds
        )
        assert critical <= result.simulated_seconds * (1 + 1e-9)
        assert result.simulated_seconds <= result.io_seconds * (1 + 1e-9)


def _corrupt(n_initial, steps):
    """A schedule that skips MergeSchedule's own validation."""
    schedule = object.__new__(MergeSchedule)
    schedule.n_initial = n_initial
    schedule.steps = tuple(steps)
    return schedule


class TestRejection:
    @pytest.mark.parametrize(
        "steps",
        [
            # step 0 reads table 3, which only step 1 produces
            [MergeStep((0, 3), 2), MergeStep((1, 2), 3)],
            # step 0 reads its own output
            [MergeStep((0, 2), 2), MergeStep((1, 2), 3)],
            # step 1 reads a table no step ever produces
            [MergeStep((0, 1), 2), MergeStep((2, 9), 3)],
        ],
        ids=["later-output", "own-output", "unknown-table"],
    )
    def test_unproduced_input_rejected_before_any_merge(self, steps):
        disk = SimulatedDisk()
        with pytest.raises(CompactionError, match="no earlier step"):
            execute_schedule(make_tables(2, seed=1), _corrupt(2, steps), disk, 10)
        assert disk.stats.bytes_read == 0
        assert disk.stats.bytes_written == 0

    def test_schedule_leaving_two_tables_rejected(self):
        schedule = _corrupt(3, [MergeStep((0, 1), 3)])
        with pytest.raises(CompactionError, match="did not reduce"):
            execute_schedule(make_tables(3, seed=1), schedule, SimulatedDisk(), 10)
