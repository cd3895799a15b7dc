"""Tests of the benchmark's own logic: spans, percentiles, checks, declarations."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.checks import Checker, KvOracle, check_cell, newest_live
from perfbench.probes import per_layer_names
from perfbench.spans import Patcher, Tracer, paused, root_wall, self_times, traced
from perfbench.stats import nearest_rank, supported_percentile, tail
from perfbench.workloads import CountingFileSystem


def _ticking_clock(ticks):
    iterator = iter(ticks)
    return lambda: next(iterator)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    # root 0..10, a 1..6 (with a.b 2..5), c 7..9
    tracer = Tracer(clock=_ticking_clock([0, 1, 2, 5, 6, 7, 9, 10]))
    root = tracer.root("cell", trace_id=3)
    a = tracer.enter("a")
    b = tracer.enter("a.b")
    tracer.exit(b)
    tracer.exit(a)
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(root)
    times = self_times(tracer)
    assert times["a.b"] == (3.0, 1)
    assert times["a"] == (2.0, 1)  # 5 long, 3 of it in a.b
    assert times["c"] == (2.0, 1)
    assert times["root.cell"] == (3.0, 1)  # 10 long, 7 covered by a and c
    assert sum(seconds for seconds, _ in times.values()) == root_wall(tracer) == 10.0
    assert list(tracer.parents) == [-1, 0, 1, 0]
    assert set(tracer.trace_ids) == {3}


def test_self_time_sums_repeated_spans_and_counts_calls():
    tracer = Tracer(clock=_ticking_clock([0, 1, 2, 4, 7, 8]))
    root = tracer.root("op", trace_id=0)
    for _ in range(2):
        tracer.exit(tracer.enter("engine.get"))
    tracer.exit(root)
    assert self_times(tracer)["engine.get"] == (4.0, 2)
    assert self_times(tracer)["root.op"] == (4.0, 1)


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_traced_wrapper_counts_and_pauses():
    tracer = Tracer()

    def double(x):
        return 2 * x

    def count(tracer, args, kwargs, result):
        tracer.count("doubled", result)

    wrapped = traced(tracer, "double", double, count)
    assert wrapped(3) == 6
    with paused(tracer):
        assert wrapped(5) == 10
    assert len(tracer) == 1
    assert tracer.counters["doubled"] == 6


def test_patcher_wraps_class_bodies_and_restores():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    class Override(Base):
        def run(self):
            return "override"

    original = Base.__dict__["run"]
    tracer = Tracer()
    with Patcher() as patcher:
        for owner in (Base, Child, Override):
            patcher.wrap(owner, "run", lambda fn: traced(tracer, "run", fn))
        assert "run" not in Child.__dict__  # inherited: covered by Base's wrapper
        assert Child().run() == "base" and Override().run() == "override"
    assert Base.__dict__["run"] is original
    assert [name for name in tracer.names] == ["run", "run"]


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_rule_needs_ten_samples_beyond():
    assert supported_percentile(99.0, 1000) == 99.0
    assert supported_percentile(99.0, 100_000) == 99.0
    assert supported_percentile(99.0, 999) == 98.0
    assert supported_percentile(99.0, 500) == 98.0
    assert supported_percentile(99.0, 100) == 90.0
    assert supported_percentile(99.0, 20) == 50.0
    assert supported_percentile(99.0, 19) == 0.0
    for samples in (20, 57, 100, 999, 1000, 4321):
        p = supported_percentile(99.0, samples)
        assert samples * (100 - p) / 100 >= 10


def test_tail_reports_percentile_and_sample_count():
    values = list(range(1, 1001))
    p99 = tail(values)
    assert (p99.value, p99.percentile, p99.samples) == (990, 99.0, 1000)
    p = tail(list(range(1, 101)))
    assert (p.value, p.percentile, p.samples) == (90, 90.0, 100)
    few = tail([5.0, 1.0, 3.0])
    assert (few.value, few.percentile, few.samples) == (3.0, 50.0, 3)
    assert nearest_rank([1, 2, 3, 4], 50.0) == 2


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _table(table_id, rows):
    from repro.lsm.record import Record
    from repro.lsm.sstable import SSTable

    return SSTable(
        table_id,
        [
            Record(key=key, seqno=seqno, value_size=size, tombstone=dead)
            for key, seqno, size, dead in rows
        ],
    )


PHASE1 = [
    [(1, 1, 10, False), (2, 2, 10, False), (3, 3, 10, False)],
    [(1, 4, 20, False), (3, 5, 0, True), (4, 6, 10, False)],
]


def test_newest_live_fold():
    tables = [_table(index, rows) for index, rows in enumerate(PHASE1)]
    assert newest_live(tables) == [
        (1, 4, 20, False),
        (2, 2, 10, False),
        (4, 6, 10, False),
    ]


def test_cell_check_counts_a_wrong_table_as_failure():
    tables = [_table(index, rows) for index, rows in enumerate(PHASE1)]
    right = _table(10, [(1, 4, 20, False), (2, 2, 10, False), (4, 6, 10, False)])
    stale = _table(11, [(1, 1, 10, False), (2, 2, 10, False), (4, 6, 10, False)])
    resurrected = _table(
        12, [(1, 4, 20, False), (2, 2, 10, False), (3, 3, 10, False), (4, 6, 10, False)]
    )
    checker = Checker()
    check_cell(
        checker,
        [("SI", [right]), ("SO", [stale]), ("BT(I)", [resurrected]), ("RANDOM", [right, right])],
        tables,
        read_hits=[2, 2, 2, 1],
        read_keys=[1, 3, 4],
    )
    # 4 table-count + 3 table-content + 4 read-hit checks; SO's and
    # BT(I)'s tables, RANDOM's table count and RANDOM's read hits fail.
    assert checker.attempted == 11
    assert checker.failed == 4
    assert checker.error_rate == pytest.approx(4 / 11)


def test_oracle_counts_a_wrong_get_and_scan_as_failure():
    from repro.lsm.record import Record

    oracle = KvOracle({1: b"a", 2: b"b", 5: b"e"})
    oracle.put(3, b"c")
    oracle.delete(2)
    checker = Checker()
    assert oracle.check_get(checker, 1, Record.put(1, 9, value=b"a"))
    assert not oracle.check_get(checker, 1, Record.put(1, 9, value=b"stale"))
    assert not oracle.check_get(checker, 2, Record.put(2, 9, value=b"b"))
    assert oracle.check_get(checker, 2, None)
    assert oracle.check_scan(
        checker, 2, 2, [Record.put(3, 1, value=b"c"), Record.put(5, 1, value=b"e")]
    )
    assert not oracle.check_scan(checker, 2, 2, [Record.put(3, 1, value=b"c")])
    assert (checker.attempted, checker.failed) == (6, 3)
    assert checker.examples[0] == "get(1) = b'stale', oracle b'a'"


def test_store_check_after_recovery_and_counting_fs():
    from repro.lsm import LSMEngine
    from repro.lsm.engine import EngineConfig
    from repro.lsm.faults import MemoryFileSystem

    fs = CountingFileSystem(MemoryFileSystem())
    engine = LSMEngine.open(config=EngineConfig(memtable_capacity=4), fs=fs)
    oracle = KvOracle()
    for key in range(10):
        engine.put(key, value=b"v%d" % key)
        oracle.put(key, b"v%d" % key)
    engine.delete(3)
    oracle.delete(3)
    assert fs.syncs >= 11 and fs.bytes_written > 0
    checker = Checker()
    oracle.check_store(checker, engine.simulate_crash_and_recover())
    assert (checker.attempted, checker.failed) == (10, 0)
    oracle.put(4, b"lost")  # an acknowledged write the store never saw
    oracle.check_store(checker, engine.simulate_crash_and_recover())
    assert checker.failed == 1


def test_wall_sums_each_units_median_calibrated_time():
    from perfbench.calibration import REFERENCE_S, UnitTimer
    from perfbench.run import _calibrated_wall
    from perfbench.workloads import PassResult

    def timed(units, references):
        timer = UnitTimer(calibrate=False)
        timer.units, timer.references = units, references
        return PassResult(timer, 0, 0, 0, 1)

    # Unit 0 ran on a machine twice as slow in the second pass, and unit 1
    # hit a slow stretch the reference loop did not see in the third.
    quiet = REFERENCE_S
    passes = [
        timed([1.0, 2.0], [quiet, quiet]),
        timed([2.0, 2.2], [2 * quiet, quiet]),
        timed([1.2, 9.0], [quiet, quiet]),
    ]
    assert _calibrated_wall(passes) == pytest.approx(1.0 + 2.2)


def test_unit_timer_brackets_units_with_the_reference_loop():
    from perfbench.calibration import UnitTimer

    timer = UnitTimer()
    for seconds in (0.5, 0.25):
        timer.add(seconds)
    assert timer.units == [0.5, 0.25]
    assert len(timer.references) == 2 and min(timer.references) > 0
    assert UnitTimer(calibrate=False).references == []


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    from perfbench.run import END_TO_END

    declared = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == per_layer_names()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
