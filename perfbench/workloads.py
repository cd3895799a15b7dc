"""The benchmark's three workloads.

Each workload has a ``setup(seed)`` that builds its inputs (repeated by the
runner, which reports the median as part of ``setup_s``) and a
``run_pass(state, checker, tracer)`` that performs one timed pass over the
same inputs and checks its outputs outside the timed calls.  All of them
run in this one process, with no worker pools.  README.md records why each
workload was chosen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .calibration import UnitTimer
from .checks import Checker, KvOracle, check_cell
from .probes import install_output_capture
from .spans import Patcher, Tracer, paused

clock = time.perf_counter

#: The paper's five strategies (§5.1), in its order.
LABELS = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM")
#: Figure 7's x-axis: update share of the write mix.
UPDATE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class PassResult:
    """One timed pass of a workload."""

    #: Durations of the pass's timed calls, summed into fixed units (one
    #: simulator phase or strategy run, one slice of key-value operations)
    #: that line up across passes, each with the reference loop's time
    #: around it (none in a traced pass).
    timer: UnitTimer
    ops: int  # workload operations those calls completed
    cost_actual: int  # entries read by compaction merges (costactual)
    bytes_written: int  # bytes written to storage
    user_bytes: int  # bytes the workload stored
    env: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.timer.units)

    @property
    def write_amp(self) -> float:
        return self.bytes_written / self.user_bytes


# ----------------------------------------------------------------------
# Simulator workloads: phase 1 + phase 2 for the paper's five strategies
# ----------------------------------------------------------------------
class SimulatorWorkload:
    """Cells of the two-phase simulator, each run like one ``--runs 1`` cell."""

    def __init__(self, configs: Callable[[int], list]) -> None:
        self._configs = configs

    def setup(self, seed: int) -> list:
        configs = self._configs(seed)
        # One small cell of the same shape fills lazy caches before timing.
        first = configs[0]
        small = replace(
            first,
            operationcount=first.operationcount // 50,
            memtable_capacity=max(10, first.memtable_capacity // 10),
        )
        self._cell(small, UnitTimer(calibrate=False))
        return configs

    @staticmethod
    def _cell(config, timer: UnitTimer):
        """Phase 1, then phase 2 for every label; times each call as a unit."""
        from repro.simulator import phase1, phase2

        started = clock()
        generated = phase1.generate_sstables(config)
        timer.add(clock() - started)
        results = []
        for label in LABELS:
            started = clock()
            results.append(
                phase2.run_strategy(
                    generated.tables,
                    label,
                    config,
                    seed=config.seed,
                    read_ops=generated.read_ops,
                )
            )
            timer.add(clock() - started)
        return generated, results

    def run_pass(
        self, configs: list, checker: Checker, tracer: Optional[Tracer]
    ) -> PassResult:
        outputs: list = []
        result = PassResult(UnitTimer(calibrate=tracer is None), 0, 0, 0, 0)
        planes = set()
        with Patcher() as patcher:
            install_output_capture(patcher, outputs)
            for index, config in enumerate(configs):
                outputs.clear()
                span = tracer.root("cell", index) if tracer is not None else -1
                generated, results = self._cell(config, result.timer)
                if tracer is not None:
                    tracer.exit(span)
                result.ops += config.operationcount
                planes.add(generated.plane_used)
                flushed = sum(table.size_bytes for table in generated.tables)
                for strategy in results:
                    result.cost_actual += strategy.cost_actual
                    result.bytes_written += flushed + strategy.bytes_written
                    result.user_bytes += flushed
                read_ops = generated.read_ops
                check_cell(
                    checker,
                    list(zip(LABELS, outputs)),
                    generated.tables,
                    [strategy.read_hits for strategy in results],
                    read_ops.read_keynums if read_ops is not None else None,
                )
                checker.check(
                    len(outputs) == len(LABELS),
                    lambda: f"{len(outputs)} compactions for {len(LABELS)} strategies",
                )
                del generated, results
        result.env["plane_used"] = ",".join(sorted(planes))
        return result


def _fig7a_configs(seed: int) -> list:
    from repro.simulator import SimulationConfig

    return [
        SimulationConfig.figure7(update_fraction=fraction, seed=seed)
        for fraction in UPDATE_FRACTIONS
    ]


def _many_sstables_configs(seed: int) -> list:
    from repro.simulator import SimulationConfig

    return [
        SimulationConfig(
            recordcount=1000,
            operationcount=140_000,
            memtable_capacity=140,
            distribution="zipfian",
            read_fraction=0.8,
            update_fraction=0.5,
            seed=seed,
        )
    ]


# ----------------------------------------------------------------------
# Key-value workload: the durable engine as an embedded store
# ----------------------------------------------------------------------
class CountingFileSystem:
    """Counts bytes appended and syncs on any :mod:`repro.lsm.faults` filesystem."""

    def __init__(self, base) -> None:
        self.base = base
        self.bytes_written = 0
        self.syncs = 0

    def reset(self) -> None:
        self.bytes_written = 0
        self.syncs = 0

    def open_write(self, name: str) -> "_CountingFile":
        return _CountingFile(self, self.base.open_write(name))

    def open_append(self, name: str) -> "_CountingFile":
        return _CountingFile(self, self.base.open_append(name))

    def __getattr__(self, attribute: str):
        # read_bytes, exists, listdir, size, rename, remove, truncate
        return getattr(self.base, attribute)


class _CountingFile:
    def __init__(self, fs: CountingFileSystem, handle) -> None:
        self._fs = fs
        self._handle = handle

    def append(self, data: bytes) -> None:
        self._handle.append(data)
        self._fs.bytes_written += len(data)

    def sync(self) -> None:
        self._handle.sync()
        self._fs.syncs += 1

    def close(self) -> None:
        self._handle.close()


@dataclass
class KvState:
    run_ops: list  # the run phase's Operation objects
    payloads: list  # one unique value per run operation (None for reads)
    snapshot: dict  # store files right after the load phase
    oracle: KvOracle  # store contents right after the load phase
    op_stream_s: float
    load_s: float


#: Value size of every write, as YCSB's default field length.
VALUE_BYTES = 100


def _payload(seed: int, phase: str, index: int) -> bytes:
    """A value no other write of the workload carries."""
    return (b"%s:%d:%d:" % (phase.encode(), seed, index)).ljust(VALUE_BYTES, b".")


def _memory_fs(files: dict):
    from repro.lsm.faults import MemoryFileSystem

    fs = MemoryFileSystem()
    for name, data in files.items():
        handle = fs.open_write(name)
        handle.append(data)
        handle.close()
    return fs


class KvWorkload:
    """``LSMEngine.open`` with the default config, driven by one closed-loop caller."""

    RECORDS = 10_000
    OPERATIONS = 30_000
    #: Operations per timed unit of a pass.
    UNIT_OPS = 1000

    def setup(self, seed: int) -> KvState:
        from repro.lsm import LSMEngine
        from repro.lsm.compaction.controller import CompactionController
        from repro.ycsb.operations import OperationType
        from repro.ycsb.workload import CoreWorkload, WorkloadConfig

        started = clock()
        workload = CoreWorkload(
            WorkloadConfig(
                recordcount=self.RECORDS,
                operationcount=self.OPERATIONS,
                read_proportion=0.45,
                update_proportion=0.40,
                insert_proportion=0.05,
                scan_proportion=0.05,
                delete_proportion=0.05,
                distribution="zipfian",
                value_size=VALUE_BYTES,
                seed=seed,
            )
        )
        load_ops = list(workload.load_operations())
        run_ops = list(workload.run_operations())
        writes = (OperationType.INSERT, OperationType.UPDATE)
        payloads = [
            _payload(seed, "run", index) if op.type in writes else None
            for index, op in enumerate(run_ops)
        ]
        op_stream_s = clock() - started

        started = clock()
        files = _memory_fs({})
        engine = LSMEngine.open(fs=files)
        controller = CompactionController(engine)
        oracle = KvOracle()
        for index, op in enumerate(load_ops):
            value = _payload(seed, "load", index)
            engine.put(op.key, value=value)
            controller.maybe_compact()
            oracle.put(op.key, value)
        snapshot = {name: files.read_bytes(name) for name in files.listdir()}
        load_s = clock() - started
        return KvState(run_ops, payloads, snapshot, oracle, op_stream_s, load_s)

    def run_pass(
        self, state: KvState, checker: Checker, tracer: Optional[Tracer]
    ) -> PassResult:
        from repro.lsm import LSMEngine
        from repro.lsm.compaction.controller import CompactionController
        from repro.lsm.record import Record
        from repro.ycsb.operations import OperationType

        READ, SCAN, DELETE = OperationType.READ, OperationType.SCAN, OperationType.DELETE
        with paused(tracer):
            fs = CountingFileSystem(_memory_fs(state.snapshot))
            engine = LSMEngine.open(fs=fs)
            controller = CompactionController(engine)
        fs.reset()
        user_bytes_before = engine.user_bytes_written
        oracle = state.oracle.copy()
        get, scan, put, delete = engine.get, engine.scan, engine.put, engine.delete
        maybe_compact = controller.maybe_compact
        put_us: list = []
        get_us: list = []
        scan_us: list = []
        timer = UnitTimer(calibrate=tracer is None)
        unit_s = 0.0
        for index, op in enumerate(state.run_ops):
            kind, key = op.type, op.key
            span = tracer.root(kind.name.lower(), index) if tracer is not None else -1
            started = clock()
            if kind is READ:
                found = get(key)
            elif kind is SCAN:
                found = scan(key, op.scan_length)
            elif kind is DELETE:
                delete(key)
                maybe_compact()
            else:
                put(key, value=state.payloads[index])
                maybe_compact()
            elapsed = clock() - started
            if tracer is not None:
                tracer.exit(span)
            unit_s += elapsed
            if kind is READ:
                get_us.append(elapsed * 1e6)
                oracle.check_get(checker, key, found)
            elif kind is SCAN:
                scan_us.append(elapsed * 1e6)
                oracle.check_scan(checker, key, op.scan_length, found)
            elif kind is DELETE:
                put_us.append(elapsed * 1e6)
                oracle.delete(key)
            else:
                put_us.append(elapsed * 1e6)
                oracle.put(key, state.payloads[index])
            if (index + 1) % self.UNIT_OPS == 0 or index + 1 == len(state.run_ops):
                timer.add(unit_s)
                unit_s = 0.0

        file_bytes = sum(fs.size(name) for name in fs.listdir())
        live_bytes = sum(
            Record.put(key, 0, value=value).size_bytes
            for key, value in oracle.values.items()
        )
        stats = engine.read_stats
        extra = {
            "put_us": put_us,
            "get_us": get_us,
            "scan_us": scan_us,
            "space_amp": file_bytes / live_bytes,
            "fs.syncs": fs.syncs,
            "fs.bytes_written": fs.bytes_written,
            "engine.memtable_hit_ratio": stats.memtable_hits / stats.reads,
            "engine.tables_probed_per_get": stats.tables_probed_per_read,
            "engine.bloom_fp_rate": stats.bloom_fp_rate,
            "engine.scan_yield": stats.scan_records_returned
            / max(1, stats.scan_records_scanned),
            "compactions": controller.stats.compactions,
        }
        result = PassResult(
            timer=timer,
            ops=len(state.run_ops),
            cost_actual=controller.stats.total_cost_actual,
            bytes_written=fs.bytes_written,
            user_bytes=engine.user_bytes_written - user_bytes_before,
            env={"kv_storage": "memory"},
            extra=extra,
        )

        span = tracer.root("recover", len(state.run_ops)) if tracer is not None else -1
        started = clock()
        recovered = engine.simulate_crash_and_recover()
        extra["recover_s"] = clock() - started
        if tracer is not None:
            tracer.exit(span)
        with paused(tracer):
            oracle.check_store(checker, recovered)
        return result


WORKLOADS = {
    "fig7a": SimulatorWorkload(_fig7a_configs),
    "many-sstables": SimulatorWorkload(_many_sstables_configs),
    "kv-durable": KvWorkload(),
}
