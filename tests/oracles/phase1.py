"""The operation-at-a-time phase 1: drive the real LSM engine.

:func:`repro.simulator.phase1.generate_sstables` builds its sstables
from the workload's columnar op stream.  This loop is what that pipeline
must equal: every YCSB operation goes through
:meth:`~repro.lsm.engine.LSMEngine.apply` (WAL disabled; the paper's
simulator has none) and the engine's flushes are the tables.  Reads and
scans are collected, not applied, exactly like the columnar stream.
"""

from __future__ import annotations

from time import perf_counter

from repro.lsm.disk import SimulatedDisk
from repro.lsm.engine import EngineConfig, LSMEngine
from repro.simulator import Phase1Result, SimulationConfig
from repro.ycsb.operations import OperationType
from repro.ycsb.workload import CoreWorkload, ReadOpColumns


def generate_sstables_reference(config: SimulationConfig) -> Phase1Result:
    """Phase 1 one operation at a time; ``plane_used`` is "reference"."""
    workload = CoreWorkload(config.workload_config())
    engine_config = EngineConfig(
        memtable_capacity=config.memtable_capacity,
        memtable_mode=config.memtable_mode,
        bloom_fp_rate=config.bloom_fp_rate,
        default_value_size=config.value_size,
        use_wal=False,
    )
    engine = LSMEngine(engine_config, SimulatedDisk(config.timing_model()))
    collect = config.read_fraction > 0.0 or config.scan_fraction > 0.0
    read_keynums: list[int] = []
    scan_keynums: list[int] = []
    scan_lengths: list[int] = []
    count = 0
    ingest_start = perf_counter()
    for operation in workload.all_operations():
        if operation.is_write:
            engine.apply(operation)
        elif collect:
            if operation.type is OperationType.READ:
                read_keynums.append(operation.key)
            elif operation.type is OperationType.SCAN:
                scan_keynums.append(operation.key)
                scan_lengths.append(operation.scan_length or 1)
        count += 1
    engine.flush()
    ingest_wall = perf_counter() - ingest_start
    tables = list(engine.sstables)
    return Phase1Result(
        tables=tables,
        total_operations=count,
        total_entries=sum(table.entry_count for table in tables),
        plane_used="reference",
        read_ops=ReadOpColumns(
            read_keynums=read_keynums,
            scan_keynums=scan_keynums,
            scan_lengths=scan_lengths,
        )
        if collect
        else None,
        ingest_wall_seconds=ingest_wall,
    )
