"""Where the benchmark attaches to the program: span wrappers and output capture.

Every span wraps a public function or method at the name its caller looks
up (``repro.lsm.compaction.major.execute_schedule``, not only the name in
``executor``), so the wrapper sits on the path the program really takes.
Nothing under ``src/`` knows about it.

:data:`SPANS` is the single list of layer boundaries.  Each span name
``X`` yields two per-layer metrics, ``X_s`` (summed self time) and
``X_calls``; :data:`COUNTERS` are the per-layer counts and ratios that
come from call results or end-of-pass statistics.  ``BENCHMARK.json``
lists the same names (a test keeps them in step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .spans import CountHook, Patcher, Tracer, traced


@dataclass(frozen=True)
class Span:
    name: str
    target: str  # "module:attribute" or "module:Class.method"
    count: Optional[CountHook] = None
    #: Also wrap the method in every subclass body that defines it.
    subclasses: bool = False


def _count_ops(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("ycsb.ops", result.total_operations)


def _count_phase1(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("phase1.tables", result.n_tables)
    tracer.count("phase1.entries", result.total_entries)


def _count_encoded(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("core.encoded_keys", args[1].total_input_size)


def _count_execution(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("executor.merges", result.n_merges)
    tracer.count("executor.entries_merged", result.cost_actual_entries)
    tracer.count("executor.bytes_written", result.bytes_written)


def _count_reads(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("read_path.reads", result.reads)
    tracer.count("read_path.tables_probed", result.tables_probed)


def _count_sstable_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("sstable_io.bytes", len(result))


SPANS: tuple[Span, ...] = (
    # ycsb: op-stream generation
    Span("ycsb.op_stream", "repro.ycsb.workload:CoreWorkload.op_stream_columns", _count_ops),
    # simulator: phase 1 (slab / memtable build) and phase 2 (one strategy)
    Span("phase1.generate", "repro.simulator.phase1:generate_sstables", _count_phase1),
    Span("phase2.run_strategy", "repro.simulator.phase2:run_strategy"),
    # lsm.compaction.major: key sets, estimator set-up, schedule, execution
    Span("compaction.major", "repro.lsm.compaction.major:MajorCompaction.compact"),
    # core: key-set bitset encoding, the greedy loop, policies, estimators
    Span("core.encode", "repro.core.backend:BitsetBackend.encode_instance", _count_encoded),
    Span("greedy.run", "repro.core.greedy:GreedyMerger.run"),
    Span("policy.prepare", "repro.core.policies.base:ChoosePolicy.prepare", subclasses=True),
    Span("policy.choose", "repro.core.policies.base:ChoosePolicy.choose", subclasses=True),
    Span("policy.observe", "repro.core.policies.base:ChoosePolicy.observe_merge", subclasses=True),
    Span("estimator.seed", "repro.core.estimator:CardinalityEstimator.seed_sketches", subclasses=True),
    Span("estimator.prepare", "repro.core.estimator:CardinalityEstimator.prepare", subclasses=True),
    Span("estimator.union", "repro.core.estimator:CardinalityEstimator.union_cardinality", subclasses=True),
    Span("estimator.union_batch", "repro.core.estimator:CardinalityEstimator.union_cardinalities", subclasses=True),
    Span("estimator.observe", "repro.core.estimator:CardinalityEstimator.observe_merge", subclasses=True),
    # hll: per-table sketches
    Span("hll.sketch", "repro.lsm.sstable:SSTable.sketch"),
    # lsm.compaction.executor: merge execution
    Span("executor.execute", "repro.lsm.compaction.major:execute_schedule", _count_execution),
    # simulator.read_path: serving reads against the compacted tables
    Span("read_path.serve", "repro.simulator.phase2:serve_reads", _count_reads),
    # lsm.engine: the embedded store's calls
    Span("engine.put", "repro.lsm.engine:LSMEngine.put"),
    Span("engine.delete", "repro.lsm.engine:LSMEngine.delete"),
    Span("engine.get", "repro.lsm.engine:LSMEngine.get"),
    Span("engine.scan", "repro.lsm.engine:LSMEngine.scan"),
    # lsm.durable: flush, foreground compaction, recovery
    Span("durable.flush", "repro.lsm.durable:DurableLSMEngine.flush"),
    Span("durable.compact", "repro.lsm.durable:DurableLSMEngine.compact"),
    Span("durable.recover", "repro.lsm.durable:DurableLSMEngine.simulate_crash_and_recover"),
    # lsm.format: WAL, sstable codec, manifest
    Span("wal.append", "repro.lsm.format.wal:FileWriteAheadLog.append"),
    Span("wal.sync", "repro.lsm.format.wal:FileWriteAheadLog.sync"),
    Span("wal.replay", "repro.lsm.format.wal:FileWriteAheadLog.replay"),
    Span("sstable_io.encode", "repro.lsm.durable:encode_sstable", _count_sstable_bytes),
    Span("sstable_io.decode", "repro.lsm.durable:decode_sstable"),
    Span("manifest.write", "repro.lsm.durable:write_manifest"),
)

#: Per-layer counts and ratios, with their units and better direction.
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("ycsb.ops", "count", "lower"),
    ("phase1.tables", "count", "lower"),
    ("phase1.entries", "count", "lower"),
    ("core.encoded_keys", "count", "lower"),
    ("executor.merges", "count", "lower"),
    ("executor.entries_merged", "count", "lower"),
    ("executor.bytes_written", "bytes", "lower"),
    ("read_path.reads", "count", "lower"),
    ("read_path.tables_probed_per_read", "ratio", "lower"),
    ("engine.memtable_hit_ratio", "ratio", "higher"),
    ("engine.tables_probed_per_get", "ratio", "lower"),
    ("engine.bloom_fp_rate", "ratio", "lower"),
    ("engine.scan_yield", "ratio", "higher"),
    ("durable.stall_max_ms", "ms", "lower"),
    ("sstable_io.bytes", "bytes", "lower"),
    ("fs.bytes_written", "bytes", "lower"),
    ("fs.syncs", "count", "lower"),
)


def _resolve(target: str) -> tuple[object, str]:
    import importlib

    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def install_spans(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every :data:`SPANS` target so its calls record spans on ``tracer``."""
    # Import the policy and estimator registries so every subclass exists.
    import repro.core.policies  # noqa: F401
    import repro.core.estimator  # noqa: F401

    for span in SPANS:
        owner, attribute = _resolve(span.target)

        def make(fn: Callable, span: Span = span) -> Callable:
            return traced(tracer, span.name, fn, span.count)

        owners = _subclasses(owner) if span.subclasses else [owner]
        for each in owners:
            patcher.wrap(each, attribute, make)


def install_output_capture(patcher: Patcher, outputs: list) -> None:
    """Keep each major compaction's output tables for the checks.

    The wrapper only appends a reference to a list; it reads no clock,
    so it runs with tracing off as well.
    """
    from repro.lsm.compaction.major import MajorCompaction

    def make(fn: Callable) -> Callable:
        def compact(self, tables, disk, next_table_id):
            result = fn(self, tables, disk, next_table_id)
            outputs.append(result.output_tables)
            return result

        return compact

    patcher.wrap(MajorCompaction, "compact", make)


def per_layer_names() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    names = []
    for span in SPANS:
        names.append((f"{span.name}_s", "s", "lower"))
        names.append((f"{span.name}_calls", "count", "lower"))
    names.extend(COUNTERS)
    names.extend(WORKLOAD_LAYER_METRICS)
    names.extend(TRACE_METRICS)
    return names


#: Per-layer figures a workload measures itself (0 where it does not apply).
WORKLOAD_LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("setup.op_stream_s", "s", "lower"),
    ("setup.load_s", "s", "lower"),
    ("kv.put_us_p50", "us", "lower"),
    ("kv.put_us_p99", "us", "lower"),
    ("kv.get_us_p50", "us", "lower"),
    ("kv.get_us_p99", "us", "lower"),
    ("kv.scan_us_p50", "us", "lower"),
    ("kv.scan_us_p99", "us", "lower"),
    ("kv.recover_s", "s", "lower"),
    ("kv.space_amp", "ratio", "lower"),
)

#: How much of the traced wall the layer spans explain, and what tracing cost.
TRACE_METRICS: tuple[tuple[str, str, str], ...] = (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)

#: Unit of every per-layer metric.
UNITS = {name: unit for name, unit, _ in per_layer_names()}
