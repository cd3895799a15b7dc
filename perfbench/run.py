"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7a --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up, then timed passes
over the same inputs for ``--seconds``, reporting medians of times
calibrated against a reference loop (``calibration.py``).
``--trace 1`` runs two untraced passes and one traced pass and reports the
per-layer metrics: self time and calls per layer span, layer counters, the
time in no layer span and the tracing overhead.  Every pass checks its
outputs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a summary (and,
when traced, every span) is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up runs this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 5
#: The program modules the workloads use; importing them is part of set-up.
PROGRAM_MODULES = (
    "repro.simulator",
    "repro.lsm.durable",
    "repro.lsm.compaction.controller",
    "repro.ycsb.workload",
)

#: ``(name, unit)`` of every end-to-end metric, reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cost_actual", "entries"),
    ("write_amp", "ratio"),
)


def _import_seconds() -> tuple[float, float]:
    """Time to import the program in a fresh interpreter: calibrated, raw.

    The child process runs the reference loop itself, since it may run on
    the other core, whose load differs.
    """
    code = "\n".join(
        [
            "import time",
            "from perfbench.calibration import calibrated, reference_loop",
            "reference_loop()",  # the first run in a fresh process grows its heap
            "before = reference_loop()",
            "started = time.perf_counter()",
        ]
        + [f"import {name}" for name in PROGRAM_MODULES]
        + [
            "seconds = time.perf_counter() - started",
            "print(calibrated(seconds, (before + reference_loop()) / 2), seconds)",
        ]
    )
    paths = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    calibrated_s, raw_s = done.stdout.split()
    return float(calibrated_s), float(raw_s)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("fig7a", "many-sstables", "kv-durable")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(passes) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }
    for each in passes:
        env.update(each.env)
    return env


def _latency_notes(passes, notes: list[str]) -> None:
    from perfbench.stats import tail

    for kind in ("put_us", "get_us", "scan_us"):
        samples = [value for each in passes for value in each.extra[kind]]
        p99 = tail(samples, 99.0)
        notes.append(
            f"{kind}_p50 {statistics.median(samples):.2f} us, {kind}_p99 {p99.value:.2f} us"
            f" (p{p99.percentile:g} of {p99.samples} samples)"
        )


def _calibrated_wall(passes) -> float:
    """The sum over timed units of each unit's median calibrated time across passes."""
    from perfbench.calibration import calibrated

    return sum(
        statistics.median(calibrated(seconds, reference) for seconds, reference in unit)
        for unit in zip(
            *(zip(each.timer.units, each.timer.references) for each in passes)
        )
    )


def _end_to_end(passes, setup_s: float, peak_rss_mb: float, notes: list[str]) -> dict:
    median = statistics.median
    wall_s = _calibrated_wall(passes)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": passes[0].ops / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cost_actual": median([each.cost_actual for each in passes]),
        "write_amp": median([each.write_amp for each in passes]),
    }
    notes.append(
        f"{len(passes)} passes, raw wall s each: "
        + ", ".join(f"{each.wall_s:.3f}" for each in passes)
    )
    references = [value for each in passes for value in each.timer.references]
    notes.append(
        f"reference loop around the units: median {median(references) * 1e3:.3f} ms,"
        f" fastest {min(references) * 1e3:.3f} ms"
    )
    if "put_us" in passes[0].extra:
        _latency_notes(passes, notes)
        notes.append(
            f"recover_s {median([each.extra['recover_s'] for each in passes]):.4f} s,"
            f" space_amp {median([each.extra['space_amp'] for each in passes]):.4f} ratio,"
            f" compactions per pass {passes[0].extra['compactions']}"
        )
    return values


def _per_layer(state, untraced, traced_pass, tracer) -> dict:
    from perfbench.probes import SPANS, per_layer_names
    from perfbench.spans import ROOT_PREFIX, root_wall, self_times
    from perfbench.stats import tail

    times = self_times(tracer)
    values: dict[str, float] = {}
    for span in SPANS:
        seconds, calls = times.get(span.name, (0.0, 0))
        values[f"{span.name}_s"] = seconds
        values[f"{span.name}_calls"] = calls
    values.update(tracer.counters)
    reads = tracer.counters.get("read_path.reads", 0)
    values["read_path.tables_probed_per_read"] = (
        tracer.counters.get("read_path.tables_probed", 0) / reads if reads else 0.0
    )
    stalls = [
        tracer.ends[index] - tracer.starts[index]
        for index, name in enumerate(tracer.names)
        if name == "durable.compact"
    ]
    values["durable.stall_max_ms"] = max(stalls, default=0.0) * 1000.0
    extra = traced_pass.extra
    for name in (
        "engine.memtable_hit_ratio",
        "engine.tables_probed_per_get",
        "engine.bloom_fp_rate",
        "engine.scan_yield",
        "fs.bytes_written",
        "fs.syncs",
    ):
        values[name] = extra.get(name, 0.0)
    values["setup.op_stream_s"] = getattr(state, "op_stream_s", 0.0)
    values["setup.load_s"] = getattr(state, "load_s", 0.0)
    for kind in ("put", "get", "scan"):
        samples = untraced.extra.get(f"{kind}_us")
        values[f"kv.{kind}_us_p50"] = statistics.median(samples) if samples else 0.0
        values[f"kv.{kind}_us_p99"] = tail(samples).value if samples else 0.0
    values["kv.recover_s"] = untraced.extra.get("recover_s", 0.0)
    values["kv.space_amp"] = untraced.extra.get("space_amp", 0.0)
    untraced_wall = untraced.wall_s + untraced.extra.get("recover_s", 0.0)
    traced_wall = root_wall(tracer)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.uncovered_s"] = sum(
        seconds for name, (seconds, _) in times.items() if name.startswith(ROOT_PREFIX)
    )
    expected = [name for name, _, _ in per_layer_names()]
    return {name: values.get(name, 0.0) for name in expected}


def _layer_table(tracer, values: dict) -> list[str]:
    from perfbench.spans import ROOT_PREFIX, self_times

    wall = values["trace.wall_s"]
    rows = sorted(
        (
            (seconds, name, calls)
            for name, (seconds, calls) in self_times(tracer).items()
            if not name.startswith(ROOT_PREFIX)
        ),
        reverse=True,
    )
    lines = [f"{'layer span':<24} {'self s':>10} {'share':>7} {'calls':>9}"]
    for seconds, name, calls in rows:
        lines.append(f"{name:<24} {seconds:>10.4f} {seconds / wall:>7.1%} {calls:>9}")
    uncovered = values["trace.uncovered_s"]
    lines.append(f"{'(no layer span)':<24} {uncovered:>10.4f} {uncovered / wall:>7.1%}")
    lines.append(f"{'traced wall':<24} {wall:>10.4f}")
    lines.append(
        f"{'tracing overhead':<24} {values['trace.overhead_s']:>10.4f}"
        f" (untraced wall {values['trace.untraced_wall_s']:.4f})"
    )
    return lines


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    from perfbench.calibration import calibrated, reference_loop
    from perfbench.checks import Checker
    from perfbench.probes import UNITS, install_spans
    from perfbench.spans import Patcher, Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setups = []  # (raw seconds, calibrated seconds) of each set-up
    for _ in range(SETUP_REPEATS):
        import_s, import_raw_s = _import_seconds()
        before = reference_loop()
        started = time.perf_counter()
        state = workload.setup(args.seed)
        seconds = time.perf_counter() - started
        reference = (before + reference_loop()) / 2
        setups.append((import_raw_s + seconds, import_s + calibrated(seconds, reference)))
    setup_s = statistics.median(calibrated_s for _, calibrated_s in setups)

    checker = Checker()
    notes: list[str] = [
        "set-up runs (fresh-interpreter import + set-up), raw s: "
        + ", ".join(f"{seconds:.4f}" for seconds, _ in setups)
    ]
    units = dict(END_TO_END)
    tracer = None
    if args.trace == 0:
        passes = []
        started = time.perf_counter()
        pass_s = 0.0
        # Start a pass only if it should end within --seconds.
        while not passes or time.perf_counter() - started + pass_s <= args.seconds:
            gc.collect()
            pass_started = time.perf_counter()
            passes.append(workload.run_pass(state, checker, None))
            pass_s = time.perf_counter() - pass_started
            if len(passes) == 1:
                # Later passes repeat the same work; only the runner's own
                # per-pass records (latency samples) would still grow.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = _end_to_end(passes, setup_s, peak_rss_mb, notes)
    else:
        # The first pass after set-up can run slower while the heap grows;
        # it warms up, and the second untraced pass is the baseline.
        for _ in range(2):
            gc.collect()
            untraced = workload.run_pass(state, checker, None)
        tracer = Tracer()
        gc.collect()
        with Patcher() as patcher:
            install_spans(patcher, tracer)
            traced_pass = workload.run_pass(state, checker, tracer)
        passes = [untraced, traced_pass]
        values = _per_layer(state, untraced, traced_pass, tracer)
        units = UNITS
        notes.extend(_layer_table(tracer, values))

    env = _environment(passes)
    notes.append(
        f"error_rate {checker.error_rate:.6g} failed/attempted ({checker.failed}"
        f" failed of {checker.attempted} checked outputs)"
    )
    notes.extend(f"check failed: {example}" for example in checker.examples)
    metrics = {
        name: {"value": float(value), "unit": units[name]} for name, value in values.items()
    }
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:>16.6f} {metric['unit']}")
    for note in notes:
        print(note)
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"metrics": metrics, "env": env, "notes": notes}, indent=2)
    )
    if tracer is not None:
        tracer.write_jsonl_gz(OUT_DIR / f"{stem}-spans.jsonl.gz")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
