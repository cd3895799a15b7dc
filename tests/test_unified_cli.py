"""Tests for the unified ``python -m repro`` CLI (repro.cli)."""

import json

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import ExperimentResult
from repro.cli import main
from repro.scenarios import REGISTRY, ResultsStore, Scenario

TINY_SETS = [
    "--set", "recordcount=150",
    "--set", "operationcount=1500",
    "--set", "memtable_capacity=150",
]


class TestListScenarios:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out
        # legacy figures and >=3 presets visible (acceptance criterion)
        for name in ("fig7a", "fig7b", "fig8", "fig9a", "fig9b"):
            assert name in out
        assert len([s for s in REGISTRY.scenarios("preset")]) >= 3

    def test_tag_filter(self, capsys):
        assert main(["list-scenarios", "--tag", "preset"]) == 0
        out = capsys.readouterr().out
        assert "read-heavy" in out
        assert "fig7a" not in out

    def test_json_dump_roundtrips(self, capsys):
        assert main(["list-scenarios", "--json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert len(specs) == len(REGISTRY)
        for spec in specs:
            assert Scenario.from_dict(spec) == REGISTRY.get(spec["name"])


class TestRun:
    def test_run_writes_manifest(self, capsys, tmp_path):
        store_dir = tmp_path / "runs"
        code = main(
            ["run", "churn", "--runs", "1", "--store", str(store_dir)] + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "churn" in out and "costactual" in out
        assert "[manifest written to" in out
        manifests = list(ResultsStore(store_dir).manifests("churn"))
        assert len(manifests) == 1
        assert manifests[0].config["operationcount"] == 1500

    def test_no_store(self, capsys, tmp_path):
        code = main(["run", "churn", "--runs", "1", "--no-store"] + TINY_SETS)
        assert code == 0
        assert "[manifest" not in capsys.readouterr().out

    def test_verbose_prints_execution_details(self, capsys):
        code = main(
            ["run", "read-heavy", "--runs", "1", "--no-store", "--verbose"]
            + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[runs=1 jobs=1; read phase: served]" in out
        assert "data plane" not in out and "plane=" not in out

    def test_comparison_table_with_kway_and_strategies(self, capsys):
        """One-off simulator comparisons: strategy subset and fan-in k."""
        code = main(
            ["run", "churn", "--runs", "1", "--no-store",
             "--strategies", "SI,RANDOM", "--set", "k=4"] + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SI" in out and "RANDOM" in out
        assert "cost/LOPT" in out
        assert "k=4" in out

    def test_storage_disk_smoke(self, capsys):
        """--storage disk spills phase-1 tables through the on-disk
        sstable format; the run completes with the same output shape."""
        code = main(
            ["run", "churn", "--runs", "1", "--no-store", "--storage", "disk"]
            + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "costactual" in out
        assert "storage=disk" in out

    def test_kernel_sweep_parameter(self, capsys):
        code = main(
            ["sweep", "--parameter", "k", "--values", "2,4",
             "--recordcount", "150", "--operationcount", "1500",
             "--memtable", "150", "--strategies", "SI", "--runs", "1",
             "--no-store"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adhoc-sweep" in out and "k" in out

    def test_run_spec_file(self, capsys, tmp_path):
        spec = REGISTRY.get("read-heavy").to_dict()
        spec["config"].update(
            recordcount=150, operationcount=1000, memtable_capacity=150
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["run", "--spec", str(path), "--runs", "1", "--no-store"])
        assert code == 0
        assert "read-heavy" in capsys.readouterr().out

    def test_missing_scenario_and_spec_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_unknown_scenario_is_clean_error(self, capsys):
        assert main(["run", "nope", "--no-store"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_strategy_and_seed_overrides(self, capsys):
        code = main(
            ["run", "churn", "--runs", "1", "--no-store", "--strategies",
             "SI,RANDOM", "--seed", "9"] + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=9" in out
        assert "SO" not in out.split("config:")[1]  # only SI/RANDOM rows

    def test_bad_set_value_is_clean_error(self, capsys):
        assert (
            main(["run", "churn", "--no-store", "--set", "k=1"] + TINY_SETS) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_set_value_is_clean_error(self, capsys):
        """--set k=two reaches a validation comparison; no raw traceback."""
        assert (
            main(["run", "churn", "--no-store", "--set", "k=two"] + TINY_SETS)
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_zero_runs_is_clean_error(self, capsys):
        assert main(["run", "churn", "--no-store", "--runs", "0"] + TINY_SETS) == 2
        assert "error:" in capsys.readouterr().err

    def test_incomplete_spec_file_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"name": "x"}))  # missing title/config
        assert main(["run", "--spec", str(path), "--no-store"]) == 2
        assert "invalid scenario spec" in capsys.readouterr().err

    def test_unreadable_or_corrupt_spec_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", "--spec", str(tmp_path / "missing.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["run", "--spec", str(bad)])


class TestFigures:
    """``repro figures`` plumbing, with ``run_experiment`` stubbed out."""

    def test_flags_reach_run_experiment(self, capsys, monkeypatch):
        calls = []

        def fake_run_experiment(experiment_id, **kwargs):
            calls.append((experiment_id, kwargs))
            return [ExperimentResult(experiment_id, "stub title", "stub body", {}, {})]

        monkeypatch.setattr(experiments, "run_experiment", fake_run_experiment)
        assert main(["figures", "fig7a", "--runs", "2", "--jobs", "3"]) == 0
        assert capsys.readouterr().out.startswith("== fig7a: stub title ==")
        ((experiment_id, kwargs),) = calls
        assert experiment_id == "fig7a"
        assert kwargs["runs"] == 2 and kwargs["jobs"] == 3

    def test_out_writes_files(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            experiments,
            "run_experiment",
            lambda experiment_id, **kwargs: [
                ExperimentResult(experiment_id, "t", "body", {}, {})
            ],
        )
        out_dir = tmp_path / "figs"
        assert main(["figures", "fig8", "--out", str(out_dir)]) == 0
        assert "[written to" in capsys.readouterr().out
        assert (out_dir / "fig8.txt").read_text() == "t\n\nbody\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["fig8.txt"]


class TestSweep:
    def test_adhoc_sweep(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--parameter", "update_fraction",
                "--values", "0,1",
                "--recordcount", "150",
                "--operationcount", "1000",
                "--memtable", "150",
                "--runs", "1",
                "--strategies", "SI,RANDOM",
                "--store", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adhoc-sweep" in out
        assert "update_percentage" in out
        manifest = next(ResultsStore(tmp_path / "runs").manifests("adhoc-sweep"))
        assert {cell["x"] for cell in manifest.cells} == {0.0, 100.0}


class TestBenchTrends:
    @staticmethod
    def _write_snapshot(directory, speedup, seconds, cpu_count=None):
        directory.mkdir(parents=True, exist_ok=True)
        document = {
            "bench": "demo",
            "fast_mode": False,
            "speedup": speedup,
            "optimized_seconds": seconds,
        }
        if cpu_count is not None:
            document["machine"] = {"cpu_count": cpu_count}
        (directory / "BENCH_demo.json").write_text(json.dumps(document))

    def test_single_snapshot_table(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "a", 8.0, 0.1)
        assert main(["bench-trends", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "bench: demo" in out and "speedup" in out
        assert "single snapshot" in out

    def test_regression_flagged_and_fails(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "old", 8.0, 0.1)
        self._write_snapshot(tmp_path / "new", 4.0, 0.1)  # speedup halved
        code = main(
            [
                "bench-trends",
                str(tmp_path / "old"),
                str(tmp_path / "new"),
                "--fail-on-regression",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "demo:speedup" in out

    def test_improvement_not_flagged(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "old", 4.0, 0.2)
        self._write_snapshot(tmp_path / "new", 8.0, 0.1)
        code = main(
            ["bench-trends", str(tmp_path / "old"), str(tmp_path / "new"),
             "--fail-on-regression"]
        )
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_cross_machine_movement_does_not_fail(self, capsys, tmp_path):
        """A worse number on a different machine is not a regression."""
        self._write_snapshot(tmp_path / "old", 8.0, 0.1, cpu_count=8)
        self._write_snapshot(tmp_path / "new", 2.0, 0.4, cpu_count=1)
        code = main(
            ["bench-trends", str(tmp_path / "old"), str(tmp_path / "new"),
             "--fail-on-regression"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CROSS-MACHINE" in out
        assert "0 regression(s)" in out

    def test_same_machine_movement_still_fails(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "old", 8.0, 0.1, cpu_count=4)
        self._write_snapshot(tmp_path / "new", 2.0, 0.4, cpu_count=4)
        code = main(
            ["bench-trends", str(tmp_path / "old"), str(tmp_path / "new"),
             "--fail-on-regression"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_reads_committed_results_dir(self, capsys):
        """The repo's own results/ snapshots render without error."""
        from pathlib import Path

        results = Path(__file__).resolve().parent.parent / "results"
        assert main(["bench-trends", str(results)]) == 0
        out = capsys.readouterr().out
        assert "bench:" in out

    def test_missing_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench-trends", str(tmp_path / "missing")])
