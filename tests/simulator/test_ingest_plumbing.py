"""Ingest plumbing: the WAL group-commit knob, ingest wall, retired options.

Phase 1 measures its ingest wall clock (and so does its op-at-a-time
oracle), the ``wal_sync_every`` knob reaches the disk-spill WAL through
config, CLI and manifest, and the options of removed features (thread/
process merge executor, concurrent write pipeline, data-plane choice)
are gone from the config, the CLI, the report and the manifest cells.
"""

from dataclasses import fields

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.scenarios import ResultsStore
from repro.simulator.config import RETIRED_FIELDS, SimulationConfig
from repro.simulator.metrics import StrategyResult, aggregate
from repro.simulator.phase1 import generate_sstables, spill_tables_to_disk
from tests.oracles.phase1 import generate_sstables_reference

TINY = dict(recordcount=120, operationcount=1500, memtable_capacity=100, seed=3)

TINY_SETS = [
    "--set", "recordcount=120",
    "--set", "operationcount=1500",
    "--set", "memtable_capacity=100",
]

RETIRED_FLAGS = [
    ["--merge-executor", "thread"],
    ["--merge-workers", "2"],
    ["--write-pipeline"],
    ["--max-immutable-memtables", "3"],
    ["--flush-workers", "2"],
    ["--data-plane", "reference"],
]


def _result(**kwargs):
    base = dict(
        strategy="SI", n_tables=4, n_merges=1, cost_actual=10,
        cost_simplified=10, lopt_entries=10, bytes_read=0, bytes_written=0,
        io_seconds=0.0, simulated_seconds=0.0,
        strategy_overhead_seconds=0.0, wall_seconds=0.0,
    )
    base.update(kwargs)
    return StrategyResult(**base)


def _manifest_cells(manifest):
    """Every per-strategy metrics dict in a manifest document."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            if "cost_actual_mean" in node:
                found.append(node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(manifest.document if hasattr(manifest, "document") else manifest.__dict__)
    return found


class TestWalSyncEvery:
    def test_default_syncs_every_write(self):
        assert SimulationConfig(**TINY).wal_sync_every == 1

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(**TINY, wal_sync_every=0)

    def test_describe_mentions_only_when_set(self):
        assert "wal_sync_every=8" in SimulationConfig(
            **TINY, wal_sync_every=8
        ).describe()
        assert "wal_sync_every" not in SimulationConfig(**TINY).describe()

    @pytest.mark.parametrize("sync_every", [1, 7, 64])
    def test_spilled_tables_unchanged_by_sync_cadence(self, sync_every):
        tables = generate_sstables(SimulationConfig(**TINY)).tables
        spilled = spill_tables_to_disk(tables, wal_sync_every=sync_every)
        assert [t.table_id for t in spilled] == [t.table_id for t in tables]
        for original, reloaded in zip(tables, spilled):
            assert reloaded.records == original.records
            assert reloaded.size_bytes == original.size_bytes

    def test_flag_reaches_config_and_manifest(self, capsys, tmp_path):
        store = tmp_path / "runs"
        code = main(
            [
                "run", "churn", "--runs", "1", "--store", str(store),
                "--storage", "disk", "--wal-sync-every", "16",
            ]
            + TINY_SETS
        )
        assert code == 0
        manifest = next(iter(ResultsStore(store).manifests("churn")))
        assert manifest.config["wal_sync_every"] == 16
        assert manifest.config["storage"] == "disk"


class TestIngestWall:
    @pytest.mark.parametrize("mode", ["append", "map"])
    @pytest.mark.parametrize(
        "plane", [generate_sstables, generate_sstables_reference]
    )
    def test_measured_on_both_planes(self, mode, plane):
        result = plane(SimulationConfig(**TINY, memtable_mode=mode))
        assert result.tables
        assert result.ingest_wall_seconds > 0.0

    def test_aggregate_means_ingest_wall(self):
        agg = aggregate(
            [_result(ingest_wall_seconds=1.0), _result(ingest_wall_seconds=3.0)]
        )
        assert agg.ingest_wall_seconds_mean == 2.0

    def test_manifest_cells_carry_ingest_wall_and_no_retired_key(
        self, capsys, tmp_path
    ):
        store = tmp_path / "runs"
        code = main(
            ["run", "churn", "--runs", "1", "--store", str(store)] + TINY_SETS
        )
        assert code == 0
        manifest = next(iter(ResultsStore(store).manifests("churn")))
        assert not set(RETIRED_FIELDS) & set(manifest.config)
        cells = _manifest_cells(manifest)
        assert cells, "manifest has no strategy cells"
        retired_metrics = {
            "merge_executor", "merge_workers", "merge_utilization_mean",
            "write_pipeline", "write_stall_count_mean",
            "flush_overlap_fraction_mean",
        }
        for cell in cells:
            assert cell["ingest_wall_seconds_mean"] > 0.0
            assert "merge_wall_seconds_mean" in cell
            assert not retired_metrics & set(cell)


class TestRetiredOptions:
    def test_config_has_no_retired_field(self):
        names = {field.name for field in fields(SimulationConfig)}
        assert len(names) == 24
        assert not names & set(RETIRED_FIELDS)

    @pytest.mark.parametrize(
        "flag", RETIRED_FLAGS, ids=[flag[0] for flag in RETIRED_FLAGS]
    )
    def test_retired_flag_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "churn", "--runs", "1", "--no-store"] + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["write_pipeline=true", "data_plane=auto", "data_plane=reference"],
    )
    def test_retired_set_override_rejected(self, override, capsys):
        code = main(
            ["run", "churn", "--runs", "1", "--no-store"]
            + TINY_SETS
            + ["--set", override]
        )
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err

    def test_manifest_with_plane_used_loads(self, capsys, tmp_path):
        """Manifests written while phase 1 recorded its plane still load."""
        import json

        store = ResultsStore(tmp_path / "runs")
        code = main(
            ["run", "churn", "--runs", "1", "--store", str(store.root)]
            + TINY_SETS
        )
        assert code == 0
        (path,) = (store.root / "churn").glob("*.json")
        document = json.loads(path.read_text())
        assert "plane_used" not in document
        assert all("plane_used" not in cell for cell in document["cells"])
        document["plane_used"] = "fast"
        document["config"]["data_plane"] = "auto"
        for cell in document["cells"]:
            cell["plane_used"] = "fast"
        path.write_text(json.dumps(document))
        manifest = store.load(path)
        assert manifest.cells[0]["plane_used"] == "fast"
        config = SimulationConfig.from_dict(manifest.config)
        del manifest.config["data_plane"]
        assert config.to_dict() == manifest.config

    def test_report_has_no_retired_columns(self, capsys):
        code = main(["run", "churn", "--runs", "1", "--no-store"] + TINY_SETS)
        assert code == 0
        out = capsys.readouterr().out
        retired = ("merge wall s", "workers", "util%", "ingest s", "stalls", "overlap%")
        for column in retired:
            assert column not in out
