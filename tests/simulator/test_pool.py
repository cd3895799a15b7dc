"""The worker pool stops at the first failure.

A failing cell, or Ctrl-C in the parent, must surface at once: no
further task starts, and no run manifest is written.  Workers are
spawned, so the task functions live at module level and find their
marker directory through the environment or their arguments.
"""

import os
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.simulator import pool, runner

MARKERS = "REPRO_TEST_POOL_MARKERS"
#: How long a cell that does not fail keeps its worker busy: long enough
#: that the failing cell always finishes first.
CELL_SECONDS = 1.0


def first_cell_fails(config, labels, run_index):
    """Stand-in for a sweep cell: records its start, the first one raises."""
    name = f"{config.update_fraction:g}-{run_index}"
    (Path(os.environ[MARKERS]) / name).touch()
    if config.update_fraction == 0.0 and run_index == 0:
        raise RuntimeError("cell failed")
    time.sleep(CELL_SECONDS)
    return {}


def record_start(markers, index):
    (Path(markers) / str(index)).touch()
    return index


def test_failing_cell_cancels_later_cells_and_writes_no_manifest(
    tmp_path, monkeypatch
):
    markers = tmp_path / "started"
    markers.mkdir()
    monkeypatch.setenv(MARKERS, str(markers))
    monkeypatch.setattr(runner, "_comparison_cell", first_cell_fails)
    store = tmp_path / "runs"
    with pytest.raises(RuntimeError, match="cell failed"):
        main(
            ["run", "fig7a", "--runs", "2", "--jobs", "2", "--store", str(store)]
        )
    started = {path.name for path in markers.iterdir()}
    # Ten cells, (update fraction, run) in order, on two workers: only
    # the failing cell and the one running beside it ever start.
    assert "0-0" in started
    assert started <= {"0-0", "0-1"}
    assert list(store.rglob("*.json")) == []


def test_interrupt_cancels_tasks_not_yet_started(tmp_path, monkeypatch):
    # Ctrl-C reaches the parent while it waits on the running tasks.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(pool, "wait", interrupted)
    tasks = [(record_start, (str(tmp_path), index)) for index in range(8)]
    with pytest.raises(KeyboardInterrupt):
        pool.map_in_order(tasks, jobs=2)
    started = {int(path.name) for path in tmp_path.iterdir()}
    assert started <= {0, 1}



def finish_after(delay, index):
    time.sleep(delay)
    return index * 10


def test_empty_task_list_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for no tasks")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    assert pool.map_in_order([], jobs=4) == []


def test_results_come_back_in_task_order_with_workers_capped(monkeypatch):
    sizes = []
    real_pool = pool.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", recording_pool)
    # Later tasks finish first; the results still follow task order.
    tasks = [(finish_after, (0.3 - 0.1 * index, index)) for index in range(3)]
    assert pool.map_in_order(tasks, jobs=8) == [0, 10, 20]
    assert sizes == [3]
