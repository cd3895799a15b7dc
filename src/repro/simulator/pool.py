"""The repo's one worker pool: independent tasks over spawned processes.

Sweep cells and the shards of sharded cells are independent, seeded
from their arguments alone, so running them on worker processes changes
only wall clock (see ``docs/concurrency.md``).  :func:`map_in_order` is
the single place such a pool is created.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Sequence


def map_in_order(
    tasks: Sequence[tuple[Callable[..., Any], tuple]], jobs: int
) -> list[Any]:
    """Run every ``(fn, args)`` task on up to ``jobs`` worker processes.

    Results come back in task order.  A task is handed to the pool only
    when a worker is free, so the first failure, whether a task raising
    or the caller interrupted (``KeyboardInterrupt``), starts no further
    task: it waits only for the tasks already running, then propagates.
    ``fn`` and ``args`` must pickle: workers are spawned, so ``fn`` is
    looked up by module and name.
    """
    if not tasks:
        return []
    workers = min(jobs, len(tasks))
    results: list[Any] = [None] * len(tasks)
    queued = iter(enumerate(tasks))
    running: dict[Future, int] = {}
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )

    def submit(count: int) -> None:
        for index, (fn, args) in itertools.islice(queued, count):
            running[pool.submit(fn, *args)] = index

    try:
        submit(workers)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                results[running.pop(future)] = future.result()
            submit(len(done))
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
