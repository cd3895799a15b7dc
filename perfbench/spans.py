"""In-memory span tracing around calls into the program's layers.

A :class:`Tracer` records one span per wrapped call: its name, start, end,
the span that was open when it began (its parent) and the id of the trace
it belongs to (one cell of a simulator workload, one operation of the
key-value workload).  Spans stay in memory until the run ends.

:class:`Patcher` installs the wrappers by replacing the attribute a caller
looks up — a module-level function name or a method in a class body — and
restores every original on :meth:`Patcher.restore`.

:func:`self_times` turns spans into per-name self time: a span's duration
minus the time its child spans cover.  The workloads run in one thread, so
children of one span never overlap and their durations add up.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

#: Root spans carry this prefix; their self time is time spent in no layer.
ROOT_PREFIX = "root."


class Tracer:
    """Spans in parallel arrays plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.trace_ids = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.trace_id = 0
        #: Wrapped calls record nothing while this is False.
        self.active = True
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.trace_ids.append(self.trace_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def root(self, name: str, trace_id: int) -> int:
        """Open a root span that starts trace ``trace_id``."""
        if self._stack:
            raise RuntimeError("a root span cannot nest inside another span")
        self.trace_id = trace_id
        return self.enter(ROOT_PREFIX + name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def __len__(self) -> int:
        return len(self.names)

    def write_jsonl_gz(self, path: Path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for index, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "trace": self.trace_ids[index],
                        }
                    )
                )
                out.write("\n")


@contextmanager
def paused(tracer: Optional[Tracer]) -> Iterator[None]:
    """Run a block without recording spans (set-up and checks between passes)."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def self_times(tracer: Tracer) -> dict[str, tuple[float, int]]:
    """``name -> (summed self time in seconds, number of spans)``."""
    child_time = [0.0] * len(tracer)
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    for index in range(len(tracer)):
        parent = parents[index]
        if parent >= 0:
            child_time[parent] += ends[index] - starts[index]
    totals: dict[str, list] = {}
    for index, name in enumerate(tracer.names):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += ends[index] - starts[index] - child_time[index]
        entry[1] += 1
    return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}


def root_wall(tracer: Tracer) -> float:
    """Summed duration of every root span (the traced wall time)."""
    return sum(
        tracer.ends[index] - tracer.starts[index]
        for index in range(len(tracer))
        if tracer.parents[index] < 0
    )


CountHook = Callable[[Tracer, tuple, dict, object], None]


def traced(
    tracer: Tracer, name: str, fn: Callable, count: Optional[CountHook] = None
) -> Callable:
    """``fn`` wrapped in a span; ``count`` sees the call's arguments and result."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(index)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


class Patcher:
    """Replace attributes by wrapped versions; put the originals back later."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attribute`` to ``make(original)``.

        For a class, only a function defined in that class body is
        replaced, so a subclass that inherits a method is covered by the
        wrapper on its base and no call is counted twice.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attribute)
            if original is None:
                return
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{owner.__name__}.{attribute} is not a plain method")
        else:
            original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
