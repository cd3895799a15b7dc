"""Calibrating timings against a reference loop run next to them.

Other tenants of the machine change how fast this process runs.  A
pure-Python loop timed back to back for 40 s on the 2-core VM these numbers
come from switched between about 1.9 ms and 3.0-3.5 ms a call, in stretches
of about a second, and the same workload and seed took from 2.9 to 3.9 s
in runs minutes apart.  No statistic over one run's raw times removes that.

So each timed unit of a pass is bracketed by :func:`reference_loop`, and
its time is divided by the reference loop's time around it.  The ratio is
the unit's cost in reference loops, which the machine's load moves far
less.  Multiplying by :data:`REFERENCE_S` turns it back into seconds.
"""

from __future__ import annotations

import time

#: The reference loop's median time between the units of all three
#: workloads on the 2-core x86_64 VM (Python 3.11.7).  Calibrated times are
#: therefore seconds on that VM at its usual load.
REFERENCE_S = 2.3e-3

_KEYS = range(20_000)


def reference_loop() -> float:
    """Seconds for one run of a fixed pure-Python loop: a dict build and a sort."""
    started = time.perf_counter()
    table = {}
    for key in _KEYS:
        table[key] = key * 3
    sorted(table.values(), reverse=True)
    return time.perf_counter() - started


class UnitTimer:
    """Collects one pass's unit times, each with the reference loop around it.

    Call :meth:`add` right after a unit ends; the reference loop runs then,
    so it closes this unit's bracket and opens the next one's.  A traced
    pass passes ``calibrate=False``: its spans must cover the program alone.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.units: list[float] = []
        self.references: list[float] = []
        self._calibrate = calibrate
        self._before = reference_loop() if calibrate else 0.0

    def add(self, seconds: float) -> None:
        self.units.append(seconds)
        if self._calibrate:
            after = reference_loop()
            self.references.append((self._before + after) / 2)
            self._before = after


def calibrated(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference loop took ``reference`` seconds,
    rescaled to a reference loop of :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / reference
