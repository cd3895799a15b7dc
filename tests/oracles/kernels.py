"""Force the numpy-free slab, compaction and read kernels.

Phase 1's slab flush, :func:`repro.lsm.sstable.merge_sstables` and
:func:`repro.simulator.read_path.serve_reads` take their columnar path
whenever numpy is importable (and, for merges and reads, every table
exposes int64 columns).  Inside :func:`reference_kernels` those modules
see no numpy: phase 1 flushes record-backed tables through the memtable,
every merge runs the heap kernel and every read the scalar engine — the
path a numpy-less install always takes.  The op stream itself is left
alone; its pure fallback is pinned by the ``_np = None`` fixtures of the
phase-1 harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.lsm import sstable as sstable_module
from repro.simulator import phase1 as phase1_module
from repro.simulator import read_path as read_path_module


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Record-backed slabs, heap merges and scalar reads for the block."""
    with mock.patch.object(phase1_module, "_np", None), mock.patch.object(
        sstable_module, "_np", None
    ), mock.patch.object(read_path_module, "_np", None):
        yield
