"""The LSM storage substrate (Figures 1 and 2 of the paper).

Memtables, sstables with bloom filters and sparse indexes, a write-ahead
log, a simulated disk with byte accounting and a timing model, the full
read/write path (:class:`LSMEngine`) and the compaction strategies.
"""

from .bloom import BloomFilter
from .compaction import (
    CompactionController,
    CompactionResult,
    CompactionStrategy,
    ControllerStats,
    DateTieredCompaction,
    LeveledCompaction,
    MajorCompaction,
    SizeTieredCompaction,
    execute_schedule,
)
from .disk import DiskTimingModel, IoStats, SimulatedDisk
from .durable import DurableLSMEngine
from .engine import EngineConfig, LSMEngine, ReadStats
from .faults import (
    CrashPoint,
    FaultInjectedFileSystem,
    FaultPlan,
    LocalFileSystem,
    MemoryFileSystem,
)
from .format import FileWriteAheadLog
from .metrics import AmplificationReport, measure_amplification
from .memtable import (
    AppendLogMemtable,
    Memtable,
    SortedMapMemtable,
    make_memtable,
)
from .record import ENTRY_OVERHEAD_BYTES, Record
from .sstable import SSTable, TableColumns, merge_sstables, table_from_records
from .wal import WriteAheadLog

__all__ = [
    "AmplificationReport",
    "AppendLogMemtable",
    "BloomFilter",
    "CompactionController",
    "CompactionResult",
    "CompactionStrategy",
    "ControllerStats",
    "CrashPoint",
    "DateTieredCompaction",
    "DiskTimingModel",
    "DurableLSMEngine",
    "ENTRY_OVERHEAD_BYTES",
    "EngineConfig",
    "FaultInjectedFileSystem",
    "FaultPlan",
    "FileWriteAheadLog",
    "IoStats",
    "LSMEngine",
    "LeveledCompaction",
    "LocalFileSystem",
    "MemoryFileSystem",
    "MajorCompaction",
    "Memtable",
    "ReadStats",
    "Record",
    "SSTable",
    "SimulatedDisk",
    "SizeTieredCompaction",
    "SortedMapMemtable",
    "TableColumns",
    "WriteAheadLog",
    "execute_schedule",
    "make_memtable",
    "measure_amplification",
    "merge_sstables",
    "table_from_records",
]
