"""The durable LSM engine: the in-memory engine, persisted.

:class:`DurableLSMEngine` keeps :class:`~repro.lsm.engine.LSMEngine`'s
whole read/write/compaction surface and adds the durability tier of a
real store on top of a :mod:`~repro.lsm.faults` filesystem:

* every write is framed into a :class:`~repro.lsm.format.wal.FileWriteAheadLog`
  and synced before it is acknowledged,
* a flush encodes the new sstable
  (:func:`~repro.lsm.format.sstable_io.encode_sstable`), writes and
  syncs ``NNNNNN.sst``, commits it by rewriting the MANIFEST, and only
  then truncates the WAL,
* a compaction persists its output tables, commits the manifest, and
  only then deletes the files of the tables it replaced.

The ordering is the whole point: a crash between any two steps leaves
either the old committed state plus a replayable WAL, or the new
committed state — never a state that loses an acknowledged write.
:meth:`DurableLSMEngine.open` is the recovery procedure (and the only
constructor callers should use); ``docs/durability.md`` walks through
its steps and the crash matrix the fault harness checks them against.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CorruptionError, StorageError
from .disk import SimulatedDisk
from .engine import EngineConfig, LSMEngine
from .faults import LocalFileSystem
from .format.manifest import (
    MANIFEST_TMP_NAME,
    ManifestState,
    read_manifest,
    write_manifest,
)
from .format.sstable_io import decode_sstable, encode_sstable
from .format.wal import FileWriteAheadLog
from .sstable import SSTable


def _table_name(table_id: int) -> str:
    return f"{table_id:06d}.sst"


class DurableLSMEngine(LSMEngine):
    """An :class:`LSMEngine` whose state survives process death."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        fs=None,
        disk: Optional[SimulatedDisk] = None,
        wal_sync_every: int = 1,
    ) -> None:
        if fs is None:
            raise StorageError(
                "DurableLSMEngine needs a filesystem; use DurableLSMEngine.open"
            )
        super().__init__(config, disk)
        self._fs = fs
        self._wal_sync_every = wal_sync_every
        self._recovering = False
        #: table ids with a durable .sst file (manifest-committed or not).
        self._persisted: set[int] = set()
        #: highest seqno already durable in a committed sstable — what
        #: the manifest records, and the replay cutoff after a crash.
        self._durable_seqno = 0
        if self.config.use_wal:
            self.wal = FileWriteAheadLog(
                fs, disk=self.disk, sync_every=wal_sync_every
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory=None,
        config: Optional[EngineConfig] = None,
        fs=None,
        disk: Optional[SimulatedDisk] = None,
        wal_sync_every: int = 1,
    ) -> "DurableLSMEngine":
        """Open a store directory, rebuilding pre-crash state from files.

        Raises :class:`~repro.errors.CorruptionError`, touching no file,
        when the store holds ``wal-NNNNNN.log`` segments: earlier
        versions' pipelined engine logged acknowledged writes there, and
        this engine replays only ``wal.log``, so opening would lose them.
        """
        if fs is None:
            if directory is None:
                raise StorageError("open() needs a directory or a filesystem")
            fs = LocalFileSystem(directory)
        segments = sorted(
            name
            for name in fs.listdir()
            if name.startswith("wal-") and name.endswith(".log")
        )
        if segments:
            raise CorruptionError(
                f"store holds WAL segments {segments} that this engine "
                "cannot replay; opening it would drop the writes they log"
            )
        engine = cls(
            config, fs=fs, disk=disk, wal_sync_every=wal_sync_every
        )
        engine._recover()
        return engine

    def _recover(self) -> None:
        state = read_manifest(self._fs) or ManifestState()
        if self._fs.exists(MANIFEST_TMP_NAME):
            # A crash between writing the temp manifest and renaming it;
            # the rename never happened, so the temp file is garbage.
            self._fs.remove(MANIFEST_TMP_NAME)
        live = set(state.live_tables)
        for name in self._fs.listdir():
            if not name.endswith(".sst"):
                continue
            try:
                table_id = int(name[: -len(".sst")])
            except ValueError:
                continue
            if table_id not in live:
                # Flushed or compacted, but the manifest commit never
                # landed: the file was still invisible, remove it.
                self._fs.remove(name)
        for table_id in state.live_tables:
            name = _table_name(table_id)
            if not self._fs.exists(name):
                raise CorruptionError(
                    f"manifest names table {table_id} but {name} is missing"
                )
            table = decode_sstable(self._fs.read_bytes(name))
            if table.table_id != table_id:
                raise CorruptionError(
                    f"{name} holds table id {table.table_id}, "
                    f"manifest says {table_id}"
                )
            self.sstables.append(table)
            self._persisted.add(table_id)
        self._next_table_id = state.next_table_id
        self._durable_seqno = state.last_seqno
        self._seqno = state.last_seqno
        if not self.config.use_wal:
            return
        survivors = [
            record
            for record in self.wal.replay()
            if record.seqno > state.last_seqno
        ]
        self._recovering = True
        try:
            for record in survivors:
                if self.memtable.is_full:
                    # Mid-replay flush: commits a table (raising the
                    # manifest's replay cutoff past it) but must NOT
                    # truncate the WAL — the survivors still to come
                    # exist nowhere else.
                    self.flush()
                self.memtable.add(record)
                self._seqno = max(self._seqno, record.seqno)
        finally:
            self._recovering = False

    # ------------------------------------------------------------------
    # Durable write path
    # ------------------------------------------------------------------
    def _persist_table(self, table: SSTable) -> None:
        data = encode_sstable(table)
        handle = self._fs.open_write(_table_name(table.table_id))
        handle.append(data)
        handle.sync()
        handle.close()
        self.disk.write(len(data))
        self._persisted.add(table.table_id)

    def _write_manifest(self) -> None:
        write_manifest(
            self._fs,
            ManifestState(
                live_tables=tuple(table.table_id for table in self.sstables),
                next_table_id=self._next_table_id,
                last_seqno=self._durable_seqno,
            ),
        )

    def flush(self) -> Optional[SSTable]:
        """Flush durably: sst file -> manifest commit -> WAL truncate."""
        if self.memtable.is_empty:
            return None
        records = self.memtable.flush_records()
        table = SSTable(
            self._next_table_id, records, bloom_fp_rate=self.config.bloom_fp_rate
        )
        self._next_table_id += 1
        self._persist_table(table)
        self.sstables.append(table)
        self._durable_seqno = max(self._durable_seqno, table.max_seqno)
        self._write_manifest()  # the commit point
        if self.config.use_wal and not self._recovering:
            # Safe only now: every WAL record is in a committed sstable.
            self.wal.truncate()
        self.flush_count += 1
        return table

    def compact(self, strategy=None):
        """Compact, persist the outputs, commit, then delete the inputs."""
        result = super().compact(strategy)
        for table in self.sstables:
            if table.table_id not in self._persisted:
                self._persist_table(table)
        self._write_manifest()  # the commit point
        live = {table.table_id for table in self.sstables}
        for table_id in sorted(self._persisted - live):
            # Only garbage after the commit; a crash before the manifest
            # rename leaves them live, a crash in this loop leaves
            # orphans that open() sweeps.
            self._fs.remove(_table_name(table_id))
        self._persisted = live
        return result

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def simulate_crash_and_recover(
        self, config: Optional[EngineConfig] = None
    ) -> "DurableLSMEngine":
        """Drop all volatile state and re-open from the filesystem."""
        return type(self).open(
            config=config or self.config,
            fs=self._fs,
            disk=self.disk,
            wal_sync_every=self._wal_sync_every,
        )
