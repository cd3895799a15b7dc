"""Output checks.  Every check runs outside the timed calls.

* Simulator cells: each strategy's final table must equal the newest
  live record per key over the cell's phase-1 tables, and every strategy
  must report the same read hits — the number of point reads whose key
  is live in that fold.
* Key-value store: every ``get`` and ``scan`` must match a dict oracle,
  and after a crash and recovery every acknowledged write must read back.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Hashable, Iterable, Optional, Sequence


#: Wrong outputs described in the report; the rest are only counted.
MAX_EXAMPLES = 5


class Checker:
    """Counts checked outputs and the ones that were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def check(self, ok: bool, what: Callable[[], str] = str) -> bool:
        """Count one checked output; ``what()`` describes it if it is wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < MAX_EXAMPLES:
                self.examples.append(what())
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


Row = tuple  # (key, seqno, value_size, tombstone)


def table_rows(table) -> list[Row]:
    """``(key, seqno, value_size, tombstone)`` for every entry of an sstable."""
    columns = table.columns()
    if columns is not None:
        tombstones = (
            columns.tombstones.tolist()
            if columns.tombstones is not None
            else [False] * table.entry_count
        )
        return list(
            zip(
                columns.keys.tolist(),
                columns.seqnos.tolist(),
                columns.value_sizes.tolist(),
                tombstones,
            )
        )
    return [
        (record.key, record.seqno, record.value_size, record.tombstone)
        for record in table.records
    ]


def newest_live(tables: Iterable) -> list[Row]:
    """The newest record per key over ``tables``, tombstones dropped, key order."""
    newest: dict[Hashable, Row] = {}
    for table in tables:
        for row in table_rows(table):
            held = newest.get(row[0])
            if held is None or row[1] > held[1]:
                newest[row[0]] = row
    return sorted(
        (row for row in newest.values() if not row[3]), key=lambda row: row[0]
    )


def check_cell(
    checker: Checker,
    label_outputs: Sequence[tuple[str, Sequence]],
    phase1_tables: Sequence,
    read_hits: Sequence[int],
    read_keys: Optional[Sequence[Hashable]],
) -> None:
    """Check one simulator cell's strategies against the phase-1 fold.

    ``label_outputs`` pairs each strategy label with its output tables;
    ``read_hits`` holds each strategy's reported point-read hits and
    ``read_keys`` the keys of the cell's point reads (``None`` when the
    mix has none).
    """
    expected = newest_live(phase1_tables)
    for label, outputs in label_outputs:
        if not checker.check(
            len(outputs) == 1, lambda: f"{label}: {len(outputs)} output tables"
        ):
            continue
        rows = table_rows(outputs[0])
        checker.check(
            rows == expected, lambda: f"{label}: final table differs from the fold"
        )
    if read_keys is not None:
        live = {row[0] for row in expected}
        want = sum(1 for key in read_keys if key in live)
        for (label, _), hits in zip(label_outputs, read_hits):
            checker.check(
                hits == want, lambda: f"{label}: {hits} read hits, oracle {want}"
            )


class KvOracle:
    """The expected contents of the key-value store, as a dict plus sorted keys."""

    def __init__(self, items: Optional[dict] = None) -> None:
        self.values: dict = dict(items or {})
        self.keys: list = sorted(self.values)
        self.deleted: set = set()

    def copy(self) -> "KvOracle":
        clone = KvOracle()
        clone.values = dict(self.values)
        clone.keys = list(self.keys)
        clone.deleted = set(self.deleted)
        return clone

    def put(self, key, value: bytes) -> None:
        if key not in self.values:
            insort(self.keys, key)
        self.values[key] = value
        self.deleted.discard(key)

    def delete(self, key) -> None:
        if key in self.values:
            del self.values[key]
            del self.keys[bisect_left(self.keys, key)]
        self.deleted.add(key)

    def scan(self, start_key, length: int) -> list:
        first = bisect_left(self.keys, start_key)
        return [(key, self.values[key]) for key in self.keys[first : first + length]]

    def check_get(self, checker: Checker, key, record) -> bool:
        got = None if record is None else record.value
        want = self.values.get(key)
        return checker.check(
            got == want, lambda: f"get({key!r}) = {got!r}, oracle {want!r}"
        )

    def check_scan(self, checker: Checker, key, length: int, records) -> bool:
        got = [(record.key, record.value) for record in records]
        return checker.check(
            got == self.scan(key, length), lambda: f"scan({key!r}, {length}) differs"
        )

    def check_store(self, checker: Checker, engine) -> None:
        """Every live key reads back its last value; every deleted key is gone."""
        for key, value in self.values.items():
            self.check_get(checker, key, engine.get(key))
        for key in self.deleted:
            self.check_get(checker, key, engine.get(key))
