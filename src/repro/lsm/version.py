"""Level manifest: which tables live at which level.

L0 tables may overlap (newest first wins); L1+ levels hold sorted,
non-overlapping runs searched by binary search on the smallest keys.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

from repro.lsm.sstable import SSTable


class Version:
    """Mutable level state (single-writer, as in our single-threaded sim)."""

    def __init__(self, num_levels: int = 4) -> None:
        if num_levels < 2:
            raise ValueError("need at least 2 levels")
        self.levels: List[List[SSTable]] = [[] for _ in range(num_levels)]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def add_l0(self, table: SSTable) -> None:
        """Newest L0 table goes to the front (searched first)."""
        self.levels[0].insert(0, table)

    def install_level(self, level: int, tables: List[SSTable]) -> None:
        """Replace a level with a sorted, non-overlapping run."""
        ordered = sorted(tables, key=lambda t: t.smallest)
        for a, b in zip(ordered, ordered[1:]):
            if b.smallest <= a.largest:
                raise ValueError(
                    f"level {level} tables overlap: {a.table_id} and {b.table_id}"
                )
        self.levels[level] = ordered

    def candidates_for(self, key: bytes) -> List[SSTable]:
        """Tables that could hold ``key``, in search priority order."""
        result: List[SSTable] = []
        for table in self.levels[0]:
            if table.smallest <= key <= table.largest:
                result.append(table)
        for level in range(1, len(self.levels)):
            table = self._find_in_level(level, key)
            if table is not None:
                result.append(table)
        return result

    def _find_in_level(self, level: int, key: bytes) -> Optional[SSTable]:
        tables = self.levels[level]
        if not tables:
            return None
        idx = bisect.bisect_right([t.smallest for t in tables], key) - 1
        if idx < 0:
            return None
        table = tables[idx]
        return table if key <= table.largest else None

    def level_bytes(self, level: int) -> int:
        return sum(t.extent_size for t in self.levels[level])

    def table_count(self) -> int:
        return sum(len(level) for level in self.levels)
