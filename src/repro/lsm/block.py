"""SSTable data blocks: sorted key/value runs with binary search.

Entries are length-prefixed and sorted; a block targets ~4 KiB (the
device page size) so a point read is one aligned device I/O — and one
secondary-cache object, matching how RocksDB's block cache interacts
with CacheLib in the paper's setup.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

_LEN = struct.Struct("<HI")  # key length (u16), value length (u32)


@dataclass(frozen=True)
class BlockHandle:
    """Location of a block within its table's extent."""

    offset: int
    size: int

    def to_bytes(self) -> bytes:
        return struct.pack("<QI", self.offset, self.size)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BlockHandle":
        offset, size = struct.unpack_from("<QI", blob)
        return cls(offset, size)


class DataBlockBuilder:
    """Accumulates sorted entries until the target block size."""

    def __init__(self, target_size: int = 4096) -> None:
        if target_size < 64:
            raise ValueError("target_size must be >= 64")
        self.target_size = target_size
        self._entries: List[Tuple[bytes, bytes]] = []
        self._size = 0

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def would_overflow(self, key: bytes, value: bytes) -> bool:
        return (
            self._size + _LEN.size + len(key) + len(value) > self.target_size
            and self._entries
        )

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; keys must arrive in strictly ascending order."""
        if self._entries and key <= self._entries[-1][0]:
            raise ValueError("keys must be added in strictly ascending order")
        self._entries.append((key, value))
        self._size += _LEN.size + len(key) + len(value)

    def finish(self) -> bytes:
        """Serialize; the builder resets for the next block."""
        parts = []
        for key, value in self._entries:
            parts.append(_LEN.pack(len(key), len(value)))
            parts.append(key)
            parts.append(value)
        blob = b"".join(parts)
        self._entries = []
        self._size = 0
        return blob


class DataBlock:
    """Parsed data block supporting binary-search point lookups."""

    def __init__(self, blob: bytes) -> None:
        self._keys: List[bytes] = []
        self._values: List[bytes] = []
        pos = 0
        while pos + _LEN.size <= len(blob):
            key_len, value_len = _LEN.unpack_from(blob, pos)
            pos += _LEN.size
            if key_len == 0 and value_len == 0:
                break  # zero padding reached
            key = blob[pos : pos + key_len]
            pos += key_len
            value = blob[pos : pos + value_len]
            pos += value_len
            self._keys.append(key)
            self._values.append(value)

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: bytes) -> Optional[bytes]:
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def entries(self) -> List[Tuple[bytes, bytes]]:
        return list(zip(self._keys, self._values))
