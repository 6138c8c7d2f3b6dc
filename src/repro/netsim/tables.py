"""Match-action tables, the switch's programmable lookup structure.

A Tofino-style switch exposes exact-match and ternary tables whose entries
are installed by the control plane.  NetChain uses them for two purposes:

* the key -> register-array-index table of the data-plane key-value store
  (Figure 3 of the paper), and
* the destination-IP rewrite rules installed by the controller during fast
  failover and failure recovery (Algorithms 2 and 3).

Entries carry a priority; higher priorities win, which is exactly how the
recovery rules override the failover rules (Section 5.2, Phase 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional

_entry_ids = itertools.count(1)


@dataclass
class TableEntry:
    """One installed match-action entry."""

    match: Hashable
    action: Callable[..., Any]
    priority: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    metadata: Dict[str, Any] = field(default_factory=dict)


class MatchTable:
    """An exact-match table with per-entry priorities.

    The table is keyed on a hashable match value (for NetChain, the key
    bytes or a destination IP).  ``lookup`` returns the highest-priority
    entry for the match, or ``None`` for a miss (the caller applies the
    default action, typically drop or continue).
    """

    def __init__(self, name: str, max_entries: Optional[int] = None) -> None:
        self.name = name
        self.max_entries = max_entries
        self._entries: Dict[Hashable, List[TableEntry]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, match: Hashable, action: Callable[..., Any],
               priority: int = 0, **metadata: Any) -> TableEntry:
        """Install an entry; raises if the table is full."""
        if self.max_entries is not None and self._size >= self.max_entries:
            raise TableFullError(f"table {self.name} is full ({self.max_entries} entries)")
        entry = TableEntry(match=match, action=action, priority=priority, metadata=dict(metadata))
        self._entries.setdefault(match, []).append(entry)
        self._entries[match].sort(key=lambda e: -e.priority)
        self._size += 1
        return entry

    def lookup(self, match: Hashable) -> Optional[TableEntry]:
        """Highest-priority entry for ``match``, or ``None`` on a miss."""
        entries = self._entries.get(match)
        if not entries:
            return None
        return entries[0]

    def remove(self, entry: TableEntry) -> bool:
        """Remove a previously installed entry.  Returns ``False`` if absent."""
        entries = self._entries.get(entry.match)
        if not entries or entry not in entries:
            return False
        entries.remove(entry)
        if not entries:
            del self._entries[entry.match]
        self._size -= 1
        return True

    def remove_match(self, match: Hashable) -> int:
        """Remove all entries for ``match``; returns how many were removed."""
        entries = self._entries.pop(match, [])
        self._size -= len(entries)
        return len(entries)

    def clear(self) -> None:
        """Remove every entry."""
        self._entries.clear()
        self._size = 0


class TableFullError(RuntimeError):
    """Raised when an insert exceeds the table's configured capacity."""
