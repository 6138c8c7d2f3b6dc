"""On-chip key-value storage for one switch (Figure 3, Section 4.1).

NetChain separates key and value storage in the switch ASIC:

* each **key** is an entry in an exact-match table whose action returns the
  key's *index* (the slot number),
* each **value** is stored at that index in register arrays, striped across
  pipeline stages 16 bytes at a time (NetCache's layout, Section 7: 8 stages
  of 64K 16-byte slots = 8 MB of value storage),
* a dedicated register array holds the per-key **sequence number** used by
  the ordering protocol (Algorithm 1), and another the head **session
  number** used across head changes (Section 5.2).

Fig. 3's layout is what the switch SRAM is *charged* for: every slot costs
8 x 16 value bytes, a 2-byte length, a 4-byte sequence, a 2-byte session
and a valid byte (137 B).  The model itself keeps each item once -- one
key -> slot map and one list per field, the value whole -- because nothing
reads the stripes back (the switch program uses the lists directly).  A value
over one pass (k*n = 128 bytes) is refused at submit by
:class:`repro.core.agent.NetChainAgent`, and :meth:`SwitchKVStore.write_loc`
refuses it again for a direct caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.client import canonical_key
from repro.core.protocol import (
    MAX_PROTOTYPE_VALUE_BYTES,
    STAGE_VALUE_BYTES,
    VALUE_STAGES,
    header_key,
)
from repro.netsim.switch import Switch


class StoreFullError(RuntimeError):
    """Raised when the key-value store has no free slots left."""


class ValueTooLargeError(ValueError):
    """Raised when a value exceeds what one pipeline pass can store."""


@dataclass(slots=True)
class StoredItem:
    """A decoded item as read from the register arrays."""

    value: bytes
    seq: int
    session: int
    valid: bool

    def version(self) -> Tuple[int, int]:
        """(session, seq) — the lexicographic version used for ordering."""
        return (self.session, self.seq)


class SwitchKVStore:
    """The NetChain storage structures on one switch."""

    def __init__(self, switch: Switch, slots: int = 65536) -> None:
        """``slots`` is the number of key slots (entries in the index table
        and length of every register array).  The default mirrors the
        prototype in Section 7: 64K slots per stage, 8 stages, 16 bytes per
        stage (8 MB of value storage per switch)."""
        self.switch = switch
        #: Total number of key slots.
        self.capacity = slots
        registers = switch.registers
        for i in range(VALUE_STAGES):
            registers.reserve(f"netchain_value_stage{i}", slots, STAGE_VALUE_BYTES)
        registers.reserve("netchain_value_len", slots, 2)
        self._seq_data: List[int] = registers.allocate("netchain_seq", slots, 4, initial=0)
        self._session_data: List[int] = registers.allocate("netchain_session", slots, 2,
                                                           initial=0)
        self._valid_data: List[bool] = registers.allocate("netchain_valid", slots, 1,
                                                          initial=False)
        #: The value at each slot, whole (charged above as eight stages and
        #: a length).
        self._value_data: List[bytes] = [b""] * slots
        #: The exact-match table: canonical key -> slot, which the switch
        #: program matches a header's key against; ``_key_of_slot`` inverts it.
        self.index: Dict[bytes, int] = {}
        self._key_of_slot: Dict[int, bytes] = {}
        self._free_slots: List[int] = list(range(slots - 1, -1, -1))

    def used_slots(self) -> int:
        """Number of slots currently holding a key."""
        return len(self._key_of_slot)

    # ------------------------------------------------------------------ #
    # Control-plane operations (insert / delete / garbage collection).
    # ------------------------------------------------------------------ #

    def insert_key(self, key) -> int:
        """Allocate a slot and install the index entry for ``key``.

        Insert is a control-plane operation in NetChain (Section 4.1): the
        controller calls this on every switch of the key's chain.
        """
        key = header_key(key)
        existing = self.index.get(key)
        if existing is not None:
            return existing
        if not self._free_slots:
            raise StoreFullError(f"{self.switch.name}: no free key slots "
                                 f"({self.capacity} in use)")
        loc = self._free_slots.pop()
        self._key_of_slot[loc] = key
        self.index[key] = loc
        self.write_loc(loc, b"", 0, 0, True)
        return loc

    def remove_key(self, key) -> bool:
        """Garbage-collect a deleted key: free its slot and index entry."""
        loc = self.index.pop(canonical_key(key), None)
        if loc is None:
            return False
        del self._key_of_slot[loc]
        self._valid_data[loc] = False
        self._free_slots.append(loc)
        return True

    # ------------------------------------------------------------------ #
    # Data-plane operations.
    # ------------------------------------------------------------------ #

    def lookup(self, key) -> Optional[int]:
        """Index-table lookup: slot for ``key`` or ``None`` on a miss."""
        return self.index.get(canonical_key(key))

    def read_loc(self, loc: int) -> StoredItem:
        """Read the value, sequence and session stored at ``loc``."""
        return StoredItem(self._value_data[loc], self._seq_data[loc],
                          self._session_data[loc], self._valid_data[loc])

    def write_loc(self, loc: int, value: bytes, seq: int, session: int = 0,
                  valid: bool = True) -> None:
        """Store a value and its version at ``loc``."""
        if len(value) > MAX_PROTOTYPE_VALUE_BYTES:
            raise ValueTooLargeError(
                f"value of {len(value)} bytes exceeds the "
                f"{MAX_PROTOTYPE_VALUE_BYTES}-byte pipeline limit")
        self._value_data[loc] = value
        self._seq_data[loc] = seq
        self._session_data[loc] = session
        self._valid_data[loc] = valid

    def read(self, key) -> Optional[StoredItem]:
        """Convenience: lookup + read."""
        loc = self.lookup(key)
        if loc is None:
            return None
        return self.read_loc(loc)

    def invalidate(self, key) -> bool:
        """Data-plane delete: mark the item invalid (slot reclaimed later by
        the control plane, Section 4.1)."""
        loc = self.lookup(key)
        if loc is None:
            return False
        self._valid_data[loc] = False
        return True

    def keys(self) -> Iterable[bytes]:
        """All keys currently installed on this switch."""
        return list(self._key_of_slot.values())

    # ------------------------------------------------------------------ #
    # State synchronization (used by the controller's failure recovery).
    # ------------------------------------------------------------------ #

    def export_items(self, keys: Optional[Iterable[bytes]] = None) -> Dict[bytes, StoredItem]:
        """Snapshot items (optionally restricted to ``keys``) for state copy."""
        selected = list(keys) if keys is not None else list(self._key_of_slot.values())
        result: Dict[bytes, StoredItem] = {}
        for key in map(canonical_key, selected):
            loc = self.index.get(key)
            if loc is not None:
                result[key] = self.read_loc(loc)
        return result

    def import_items(self, items: Dict[bytes, StoredItem]) -> int:
        """Install keys and state copied from another switch.

        Returns the number of bytes of state written, which the controller
        uses to model synchronization time.
        """
        copied_bytes = 0
        for key, item in items.items():
            loc = self.insert_key(key)
            self.write_loc(loc, item.value, item.seq, item.session, valid=item.valid)
            copied_bytes += len(item.value) + 8
        return copied_bytes
