"""On-chip key-value storage for one switch (Figure 3, Section 4.1).

NetChain separates key and value storage in the switch ASIC:

* each **key** is an entry in an exact-match table whose action returns the
  key's *index* (the slot number), and
* each **value** is stored at that index in register arrays, striped across
  pipeline stages 16 bytes at a time (NetCache's layout, Section 7: 8 stages
  of 64K 16-byte slots = 8 MB of value storage),
* a dedicated register array holds the per-key **sequence number** used by
  the ordering protocol (Algorithm 1), and another the head **session
  number** used across head changes (Section 5.2).

The class below owns those structures on a simulated switch and performs
the resource accounting the paper discusses (SRAM budget, per-stage value
width, recirculation passes for oversized values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.protocol import KEY_BYTES, normalize_key
from repro.netsim.switch import Switch
from repro.netsim.tables import MatchTable, TableFullError


class StoreFullError(RuntimeError):
    """Raised when the key-value store has no free slots left."""


class ValueTooLargeError(ValueError):
    """Raised when a value exceeds what the pipeline can store even with
    recirculation disabled."""


@dataclass
class KVStoreConfig:
    """Sizing of the per-switch store.

    The defaults mirror the prototype in Section 7: 64K slots per stage,
    8 stages, 16 bytes per stage (8 MB of value storage per switch).
    """

    #: Number of key slots (entries in the index table / register array length).
    slots: int = 65536
    #: Whether values larger than one pipeline pass are allowed (they cost
    #: extra recirculation passes, Section 6).
    allow_recirculation: bool = False


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

    def __init__(self, switch: Switch, config: Optional[KVStoreConfig] = None) -> None:
        self.switch = switch
        self.config = config or KVStoreConfig()
        slots = self.config.slots
        self.index: MatchTable = switch.create_table("netchain_index", max_entries=slots)
        self.stage_bytes = switch.config.stage_value_bytes
        self.num_stages = switch.config.value_stages
        self._stages = [
            switch.registers.allocate(f"netchain_value_stage{i}", slots, self.stage_bytes,
                                      initial=b"")
            for i in range(self.num_stages)
        ]
        self._vlen = switch.registers.allocate("netchain_value_len", slots, 2, initial=0)
        self._seq = switch.registers.allocate("netchain_seq", slots, 4, initial=0)
        self._session = switch.registers.allocate("netchain_session", slots, 2, initial=0)
        self._valid = switch.registers.allocate("netchain_valid", slots, 1, initial=False)
        # Direct references to the arrays' backing lists: register reads and
        # writes are the per-query hot path, and the method indirection costs
        # more than the model earns.  ``RegisterArray.load`` mutates in place,
        # so these references never go stale.
        self._stage_data = [stage._data for stage in self._stages]
        self._vlen_data = self._vlen._data
        self._seq_data = self._seq._data
        self._session_data = self._session._data
        self._valid_data = self._valid._data
        #: Materialized value per slot, maintained alongside the striped
        #: stage arrays so the per-query read path does not re-join chunks.
        #: The register arrays stay authoritative for the SRAM model (and
        #: tests assert on them); this is a read cache the store itself
        #: keeps coherent because every value write goes through
        #: :meth:`write_loc`.
        self._value_data: List[bytes] = [b""] * slots
        #: key -> slot mirror of the index match table for O(1) hot-path
        #: lookups without the table-model indirection.
        self._loc_of_key: Dict[bytes, int] = {}
        self._free_slots: List[int] = list(range(slots - 1, -1, -1))
        self._key_of_slot: Dict[int, bytes] = {}

    # ------------------------------------------------------------------ #
    # Capacity / resource accounting.
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """Total number of key slots."""
        return self.config.slots

    def used_slots(self) -> int:
        """Number of slots currently holding a key."""
        return len(self._key_of_slot)

    def free_slots(self) -> int:
        return self.capacity - self.used_slots()

    def max_value_bytes(self) -> int:
        """Largest value storable: one pass worth, or all stages' worth if
        recirculation is enabled (the storage itself is still bounded by the
        stage arrays)."""
        return self.num_stages * self.stage_bytes

    def passes_required(self, value_len: int) -> int:
        """Pipeline passes needed to read/write a value of this size
        (Section 6: values beyond ``k*n`` bytes need recirculation)."""
        per_pass = self.switch.max_value_bytes_per_pass()
        if value_len <= per_pass:
            return 1
        return -(-value_len // per_pass)

    def sram_bytes_used(self) -> int:
        """SRAM consumed by all NetChain structures on this switch."""
        return self.switch.registers.allocated_bytes()

    # ------------------------------------------------------------------ #
    # Control-plane operations (insert / delete / garbage collection).
    # ------------------------------------------------------------------ #

    def insert_key(self, key) -> int:
        """Allocate a slot and install the index entry for ``key``.

        Insert is a control-plane operation in NetChain (Section 4.1): the
        controller calls this on every switch of the key's chain.
        """
        key = normalize_key(key)
        existing = self.lookup(key)
        if existing is not None:
            return existing
        if not self._free_slots:
            raise StoreFullError(f"{self.switch.name}: no free key slots "
                                 f"({self.capacity} in use)")
        loc = self._free_slots.pop()
        try:
            self.index.insert(key, lambda: loc, loc=loc)
        except TableFullError as exc:
            self._free_slots.append(loc)
            raise StoreFullError(str(exc)) from exc
        self._key_of_slot[loc] = key
        self._loc_of_key[key] = loc
        self._valid.write(loc, True)
        self._vlen.write(loc, 0)
        self._seq.write(loc, 0)
        self._session.write(loc, 0)
        self._value_data[loc] = b""
        for stage in self._stages:
            stage.write(loc, b"")
        return loc

    def remove_key(self, key) -> bool:
        """Garbage-collect a deleted key: free its slot and index entry."""
        key = normalize_key(key)
        loc = self.lookup(key)
        if loc is None:
            return False
        self.index.remove_match(key)
        self._key_of_slot.pop(loc, None)
        self._loc_of_key.pop(key, None)
        self._valid.write(loc, False)
        self._free_slots.append(loc)
        return True

    # ------------------------------------------------------------------ #
    # Data-plane operations.
    # ------------------------------------------------------------------ #

    def lookup(self, key) -> Optional[int]:
        """Index-table lookup: slot for ``key`` or ``None`` on a miss."""
        if type(key) is bytes and len(key) == KEY_BYTES:
            return self._loc_of_key.get(key)
        return self._loc_of_key.get(normalize_key(key))

    def load_loc(self, loc: int) -> Tuple[bytes, int, int, bool]:
        """``(value, seq, session, valid)`` at ``loc``: the per-query register read."""
        return (self._value_data[loc], self._seq_data[loc],
                self._session_data[loc], self._valid_data[loc])

    def read_loc(self, loc: int) -> StoredItem:
        """Read the value, sequence and session stored at ``loc``."""
        return StoredItem(*self.load_loc(loc))

    def write_loc(self, loc: int, value: bytes, seq: int, session: int = 0,
                  valid: bool = True) -> None:
        """Store a value and its version at ``loc``, striping across stages."""
        value_len = len(value)
        limit = self.max_value_bytes()
        if value_len > limit:
            raise ValueTooLargeError(
                f"value of {value_len} bytes exceeds the {limit}-byte pipeline limit")
        if (not self.config.allow_recirculation
                and value_len > self.switch.max_value_bytes_per_pass()):
            raise ValueTooLargeError(
                f"value of {value_len} bytes needs recirculation, which is disabled")
        if value != self._value_data[loc]:
            # The stage arrays already spell an equal value (every value
            # write goes through here), so only a new value is restriped.
            stage_bytes = self.stage_bytes
            start = 0
            for data in self._stage_data:
                data[loc] = value[start:start + stage_bytes] if start < value_len else b""
                start += stage_bytes
            self._value_data[loc] = value
            self._vlen_data[loc] = value_len
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
        self._valid.write(loc, False)
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
        for key in selected:
            loc = self.lookup(key)
            if loc is not None:
                result[normalize_key(key)] = self.read_loc(loc)
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
