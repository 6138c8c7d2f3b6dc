"""Register arrays: the switch on-chip SRAM exposed to the data plane.

Tofino-class ASICs provide per-stage register arrays that a P4 program can
read and modify at line rate.  NetChain stores values and sequence numbers
in them (Section 4.1).  The model here enforces the two resource limits the
paper discusses:

* a total SRAM budget per switch (tens of MB, Section 6), and
* a per-stage value width limit -- a single pipeline pass can only touch
  ``n`` bytes per stage across ``k`` stages, so values larger than ``k*n``
  need recirculation (Section 6, "Value size").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class RegisterAllocationError(RuntimeError):
    """Raised when an allocation would exceed the switch SRAM budget."""


class RegisterArray:
    """A fixed-size array of slots, each holding ``bytes_per_slot`` bytes."""

    def __init__(self, name: str, slots: int, bytes_per_slot: int,
                 initial: Any = None) -> None:
        self.name = name
        self.slots = slots
        self.bytes_per_slot = bytes_per_slot
        self._data: List[Any] = [initial] * slots

    def size_bytes(self) -> int:
        """Total SRAM consumed by this array."""
        return self.slots * self.bytes_per_slot

    def read(self, index: int) -> Any:
        """Read slot ``index``."""
        return self._data[index]

    def write(self, index: int, value: Any) -> None:
        """Write slot ``index``."""
        self._data[index] = value

    def fill(self, value: Any) -> None:
        """Reset every slot to ``value``."""
        for i in range(self.slots):
            self._data[i] = value

    def snapshot(self) -> List[Any]:
        """A copy of the whole array (used by the controller's state sync)."""
        return list(self._data)

    def load(self, values: List[Any]) -> None:
        """Overwrite the array from a snapshot of the same length.

        In-place so that readers holding a direct reference to the backing
        list keep observing the array.  Note: the NetChain store arrays
        (``netchain_*``) are owned by :class:`repro.core.kvstore.SwitchKVStore`,
        which maintains derived lookup/value mirrors -- state on those
        arrays must be written through the store's ``write_loc``/
        ``import_items``, not by loading snapshots into the raw arrays.
        """
        if len(values) != self.slots:
            raise ValueError(
                f"snapshot length {len(values)} does not match array size {self.slots}")
        self._data[:] = values

    def __len__(self) -> int:
        return self.slots


class RegisterFile:
    """All register arrays on one switch, with an SRAM budget."""

    def __init__(self, sram_bytes: Optional[int] = None) -> None:
        self.sram_bytes = sram_bytes
        self.arrays: Dict[str, RegisterArray] = {}

    def allocated_bytes(self) -> int:
        """SRAM currently consumed by allocated arrays."""
        return sum(array.size_bytes() for array in self.arrays.values())

    def allocate(self, name: str, slots: int, bytes_per_slot: int,
                 initial: Any = None) -> RegisterArray:
        """Allocate a new named array, enforcing the SRAM budget."""
        if name in self.arrays:
            raise ValueError(f"register array {name!r} already allocated")
        requested = slots * bytes_per_slot
        if self.sram_bytes is not None and self.allocated_bytes() + requested > self.sram_bytes:
            raise RegisterAllocationError(
                f"allocating {requested} bytes for {name!r} exceeds SRAM budget "
                f"({self.allocated_bytes()}/{self.sram_bytes} bytes used)")
        array = RegisterArray(name, slots, bytes_per_slot, initial=initial)
        self.arrays[name] = array
        return array

    def free(self, name: str) -> None:
        """Release an array back to the SRAM pool."""
        self.arrays.pop(name, None)
