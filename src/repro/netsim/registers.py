"""Register arrays: the switch on-chip SRAM exposed to the data plane.

Tofino-class ASICs provide per-stage register arrays that a P4 program can
read and modify at line rate.  NetChain stores values and sequence numbers
in them (Section 4.1).  SRAM here is *accounted*, not emulated: each named
allocation charges ``slots * bytes_per_slot`` against the switch's budget
(tens of MB, Section 6) and hands back a plain list of ``slots`` entries.
A program that keeps its state in another shape -- the key-value store
keeps each value whole, where Fig. 3 stripes it over eight stages -- still
charges the layout the hardware would hold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class RegisterAllocationError(RuntimeError):
    """Raised when an allocation would exceed the switch SRAM budget."""


class RegisterFile:
    """All register arrays on one switch, with an SRAM budget."""

    def __init__(self, sram_bytes: Optional[int] = None) -> None:
        self.sram_bytes = sram_bytes
        #: Array name -> bytes charged for it.
        self._charged: Dict[str, int] = {}

    def allocated_bytes(self) -> int:
        """SRAM currently consumed by allocated arrays."""
        return sum(self._charged.values())

    def reserve(self, name: str, slots: int, bytes_per_slot: int) -> None:
        """Charge a named array of ``slots * bytes_per_slot`` bytes, enforcing
        the SRAM budget, without materialising its slots."""
        if name in self._charged:
            raise ValueError(f"register array {name!r} already allocated")
        requested = slots * bytes_per_slot
        used = self.allocated_bytes()
        if self.sram_bytes is not None and used + requested > self.sram_bytes:
            raise RegisterAllocationError(
                f"allocating {requested} bytes for {name!r} exceeds SRAM budget "
                f"({used}/{self.sram_bytes} bytes used)")
        self._charged[name] = requested

    def allocate(self, name: str, slots: int, bytes_per_slot: int,
                 initial: Any = None) -> List[Any]:
        """Charge a named array (see :meth:`reserve`) and return its slots."""
        self.reserve(name, slots, bytes_per_slot)
        return [initial] * slots

    def free(self, name: str) -> None:
        """Release an array back to the SRAM pool."""
        self._charged.pop(name, None)
