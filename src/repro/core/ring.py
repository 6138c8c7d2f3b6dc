"""Consistent hashing with virtual nodes (Section 4.1, "Data partitioning").

NetChain partitions the key space over switches with consistent hashing:
keys and virtual nodes are hashed onto a ring; each switch owns ``m/n``
virtual nodes; the keys of a ring segment are served by the chain formed by
the ``f+1`` subsequent virtual nodes that belong to *distinct* switches.

Virtual nodes double as the paper's **virtual groups** (Section 5.2): the
controller recovers one group at a time to keep the write-unavailability
window small, so each virtual node id is also the ``vgroup`` tag carried in
query headers.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.client import canonical_key


def _hash64(data: bytes) -> int:
    """Stable 64-bit hash used for ring placement."""
    return int.from_bytes(hashlib.sha1(data).digest()[:8], "big")


@dataclass
class VirtualNode:
    """One virtual node on the ring."""

    vnode_id: int
    switch: str
    position: int


class ConsistentHashRing:
    """The key -> chain mapping shared by agents and the controller."""

    def __init__(self, switches: Sequence[str], vnodes_per_switch: int = 100,
                 replication: int = 3) -> None:
        """Args:
            switches: the NetChain switch names.
            vnodes_per_switch: ``m/n`` in the paper's notation.
            replication: chain length ``f+1``.
        """
        if replication < 1:
            raise ValueError("replication factor must be at least 1")
        if len(switches) < replication:
            raise ValueError(
                f"need at least {replication} switches for chains of length {replication}")
        if len(set(switches)) != len(switches):
            raise ValueError(f"duplicate switch names in {list(switches)!r}")
        self.switch_names: List[str] = list(switches)
        self.vnodes_per_switch = vnodes_per_switch
        self.replication = replication
        self.vnodes: Dict[int, VirtualNode] = {}
        self._next_vnode_id = 0
        self.generation = 0
        for switch in self.switch_names:
            for i in range(vnodes_per_switch):
                position = _hash64(f"{switch}#vnode{i}".encode())
                self.vnodes[self._next_vnode_id] = VirtualNode(
                    self._next_vnode_id, switch, position)
                self._next_vnode_id += 1
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        ordered = sorted(self.vnodes.values(), key=lambda v: (v.position, v.vnode_id))
        self._positions = [v.position for v in ordered]
        self._ordered = ordered
        # Bumped on every ring mutation; route caches key their validity on
        # it so a membership change invalidates them wholesale.
        self.generation += 1

    # ------------------------------------------------------------------ #
    # Lookups.
    # ------------------------------------------------------------------ #

    def key_position(self, key) -> int:
        """Ring position of a key: the hash of its canonical bytes."""
        return _hash64(canonical_key(key))

    def _iter_successors(self, position: int):
        """Lazily walk the ring once, starting at/after ``position``.

        Chain construction usually stops after ``replication`` distinct
        switches, so the walk almost never materializes the whole ring.
        """
        ordered = self._ordered
        count = len(ordered)
        start = bisect.bisect_left(self._positions, position)
        for i in range(start, count):
            yield ordered[i]
        for i in range(start):
            yield ordered[i]

    def successor_vnodes(self, position: int) -> List[VirtualNode]:
        """Virtual nodes starting at the first one at/after ``position``,
        walking the whole ring once."""
        return list(self._iter_successors(position))

    def primary_vnode_for_key(self, key) -> VirtualNode:
        """The virtual node owning the key's segment (also its virtual group)."""
        positions = self._positions
        start = bisect.bisect_left(positions, self.key_position(key))
        if start == len(positions):
            start = 0
        return self._ordered[start]

    def chain_vnodes_for_key(self, key, replication: Optional[int] = None) -> List[VirtualNode]:
        """The ``f+1`` virtual nodes (on distinct switches) forming the key's chain.

        Walks the ring past virtual nodes whose switch already appears in the
        chain, exactly as Section 4.1 prescribes.
        """
        replication = replication or self.replication
        chain: List[VirtualNode] = []
        seen_switches = set()
        for vnode in self._iter_successors(self.key_position(key)):
            if vnode.switch in seen_switches:
                continue
            chain.append(vnode)
            seen_switches.add(vnode.switch)
            if len(chain) == replication:
                break
        if len(chain) < replication:
            raise ValueError(
                f"only {len(chain)} distinct switches available for a chain of {replication}")
        return chain

    def chain_for_key(self, key, replication: Optional[int] = None) -> List[str]:
        """Switch names of the key's chain, head first."""
        return [v.switch for v in self.chain_vnodes_for_key(key, replication)]

    def vgroup_for_key(self, key) -> int:
        """The virtual group (= primary virtual node id) of a key."""
        return self.primary_vnode_for_key(key).vnode_id

    def chain_for_vgroup(self, vgroup: int, replication: Optional[int] = None,
                         exclude: Optional[Sequence[str]] = None) -> List[str]:
        """The chain serving a virtual group.

        ``exclude`` skips switches (e.g. known-failed ones) during the walk,
        which is how planned reconfigurations derive a live target chain.
        """
        replication = replication or self.replication
        excluded = set(exclude or ())
        vnode = self.vnodes[vgroup]
        chain: List[str] = []
        seen = set()
        for candidate in self._iter_successors(vnode.position):
            if candidate.switch in seen or candidate.switch in excluded:
                continue
            chain.append(candidate.switch)
            seen.add(candidate.switch)
            if len(chain) == replication:
                break
        return chain

    def virtual_nodes_of(self, switch: str) -> List[VirtualNode]:
        """All virtual nodes mapped to a switch."""
        return [v for v in self.vnodes.values() if v.switch == switch]

    # ------------------------------------------------------------------ #
    # Elastic membership (used by the reconfiguration planner).
    # ------------------------------------------------------------------ #

    def clone(self) -> "ConsistentHashRing":
        """An independent copy (same vnode ids and positions), used to
        derive target layouts."""
        copy = ConsistentHashRing.__new__(ConsistentHashRing)
        copy.switch_names = list(self.switch_names)
        copy.vnodes_per_switch = self.vnodes_per_switch
        copy.replication = self.replication
        copy.vnodes = {vid: VirtualNode(v.vnode_id, v.switch, v.position)
                       for vid, v in self.vnodes.items()}
        copy._next_vnode_id = self._next_vnode_id
        copy.generation = 0
        copy._rebuild_index()
        return copy

    def add_switch(self, switch: str, vnodes: Optional[int] = None) -> List[int]:
        """Add a switch with its own virtual nodes, leaving every existing
        virtual node untouched (stable incremental rebalancing).

        Vnode positions hash from the switch name exactly as at construction
        time, so adding then removing a switch restores the original key
        mapping.  Returns the new vnode ids (= new virtual groups).
        """
        if switch in self.switch_names:
            raise ValueError(f"duplicate switch name {switch!r}")
        count = vnodes if vnodes is not None else self.vnodes_per_switch
        self.switch_names.append(switch)
        new_ids: List[int] = []
        for i in range(count):
            position = _hash64(f"{switch}#vnode{i}".encode())
            vnode_id = self._next_vnode_id
            self._next_vnode_id += 1
            self.vnodes[vnode_id] = VirtualNode(vnode_id, switch, position)
            new_ids.append(vnode_id)
        self._rebuild_index()
        return new_ids

    def remove_switch(self, switch: str) -> List[int]:
        """Remove a switch and its virtual nodes; other vnodes are untouched
        (keys of the removed segments flow to their ring successors).

        Returns the removed vnode ids.
        """
        if switch not in self.switch_names:
            raise ValueError(f"unknown switch {switch!r}")
        if len(self.switch_names) - 1 < self.replication:
            raise ValueError(
                f"removing {switch!r} leaves {len(self.switch_names) - 1} switches, "
                f"fewer than the replication factor {self.replication}")
        self.switch_names.remove(switch)
        removed = [vid for vid, vnode in self.vnodes.items() if vnode.switch == switch]
        for vid in removed:
            del self.vnodes[vid]
        self._rebuild_index()
        return sorted(removed)

    def insert_vnode(self, vnode: VirtualNode) -> None:
        """Install one externally-built virtual node (per-group commit of a
        planned scale-out: the coordinator flips one segment at a time)."""
        if vnode.vnode_id in self.vnodes:
            raise ValueError(f"vnode id {vnode.vnode_id} already on the ring")
        if vnode.switch not in self.switch_names:
            self.switch_names.append(vnode.switch)
        self.vnodes[vnode.vnode_id] = VirtualNode(vnode.vnode_id, vnode.switch,
                                                  vnode.position)
        self._next_vnode_id = max(self._next_vnode_id, vnode.vnode_id + 1)
        self._rebuild_index()

    def remove_vnode(self, vnode_id: int) -> VirtualNode:
        """Remove one virtual node (per-group commit of a planned scale-in);
        its segment's keys flow to the ring successor."""
        vnode = self.vnodes.pop(vnode_id)
        if not any(v.switch == vnode.switch for v in self.vnodes.values()):
            if vnode.switch in self.switch_names:
                self.switch_names.remove(vnode.switch)
        self._rebuild_index()
        return vnode

    # ------------------------------------------------------------------ #
    # Reconfiguration (used by the controller during failure recovery).
    # ------------------------------------------------------------------ #

    def reassign_vnode(self, vnode_id: int, new_switch: str) -> None:
        """Move one virtual node to a different switch (same ring position)."""
        vnode = self.vnodes[vnode_id]
        self.vnodes[vnode_id] = VirtualNode(vnode_id, new_switch, vnode.position)
        self._rebuild_index()

    def load_distribution(self) -> Dict[str, int]:
        """Number of virtual nodes per switch (used to test load spreading)."""
        counts: Dict[str, int] = {name: 0 for name in self.switch_names}
        for vnode in self.vnodes.values():
            counts[vnode.switch] = counts.get(vnode.switch, 0) + 1
        return counts
