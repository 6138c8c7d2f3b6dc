"""Coordination primitives built on the unified key-value client protocol.

The paper motivates NetChain with the classic coordination-service use
cases: distributed locking, configuration management, group membership and
barriers (Section 1).  This module implements them on top of the
backend-agnostic :class:`repro.core.client.KVClient` protocol, so the same
recipes run against the in-network store
(:class:`repro.core.agent.NetChainAgent`) and against the ZooKeeper
baseline (:class:`repro.baselines.zk_client.ZooKeeperKVClient`) -- the
apples-to-apples comparison the evaluation needs:

* **Locks** use compare-and-swap exactly as the evaluation's transaction
  benchmark does (Section 8.5): a lock is a key whose value is the owner's
  id; it can only be released by the owner.
* **Barriers**, **configuration store** and **group membership** are thin
  recipes over read / write / CAS, mirroring what ZooKeeper recipes provide.

Each recipe issues its operations through the client's futures and waits
with ``.result(deadline)``, which advances the simulator to the reply.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.client import KVClient, KVFuture, KVTimeout

#: Value representing "unlocked" / "absent" for CAS-based recipes.
EMPTY = b""

#: ``(acquire, release)``: each takes a lock key and returns a future whose
#: result is ``ok`` when the operation succeeded.
LockPair = Tuple[Callable[[str], KVFuture], Callable[[str], KVFuture]]


def owner_id(owner) -> bytes:
    """A lock owner as the bytes a lock key holds."""
    return owner if isinstance(owner, bytes) else str(owner).encode()


def cas_locks(client: KVClient, owner) -> LockPair:
    """CAS locks on ``client``'s keys, held by ``owner``: acquire is
    CAS(empty -> owner), release CAS(owner -> empty), so only the owner
    can release a lock (Section 8.5)."""
    owner_bytes = owner_id(owner)
    return (lambda key: client.cas(key, EMPTY, owner_bytes),
            lambda key: client.cas(key, owner_bytes, EMPTY))


class CoordinationError(RuntimeError):
    """Raised when a coordination operation cannot be completed."""


class DistributedLock:
    """An exclusive lock stored as one key.

    The lock is free when the key holds the empty value; acquiring writes
    the owner id with a compare-and-swap against the empty value; releasing
    swaps the owner id back to empty, so only the owner can release
    (Section 8.5).  Works against any :class:`KVClient` backend.
    """

    def __init__(self, client: KVClient, key, owner) -> None:
        self.client = client
        self.key = key
        self.owner = owner_id(owner)
        self._cas_acquire, self._cas_release = cas_locks(client, self.owner)
        self.held = False
        #: CAS attempts that lost the race (conflict accounting).
        self.cas_conflicts = 0
        #: Total acquisition attempts.
        self.attempts = 0

    def try_acquire(self, deadline: float = 5.0) -> bool:
        """One acquisition attempt, driving the simulator until it resolves.

        Raises :class:`KVTimeout` when the query itself dies (exhausted
        retries), so callers can tell a held lock from a dead network.
        """
        self.attempts += 1
        result = self._cas_acquire(self.key).result(deadline)
        if result.timed_out:
            raise KVTimeout(f"lock {self.key!r}: acquire query exhausted retries")
        self.held = result.ok
        if result.cas_failed:
            self.cas_conflicts += 1
        return self.held

    def acquire(self, max_attempts: int = 100, deadline: float = 5.0) -> bool:
        """Spin until acquired or the attempt budget is exhausted."""
        for _ in range(max_attempts):
            if self.try_acquire(deadline=deadline):
                return True
        return False

    def release(self, deadline: float = 5.0) -> bool:
        """Release the lock; returns whether the release took effect."""
        result = self._cas_release(self.key).result(deadline)
        if result.ok:
            self.held = False
        return result.ok

    def holder(self, deadline: float = 5.0) -> bytes:
        """Current lock holder (empty bytes when free)."""
        return self.client.read(self.key).result(deadline).value


class Barrier:
    """A double-anything barrier: N participants wait for each other.

    The barrier key holds the arrival count; participants increment it with
    a CAS loop and poll until it reaches the expected count.
    """

    def __init__(self, client: KVClient, key, parties: int) -> None:
        if parties < 1:
            raise ValueError("a barrier needs at least one party")
        self.client = client
        self.key = key
        self.parties = parties
        #: CAS attempts that lost an arrival race (conflict accounting).
        self.cas_conflicts = 0

    def _count(self) -> int:
        value = self.client.read(self.key).result(5.0).value
        return int(value) if value else 0

    def arrive(self, max_attempts: int = 1000) -> int:
        """Register arrival; returns this participant's arrival index (1-based)."""
        for _ in range(max_attempts):
            current = self._count()
            result = self.client.cas(self.key, str(current) if current else EMPTY,
                                     str(current + 1)).result(5.0)
            if result.ok:
                return current + 1
            if result.timed_out:
                raise KVTimeout(f"barrier {self.key!r}: arrival query exhausted retries")
            if result.cas_failed:
                self.cas_conflicts += 1
        raise CoordinationError(f"could not register arrival at barrier {self.key!r}")

    def is_complete(self) -> bool:
        """Whether every party has arrived."""
        return self._count() >= self.parties

    def wait(self, poll_interval: float = 1e-3, max_polls: int = 10000) -> None:
        """Poll until the barrier trips."""
        for _ in range(max_polls):
            if self.is_complete():
                return
            self.client.sim.run(until=self.client.sim.now + poll_interval)
        raise CoordinationError(f"barrier {self.key!r} did not complete")


class ConfigurationStore:
    """Configuration management: named parameters with atomic updates."""

    def __init__(self, client: KVClient, prefix: str = "cfg") -> None:
        self.client = client
        self.prefix = prefix

    def _key(self, name: str) -> str:
        key = f"{self.prefix}:{name}"
        if len(key.encode()) > 16:
            raise ValueError(f"configuration key {key!r} exceeds the 16-byte key limit")
        return key

    def set(self, name: str, value) -> None:
        """Set a configuration parameter, creating it on first use.

        Creation is a control-plane insert (Section 4.1) and therefore slower
        than subsequent updates, which are plain data-plane writes.
        """
        result = self.client.write(self._key(name), value).result(5.0)
        if result.ok:
            return
        if result.not_found:
            result = self.client.insert(self._key(name), value).result(5.0)
            if result.ok:
                return
        raise CoordinationError(f"failed to set configuration {name!r}")

    def get(self, name: str, default: Optional[bytes] = None) -> Optional[bytes]:
        """Read a configuration parameter."""
        result = self.client.read(self._key(name)).result(5.0)
        if result.not_found:
            return default
        return result.value

    def compare_and_set(self, name: str, expected, new_value) -> bool:
        """Atomically update a parameter only if it still holds ``expected``."""
        return self.client.cas(self._key(name), expected, new_value).result(5.0).ok


class GroupMembership:
    """A small membership roster kept in a single value.

    Values are limited to 128 bytes in the prototype (Section 8.1), so the
    roster suits small groups such as a set of shard leaders; larger groups
    would be split across keys.
    """

    SEPARATOR = b","

    def __init__(self, client: KVClient, group_key) -> None:
        self.client = client
        self.group_key = group_key

    def members(self) -> List[bytes]:
        """Current members."""
        value = self.client.read(self.group_key).result(5.0).value
        if not value:
            return []
        return [m for m in value.split(self.SEPARATOR) if m]

    def _store(self, expected: bytes, members: List[bytes]) -> bool:
        new_value = self.SEPARATOR.join(sorted(set(members)))
        return self.client.cas(self.group_key, expected, new_value).result(5.0).ok

    def join(self, member, max_attempts: int = 100) -> bool:
        """Add a member to the roster (CAS loop)."""
        raw = member if isinstance(member, bytes) else str(member).encode()
        for _ in range(max_attempts):
            current = self.client.read(self.group_key).result(5.0).value or EMPTY
            members = [m for m in current.split(self.SEPARATOR) if m]
            if raw in members:
                return True
            if self._store(current, members + [raw]):
                return True
        return False

    def leave(self, member, max_attempts: int = 100) -> bool:
        """Remove a member from the roster (CAS loop)."""
        raw = member if isinstance(member, bytes) else str(member).encode()
        for _ in range(max_attempts):
            current = self.client.read(self.group_key).result(5.0).value or EMPTY
            members = [m for m in current.split(self.SEPARATOR) if m]
            if raw not in members:
                return True
            members.remove(raw)
            if self._store(current, members):
                return True
        return False
