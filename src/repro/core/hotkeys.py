"""The adaptive hot-key tier (NetCache-style self-tuning replication).

Chain replication assigns every key a fixed ``f+1``-switch chain, so under
Zipfian skew the tail switch of a hot key's virtual group saturates while
the rest of the testbed idles.  This module closes that gap with three
cooperating layers:

* **Detection** (:class:`HotKeySketch`): a count-min sketch plus a small
  top-k heavy-hitter table, allocated over the switch's register arrays
  (:mod:`repro.netsim.registers`) and updated in the switch program's read
  path.  The same class, on an unbudgeted register file of its own, is the
  shared popularity detector the hybrid store's promotion policy rides
  (:mod:`repro.core.hybrid`).
* **Reaction** (:class:`HotKeyManager`): a controller policy loop that
  polls the per-switch sketches, widens the chain of a confirmed-hot key
  (replicating it to extra tail switches and rotating read traffic across
  every replica) and narrows it again on cooldown.  The hot routes are
  controller state (:attr:`NetChainController.hot_routes`): the manager
  decides, and :meth:`NetChainController.install_hot_route` /
  :meth:`NetChainController.narrow_hot_route` commit each change with an
  epoch bump, so straggler queries addressed under a superseded hot route
  self-invalidate in the data plane.
* **Client tier** (:class:`ClientReadCache`): an epoch-validated read
  cache on the client agent that coalesces concurrent reads of the same
  key into one network query.

Linearizability of rotated reads (the CRAQ-style clean/dirty gate)
-------------------------------------------------------------------

Rotating reads across chain replicas is only linearizable if a replica
never serves a value the tail has not committed, and never serves an old
value after the tail committed a newer one.  The tier guarantees both with
a per-key *clean version* gate installed on every wide-chain member:

* a replica serves a rotated read only while its stored version equals its
  clean version; otherwise it forwards the read down the chain toward the
  wide tail (which always serves safely -- its apply *is* the commit);
* the wide tail sends a ``CLEAN(key, version)`` notification to its
  siblings whenever it commits a write of a tier-managed key.

Every write traverses the wide chain in order, so if a replica's stored
version ``v`` equals its clean (i.e. committed) version, no write newer
than ``v`` can have committed -- it would have passed the replica first
and left it dirty.  The gate only ever *lags* (lost or reordered CLEANs
leave the replica dirty and forwarding), which degrades load spreading,
never consistency.

Client-cache linearizability
----------------------------

Cache entries live exactly as long as the network read that populates
them: reads issued while one is in flight coalesce onto it, and every
waiter's invocation window overlaps the reply, so linearizing all of them
at the reply's serving instant is valid under concurrent writers.  An
entry whose chain epoch no longer matches the directory's current epoch
at reply time is discarded (a reconfiguration raced the read) and its
waiters re-issue.  Retaining entries past the reply would require
switch-driven invalidation to stay linearizable; the coalescing window is
the largest cache lifetime that needs none, and under skew it already
collapses most duplicate hot-key reads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.core.client import KVFuture, KVResult, canonical_key
from repro.core.kvstore import StoreFullError
from repro.core.protocol import KEY_BYTES, OpCode, header_key
from repro.netsim.registers import RegisterFile


# --------------------------------------------------------------------- #
# Detection: count-min sketch + top-k heavy-hitter table.
# --------------------------------------------------------------------- #

#: Width of one sketch counter and one top-k count, in bytes.
SKETCH_COUNTER_BYTES = 4


@dataclass(frozen=True)
class SketchConfig:
    """Dimensions of one hot-key sketch.

    The defaults (3 rows x 512 four-byte counters plus an 8-entry top-k
    table) cost ~6 KB of SRAM per switch -- noise next to the store's
    register arrays -- and keep per-key estimates exact for the key
    populations the testbed runs.
    """

    rows: int = 3
    width: int = 512
    topk: int = 8


class HotKeySketch:
    """Count-min sketch + top-k table over register arrays.

    Pass ``registers`` (a :class:`repro.netsim.registers.RegisterFile`) to
    allocate the rows and the top-k table as named register arrays against
    the switch SRAM budget -- the deployment story of Section 6 applied to
    the detector itself.  Without it the arrays come from an unbudgeted
    file of the sketch's own, which is how the hybrid store shares the
    detector host-side.

    Hashing is ``crc32`` with a per-row salt: deterministic across
    processes (Python's ``hash`` is randomized by ``PYTHONHASHSEED``), so
    same-seed runs replay byte-identically.

    The class keeps an O(1) dict index (``_tk_index``) of the top-k
    table's key slots; the arrays are authoritative, the index is derived.
    """

    def __init__(self, config: Optional[SketchConfig] = None,
                 registers=None, name: str = "hotkey") -> None:
        self.config = config or SketchConfig()
        self.name = name
        self._registers = registers if registers is not None else RegisterFile()
        cfg = self.config
        self._salts = tuple((0x9E3779B9 * (i + 1)) & 0xFFFFFFFF
                            for i in range(cfg.rows))
        rows = [f"{name}_cms{i}" for i in range(cfg.rows)]
        topk_keys, topk_counts = f"{name}_topk_keys", f"{name}_topk_counts"
        allocate = self._registers.allocate
        self._rows = [allocate(row, cfg.width, SKETCH_COUNTER_BYTES, initial=0) for row in rows]
        self._tk_keys = allocate(topk_keys, cfg.topk, KEY_BYTES)
        self._tk_counts = allocate(topk_counts, cfg.topk, SKETCH_COUNTER_BYTES, initial=0)
        self._array_names: List[str] = rows + [topk_keys, topk_counts]
        self._tk_index: Dict[bytes, int] = {}
        #: Total record() calls since the last reset (per-poll read volume).
        self.updates = 0

    # -- updates ---------------------------------------------------------- #

    def record(self, key: bytes, count: int = 1) -> int:
        """Count one (or ``count``) occurrences; returns the new estimate."""
        width = self.config.width
        estimate = None
        for salt, row in zip(self._salts, self._rows, strict=True):
            index = zlib.crc32(key, salt) % width
            value = row[index] + count
            row[index] = value
            if estimate is None or value < estimate:
                estimate = value
        self.updates += count
        self._update_topk(key, estimate)
        return estimate

    def estimate(self, key: bytes) -> int:
        """Current estimate for ``key`` (an over-estimate, never under)."""
        width = self.config.width
        estimate = None
        for salt, row in zip(self._salts, self._rows, strict=True):
            value = row[zlib.crc32(key, salt) % width]
            if estimate is None or value < estimate:
                estimate = value
        return estimate or 0

    def _update_topk(self, key: bytes, estimate: int) -> None:
        index = self._tk_index.get(key)
        if index is not None:
            if estimate > self._tk_counts[index]:
                self._tk_counts[index] = estimate
            return
        counts = self._tk_counts
        min_index = 0
        min_count = counts[0]
        for i in range(1, len(counts)):
            if counts[i] < min_count:
                min_count = counts[i]
                min_index = i
        if estimate <= min_count:
            return
        old = self._tk_keys[min_index]
        if old is not None:
            self._tk_index.pop(old, None)
        self._tk_keys[min_index] = key
        counts[min_index] = estimate
        self._tk_index[key] = min_index

    # -- queries ----------------------------------------------------------- #

    def heavy_hitters(self) -> List[Tuple[bytes, int]]:
        """Top-k ``(key, estimated count)``, hottest first.

        Ties break on the key bytes so same-seed runs order identically.
        """
        entries = [(self._tk_counts[i], key)
                   for key, i in self._tk_index.items()]
        entries.sort(key=lambda e: (-e[0], e[1]))
        return [(key, count) for count, key in entries]

    # -- maintenance ------------------------------------------------------- #

    def reset(self) -> None:
        """Zero all counters and the top-k table (the per-poll decay)."""
        for row in self._rows:
            for i in range(len(row)):
                row[i] = 0
        for i in range(len(self._tk_keys)):
            self._tk_keys[i] = None
            self._tk_counts[i] = 0
        self._tk_index.clear()
        self.updates = 0

    def forget(self, key: bytes) -> None:
        """Best-effort removal of one key's mass (conservative subtraction).

        Subtracts the key's current estimate from each of its buckets
        (clamped at zero) and drops it from the top-k table.  Exact unless
        the key collides with another in every row -- good enough for the
        hybrid tier's "reset the count after promotion/delete" semantics.
        """
        estimate = self.estimate(key)
        if estimate:
            width = self.config.width
            for salt, row in zip(self._salts, self._rows, strict=True):
                index = zlib.crc32(key, salt) % width
                value = row[index] - estimate
                row[index] = value if value > 0 else 0
        index = self._tk_index.pop(key, None)
        if index is not None:
            self._tk_keys[index] = None
            self._tk_counts[index] = 0

    def free(self) -> None:
        """Release the register arrays back to the switch SRAM pool."""
        for name in self._array_names:
            self._registers.free(name)
        self._array_names = []


# --------------------------------------------------------------------- #
# Reaction: the controller's hot-key policy loop.
# --------------------------------------------------------------------- #

#: A widened key whose per-poll reads fall below ``hot_threshold *
#: COLD_FRACTION`` starts cooling down.
COLD_FRACTION = 0.25
#: Maximum keys widened at once (replica state is per-key SRAM).
MAX_HOT_KEYS = 8


@dataclass
class HotKeyTierConfig:
    """Policy knobs of the hot-key tier.  A widen adds every live member
    switch outside the base chain as an extra replica, and each member
    switch carries a default :class:`SketchConfig` sketch."""

    #: How often the controller polls (and decays) the switch sketches.
    poll_interval: float = 5e-3
    #: Aggregate reads per poll interval that confirm a key as hot.
    hot_threshold: int = 64
    #: Consecutive cold polls before a widened key narrows again.
    cooldown_polls: int = 2
    #: Freeze-and-copy window of one widen commit (control-plane RPCs plus
    #: the single-item state copy; writes of the key's vgroup drop during
    #: it and client retries land after the commit).
    widen_latency: float = 2e-3
    #: Attach an epoch-validated coalescing read cache to every client.
    client_cache: bool = True

    @classmethod
    def from_options(cls, options) -> "HotKeyTierConfig":
        """Build from a spec's ``options["hotkey_tier"]`` dict (or pass an
        instance through)."""
        if options is None:
            return cls()
        if isinstance(options, cls):
            return options
        known = sorted(f.name for f in fields(cls))
        unknown = sorted(set(options) - set(known))
        if unknown:
            raise ValueError(
                f"unknown hotkey_tier option(s): {', '.join(unknown)} "
                f"(known: {', '.join(known)})")
        return cls(**options)


@dataclass
class HotKeyTierStats:
    """Counters describing the manager's decisions (routes torn down are
    counted by the controller, ``narrowed_hot_routes``)."""

    polls: int = 0
    widened: int = 0
    widen_aborted: int = 0
    #: Widen candidates skipped (capacity, unknown key, frozen vgroup).
    skipped: int = 0


class HotKeyManager:
    """The controller-side policy loop of the hot-key tier.

    Attaching the manager installs a :class:`HotKeySketch` on every member
    switch program (register-array backed); :meth:`start` begins the
    periodic poll.  The manager only decides: the hot routes are the
    controller's (:attr:`NetChainController.hot_routes`), kept beside the
    per-vgroup chain table -- widening never rewrites the chain table, so
    the failure-recovery and migration machinery keep operating on base
    chains.  A chain commit the tier did not make narrows that group's
    routes in the same call; the manager sees the controller's
    ``chain_commits`` move and narrows every other route at its next
    poll, and a widen pending across such a commit aborts.
    """

    def __init__(self, controller, config: Optional[HotKeyTierConfig] = None) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.config = config or HotKeyTierConfig()
        self.stats = HotKeyTierStats()
        self.caches: List[ClientReadCache] = []
        self._widening: Set[bytes] = set()
        self._cold_polls: Dict[bytes, int] = {}
        self._cancel = None
        #: ``controller.chain_commits`` as of the last narrow-all.
        self._commits_seen = controller.chain_commits
        if any(controller.programs[name].hotkeys is not None
               for name in controller.members):
            raise ValueError("the member switches already carry hot-key sketches")
        for name in controller.members:
            program = controller.programs[name]
            program.hotkeys = HotKeySketch(registers=program.switch.registers)

    # -- lifecycle -------------------------------------------------------- #

    def start(self) -> None:
        """Begin the periodic sketch poll."""
        if self._cancel is None:
            self._cancel = self.sim.every(self.config.poll_interval, self._poll,
                                          start=self.config.poll_interval)

    def stop(self) -> None:
        """Stop polling, narrow every hot route and detach the sketches."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        self.narrow_all()
        for name in self.controller.members:
            program = self.controller.programs.get(name)
            if program is not None and program.hotkeys is not None:
                program.hotkeys.free()
                program.hotkeys = None

    # -- the policy loop --------------------------------------------------- #

    def _poll(self) -> None:
        controller = self.controller
        self.stats.polls += 1
        totals: Dict[bytes, int] = {}
        hot = controller.hot_routes
        for name in controller.members:
            program = controller.programs.get(name)
            sketch = getattr(program, "hotkeys", None)
            if sketch is None:
                continue
            # A switch sketch holds the padded header field (see the switch
            # program's read path); the tier works on canonical keys.
            for padded, count in sketch.heavy_hitters():
                key = canonical_key(padded)
                if key not in hot:
                    totals[key] = totals.get(key, 0) + count
            # Already-widened keys are tracked through estimate(), not the
            # top-k table: rotation spreads their reads over every member,
            # so the per-switch share can drop below the top-k floor while
            # the aggregate is still hot -- cooling on table eviction alone
            # would thrash widen/narrow.
            for key in hot:
                totals[key] = totals.get(key, 0) + sketch.estimate(
                    key.ljust(KEY_BYTES, b"\x00"))
            sketch.reset()
        if controller.chain_commits != self._commits_seen:
            self.narrow_all()
            return
        cold_bar = self.config.hot_threshold * COLD_FRACTION
        for raw in list(hot):
            if totals.get(raw, 0) < cold_bar:
                polls = self._cold_polls.get(raw, 0) + 1
                if polls >= self.config.cooldown_polls:
                    controller.narrow_hot_route(raw)
                else:
                    self._cold_polls[raw] = polls
            else:
                self._cold_polls[raw] = 0
        if controller.failed_switches or controller.recovering:
            return  # quiesce while the failure machinery owns the chains
        candidates = sorted(
            ((count, key) for key, count in totals.items()
             if count >= self.config.hot_threshold),
            key=lambda e: (-e[0], e[1]))
        for _count, raw in candidates:
            if len(hot) + len(self._widening) >= MAX_HOT_KEYS:
                break
            if raw in hot or raw in self._widening:
                continue
            self.widen(raw)

    # -- widening ---------------------------------------------------------- #

    def widen(self, key) -> bool:
        """Start widening one key; commits after ``widen_latency``.

        Returns ``False`` when the key cannot be widened (unknown to the
        controller -- the cold/foreign-key guard -- its vgroup is frozen,
        or no second replica exists).
        """
        controller = self.controller
        raw = canonical_key(key)
        vgroup = controller.ring.vgroup_for_key(raw)
        if raw not in controller.keys_by_vgroup.get(vgroup, set()):
            self.stats.skipped += 1
            return False
        base = list(controller.chain_table[vgroup].switches)
        for name in base:
            if vgroup in controller.programs[name].frozen_write_vgroups:
                self.stats.skipped += 1
                return False  # a migration owns this group right now
        extras = [name for name in controller.members
                  if name not in base and name not in controller.failed_switches]
        wide = base + extras
        if len(wide) < 2:
            self.stats.skipped += 1
            return False
        self._widening.add(raw)
        controller.set_write_freeze([vgroup], True, switches=wide)
        self.sim.schedule(self.config.widen_latency, self._commit_widen,
                          raw, vgroup, base, extras)
        return True

    def _commit_widen(self, raw: bytes, vgroup: int, base: List[str],
                      extras: List[str]) -> None:
        controller = self.controller
        wide = base + extras

        def abort() -> None:
            controller.set_write_freeze([vgroup], False, switches=wide)
            self._widening.discard(raw)
            self.stats.widen_aborted += 1

        if controller.failed_switches.intersection(wide):
            abort()
            return
        if controller.chain_commits != self._commits_seen:
            abort()  # the base chain moved under the freeze
            return
        item = controller.stores[base[-1]].read(raw)
        if item is None or not item.valid:
            abort()  # deleted (or garbage-collected) while confirming
            return
        try:
            controller.install_hot_route(raw, vgroup, base, extras,
                                         (item.session, item.seq))
        except StoreFullError:
            abort()  # a full store on an extra replica
            return
        controller.set_write_freeze([vgroup], False, switches=wide)
        self._widening.discard(raw)
        self._cold_polls[raw] = 0
        self.stats.widened += 1

    def narrow_all(self) -> None:
        """Tear every hot route down (failure/reconfiguration quiesce)."""
        for raw in list(self.controller.hot_routes):
            self.controller.narrow_hot_route(raw)
        self._commits_seen = self.controller.chain_commits


# --------------------------------------------------------------------- #
# Client tier: the epoch-validated coalescing read cache.
# --------------------------------------------------------------------- #

@dataclass
class ReadCacheStats:
    """Client-cache counters."""

    lookups: int = 0
    #: Reads served by coalescing onto an in-flight network read.
    coalesced: int = 0
    #: Network reads actually issued.
    network_reads: int = 0
    #: Entries discarded because the chain epoch moved while the read was
    #: in flight (their waiters re-issued).
    epoch_invalidations: int = 0
    #: Failures (timeouts, misses) shared with coalesced waiters.
    shared_failures: int = 0


class _CacheEntry:
    __slots__ = ("vgroup", "epoch", "waiters")

    def __init__(self, vgroup: int, epoch: int) -> None:
        self.vgroup = vgroup
        self.epoch = epoch
        # (future, invoked_at) per coalesced waiter.
        self.waiters: List[Tuple] = []


class ClientReadCache:
    """Per-agent read cache: epoch-validated in-flight coalescing.

    See the module docstring for why this is the exact cache lifetime that
    stays linearizable without switch-driven invalidation.  Attach with
    ``agent.read_cache = ClientReadCache(directory)`` (the hot-key manager
    does this for every cluster agent when ``client_cache`` is on).
    """

    def __init__(self, directory) -> None:
        self.directory = directory
        self.stats = ReadCacheStats()
        self._inflight: Dict[bytes, _CacheEntry] = {}

    def _current_epoch(self, vgroup: int) -> int:
        epochs = getattr(self.directory, "epochs", None)
        if epochs is None:
            return 0
        return epochs.get(vgroup, 0)

    def read(self, agent, key) -> KVFuture:
        """Serve one read through the cache (called by the agent)."""
        raw = header_key(key)
        self.stats.lookups += 1
        entry = self._inflight.get(raw)
        if entry is not None:
            self.stats.coalesced += 1
            future = KVFuture(agent.sim, op="read", key=raw)
            entry.waiters.append((future, agent.sim.now))
            return future
        try:
            _ips, vgroup, epoch = agent._route(raw)
        except Exception:
            vgroup, epoch = 0, 0
        entry = _CacheEntry(vgroup, epoch)
        self._inflight[raw] = entry
        self.stats.network_reads += 1

        # Registered before the caller sees the future, so coalesced waiters
        # resolve ahead of the caller's own continuations.
        return agent._submit(OpCode.READ, raw, op_name="read").then(
            lambda kv: self._resolve(agent, raw, entry, kv))

    def _resolve(self, agent, raw: bytes, entry: _CacheEntry, result: KVResult) -> None:
        if self._inflight.get(raw) is entry:
            del self._inflight[raw]
        waiters = entry.waiters
        if not waiters:
            return
        if result.ok and self._current_epoch(entry.vgroup) != entry.epoch:
            # The chain was reconfigured while the read was in flight; the
            # entry is stale by the epoch rule, so its waiters re-fetch
            # (re-coalescing onto one fresh read).
            self.stats.epoch_invalidations += 1
            for future, _invoked_at in waiters:
                self.read(agent, raw).then(future.resolve)
            return
        if not result.ok:
            self.stats.shared_failures += len(waiters)
        now = agent.sim.now
        for future, invoked_at in waiters:
            future.resolve(replace(result, latency=now - invoked_at))


# --------------------------------------------------------------------- #
# Deployment helper.
# --------------------------------------------------------------------- #

def enable_hotkey_tier(cluster, config=None) -> HotKeyManager:
    """Turn the tier on for a built NetChain-family cluster: install the
    sketches, start the manager and (by default) attach a read cache to
    every host agent.  Returns the manager (stop it via ``manager.stop()``
    or the deployment's teardown)."""
    tier_config = HotKeyTierConfig.from_options(config)
    manager = HotKeyManager(cluster.controller, config=tier_config)
    if tier_config.client_cache:
        for agent in cluster.agent_list():
            cache = ClientReadCache(cluster.controller)
            agent.read_cache = cache
            manager.caches.append(cache)
    manager.start()
    return manager
