"""Key-value workload generators.

The evaluation's default workload (Section 8.1) uses 64-byte values, a 20K
item store, a 1% write ratio and uniformly random keys; the individual
experiments sweep one knob at a time.  :class:`KeyValueWorkload` produces an
operation stream with exactly those knobs, plus an optional Zipf-skewed key
popularity (coordination workloads are often skewed; the default stays
uniform to match the paper).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum, auto
from functools import lru_cache
from itertools import accumulate
from math import fsum
from typing import List, Optional, Tuple


def standard_key_names(count: int, prefix: str = "k") -> List[str]:
    """The repository-wide preloaded-key naming scheme: ``prefix`` plus an
    8-digit zero-padded index.

    Deployment preload (:meth:`repro.core.cluster.NetChainCluster.populate`,
    :meth:`repro.deploy.DeploymentSpec.key_names`) and workload generation
    (:meth:`WorkloadConfig.key_names`) must target the same names; this is
    the single definition they all share.
    """
    return [f"{prefix}{i:08d}" for i in range(count)]


class OpType(Enum):
    """Operation kinds produced by the generator."""

    READ = auto()
    WRITE = auto()


#: Hoisted members: enum member access is a metaclass lookup per use.
_READ = OpType.READ
_WRITE = OpType.WRITE


@dataclass(slots=True)
class Operation:
    """One generated operation."""

    op: OpType
    key: str
    value: Optional[bytes] = None


@dataclass
class WorkloadConfig:
    """The workload knobs of Section 8.1."""

    #: Number of distinct keys ("store size").
    store_size: int = 20000
    #: Value size in bytes.
    value_size: int = 64
    #: Fraction of operations that are writes, in [0, 1].
    write_ratio: float = 0.01
    #: Zipf skew parameter; 0 means uniform key popularity.
    zipf_theta: float = 0.0
    #: Prefix for generated key names.
    key_prefix: str = "k"
    #: RNG seed (ignored when an explicit ``rng`` is injected).
    seed: int = 0
    #: Generate a distinct value per write instead of a constant block.
    #: Consistency checks (linearizability over recorded histories) need
    #: writes to be distinguishable; throughput experiments keep the cheap
    #: constant values.
    unique_values: bool = False

    def key_names(self) -> List[str]:
        """All key names of the store."""
        return standard_key_names(self.store_size, self.key_prefix)


def zipf_probabilities(n: int, theta: float) -> List[float]:
    """Zipf popularity distribution over ``n`` items (theta=0 is uniform)."""
    if n <= 0:
        raise ValueError("need at least one item")
    weights = [rank ** -theta for rank in range(1, n + 1)]
    # fsum: at 20,000 items a left-to-right sum is 75 ulp off the rounded total.
    total = fsum(weights)
    return [weight / total for weight in weights]


@lru_cache(maxsize=8)
def _zipf_cumulative(n: int, theta: float) -> Tuple[float, ...]:
    """Running sums of :func:`zipf_probabilities`; a scenario's clients share one."""
    return tuple(accumulate(zipf_probabilities(n, theta)))


class KeyValueWorkload:
    """Generates read/write operations according to a :class:`WorkloadConfig`.

    Every stochastic choice (key popularity, read/write coin) flows through
    one ``random.Random``: pass ``rng`` to share (or replay) a seed across
    the workload and the fault models of a scenario, or rely on
    ``config.seed``.  ``tag`` disambiguates the unique values generated by
    different clients of the same scenario.
    """

    def __init__(self, config: Optional[WorkloadConfig] = None,
                 rng: Optional[random.Random] = None, tag: str = "") -> None:
        self.config = config or WorkloadConfig()
        self.rng = rng or random.Random(self.config.seed)
        self.tag = tag
        self.keys = self.config.key_names()
        self._value = bytes(self.config.value_size)
        self._value_counter = 0
        self._cumulative = _zipf_cumulative(len(self.keys), self.config.zipf_theta) \
            if self.config.zipf_theta > 0 else ()

    def pick_key(self) -> str:
        """One key according to the configured popularity distribution."""
        if self.config.zipf_theta <= 0:
            return self.rng.choice(self.keys)
        index = bisect_left(self._cumulative, self.rng.random())
        return self.keys[min(index, len(self.keys) - 1)]

    def make_value(self) -> bytes:
        """A value of the configured size.

        With ``config.unique_values`` the value identifies the writing
        client and write number (padded to the configured size), which is
        what makes a recorded history's writes distinguishable to the
        linearizability checker.
        """
        if not self.config.unique_values:
            return self._value
        self._value_counter += 1
        value = f"{self.tag}#{self._value_counter}".encode("utf-8")
        if len(value) < self.config.value_size:
            value = value.ljust(self.config.value_size, b".")
        return value

    def next_operation(self) -> Operation:
        """Generate the next operation."""
        if self.rng.random() < self.config.write_ratio:
            return Operation(_WRITE, self.pick_key(), self.make_value())
        return Operation(_READ, self.pick_key())

    def operations(self, count: int) -> List[Operation]:
        """Generate a batch of operations."""
        return [self.next_operation() for _ in range(count)]

    def measured_write_fraction(self, count: int = 10000) -> float:
        """Empirical write fraction over a sample (useful in tests)."""
        sample = self.operations(count)
        return sum(1 for op in sample if op.op is OpType.WRITE) / count
