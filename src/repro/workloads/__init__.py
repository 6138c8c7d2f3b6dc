"""Workload generation and load-driving clients.

* :mod:`repro.workloads.generators` -- key-value workload descriptions:
  key distributions, read/write mixes, value sizes, store sizes -- the knobs
  of Figures 9(a)-(d).
* :mod:`repro.workloads.clients` -- the backend-generic closed-loop load
  driver over the :class:`repro.core.client.KVClient` protocol.
"""

from repro.workloads.clients import LoadClient
from repro.workloads.generators import (
    KeyValueWorkload,
    Operation,
    OpType,
    WorkloadConfig,
    zipf_probabilities,
)

__all__ = [
    "WorkloadConfig",
    "KeyValueWorkload",
    "Operation",
    "OpType",
    "zipf_probabilities",
    "LoadClient",
]
