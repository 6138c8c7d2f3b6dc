"""NetChain: Scale-Free Sub-RTT Coordination — a Python reproduction.

This package reproduces the system described in "NetChain: Scale-Free
Sub-RTT Coordination" (Jin et al., NSDI 2018): an in-network,
strongly-consistent, fault-tolerant key-value store running in the data
plane of programmable switches, replicated with a variant of chain
replication and reconfigured by a network controller.

Sub-packages:

* :mod:`repro.netsim`      -- the simulated substrate (switches, hosts, links,
  topologies, TCP) that replaces the paper's Tofino testbed.
* :mod:`repro.core`        -- the NetChain protocol: data plane, control plane,
  client agent, coordination primitives and correctness invariants.
* :mod:`repro.baselines`   -- the server-based comparison systems (a
  ZooKeeper-like ensemble, server chain replication, primary-backup).
* :mod:`repro.workloads`   -- workload generators and load-driving clients.
* :mod:`repro.apps`        -- applications (the 2PL transaction benchmark).
* :mod:`repro.perfmodel`   -- device constants (Table 1) and analytic models.
* :mod:`repro.deploy`      -- declarative deployment specs, one deployment
  class per backend (netchain / zookeeper / server-chain / primary-backup /
  hybrid) and the scenario runner.
* :mod:`repro.experiments` -- one driver per measurement of the paper's
  evaluation, whatever the backend (Fig. 9(f) and Table 1: perfmodel).
* :mod:`repro.artifacts`   -- the run-directory format (NDJSON streams, JSON
  documents); :mod:`repro.cli` is ``python -m repro matrix|history|trace|lint``.

Quickstart (the unified futures-based client API, :mod:`repro.core.client`)::

    from repro.deploy import DeploymentSpec, build_deployment

    cluster = build_deployment(DeploymentSpec(store_slots=1024)).cluster
    session = cluster.session("H0")
    session.insert("hello").result()
    session.write("hello", b"world").result()
    print(session.read("hello").result().value)   # b"world"

    # Pipelined batched submission (one RTT per window, not per op):
    futures = session.batch().read("hello").write("hello", b"!").submit()
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
