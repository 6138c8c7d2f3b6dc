#!/usr/bin/env python3
"""Quickstart: an in-network key-value store in a few lines.

Builds the paper's 4-switch testbed (Figure 8), installs the NetChain
program on the switches, and drives it through the unified client API
(:mod:`repro.core.client`): every operation returns a future, and a
session batches operations back-to-back with a pipelined in-flight window.
Every query is processed entirely by the simulated switch data plane --
note the ~10 microsecond latencies, versus the hundreds of microseconds a
server-based store pays.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.deploy import DeploymentSpec, build_deployment


def main() -> None:
    # A NetChain deployment, declaratively: 4 Tofino-like switches in a
    # ring, 4 client hosts, chains of 3 switches (f+1 = 3 tolerates 2
    # failures with the help of the controller's reconfiguration
    # protocol).  scale=1 keeps the full device capacities so per-query
    # latency matches the paper.  Swapping `backend` for "zookeeper",
    # "server-chain", "primary-backup" or "hybrid" builds the comparison
    # systems with the same client protocol.
    deployment = build_deployment(DeploymentSpec(
        backend="netchain", scale=1.0, store_slots=4096, vnodes_per_switch=8))
    cluster = deployment.cluster
    controller = cluster.controller
    session = cluster.session("H0")

    print("== NetChain quickstart ==")
    print(f"member switches : {sorted(controller.members)}")

    # Insert goes through the control plane (the controller installs the
    # key's index entry on every switch of its chain), then the value is
    # written through the data plane.  .result() drives the simulation
    # until the reply arrives.
    session.insert("hello", b"world").result()
    info = controller.chain_for_key("hello")
    print(f"chain for 'hello': {info.switches} (head -> tail)")

    # Reads and writes are pure data-plane operations returning futures.
    result = session.read("hello").result()
    print(f"read  'hello' -> {result.value!r}   latency {result.latency * 1e6:.1f} us")

    result = session.write("hello", b"netchain").result()
    print(f"write 'hello' <- b'netchain'        latency {result.latency * 1e6:.1f} us "
          f"(version {result.version})")

    result = session.read("hello").result()
    print(f"read  'hello' -> {result.value!r}   version {result.version}")

    # Compare-and-swap: the primitive used to build locks (Section 8.5).
    ok = session.cas("hello", b"netchain", b"swapped").result()
    failed = session.cas("hello", b"netchain", b"nope").result()
    print(f"cas expecting current value  -> ok={ok.ok}")
    print(f"cas expecting stale value    -> ok={failed.ok} "
          f"(value stays {session.read('hello').result().value!r})")

    # Batched pipelined submission: operations go out back-to-back with a
    # bounded in-flight window instead of one round-trip gap per op.
    keys = [f"bulk{i}" for i in range(8)]
    controller.populate(keys)
    batch = session.batch()
    for key in keys:
        batch.write(key, key.encode())
    start = cluster.sim.now
    results = batch.results()
    elapsed = cluster.sim.now - start
    print(f"batched 8 writes in {elapsed * 1e6:.1f} us total "
          f"({'all ok' if all(r.ok for r in results) else 'failures!'}) -- "
          f"~{elapsed / len(keys) * 1e6:.1f} us/op pipelined")

    # Reads from another host observe the same data (strong consistency).
    other = cluster.session("H1")
    print(f"read from H1 -> {other.read('hello').result().value!r}")

    # Delete invalidates the item in the data plane; the controller
    # garbage-collects the slot afterwards.
    session.delete("hello").result()
    result = session.read("hello").result()
    print(f"read after delete -> ok={result.ok} (not_found={result.not_found})")

    stats = [(name, program.stats.reads, program.stats.writes_applied)
             for name, program in sorted(controller.programs.items())]
    print("per-switch data-plane counters (reads, writes):")
    for name, reads, writes in stats:
        print(f"  {name}: reads={reads:3d} writes={writes:3d}")


if __name__ == "__main__":
    main()
