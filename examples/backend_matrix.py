#!/usr/bin/env python3
"""One seeded scenario, every backend.

The paper's evaluation is a matrix: one workload swept over NetChain,
ZooKeeper and server-based chain variants.  With the declarative
deployment API (:mod:`repro.deploy`) that matrix is a loop: a single
:class:`DeploymentSpec` plus :func:`run_scenario` drives the *same*
seeded mixed read/write workload -- the same keys, the same operation
stream, the same linearizability checks -- against all five
backends, varying nothing but the spec's ``backend`` field.

Run:  PYTHONPATH=src python examples/backend_matrix.py
"""

from __future__ import annotations

from repro.deploy import DeploymentSpec, WorkloadSpec, available_backends, run_scenario


def main() -> None:
    spec = DeploymentSpec(store_size=24, value_size=32, seed=11)
    workload = WorkloadSpec(num_clients=2, concurrency=2, write_ratio=0.5,
                            duration=0.3)

    print("== One seeded scenario on every backend ==")
    print(f"{'backend':<15} {'ok':<5} {'ops':>7} {'qps(sim)':>10} "
          f"{'read us':>9} {'write us':>9}  capabilities")
    for name in available_backends():
        result = run_scenario(spec.with_backend(name), workload)
        caps = result.deployment.capabilities
        flags = ",".join(flag.replace("supports_", "")
                         for flag, on in caps.as_dict().items()
                         if on and flag.startswith("supports_"))
        print(f"{name:<15} {str(result.ok()):<5} {result.completed_ops:>7} "
              f"{result.success_qps:>10.0f} "
              f"{result.mean_read_latency * 1e6:>9.1f} "
              f"{result.mean_write_latency * 1e6:>9.1f}  {flags}")
        for failure in result.failures:
            print(f"   FAILED CHECK: {failure}")

    print()
    print("Every run used the identical workload stream (same seed) and passed")
    print("the same per-key linearizability check; only the spec's `backend`")
    print("field changed.  Latencies differ by orders of magnitude -- that gap")
    print("is the paper's argument for moving coordination into the network.")


if __name__ == "__main__":
    main()
