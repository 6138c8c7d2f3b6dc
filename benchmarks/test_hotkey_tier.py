"""Ablation benchmark for the adaptive hot-key tier.

Sweeps Zipf skew (``zipf_theta``) with the tier off and on at a fixed
operating point -- 4 clients x 12 outstanding queries, just past the
scaled client-NIC knee -- and records aggregate read throughput and p99
read latency for each point into ``results/ablation_hotkey_tier.json``.

What the numbers mean under the scale model: at scale 1000 the client
host NICs (DPDK, 20.5 kpps each) saturate long before the switches
(4 Mpps), matching the paper's observation that clients, not switches,
bound measured throughput.  Skew therefore never bottlenecks a switch
here; the tier's win is client-side read coalescing (duplicate hot-key
reads shed off the NIC) plus avoiding retry-driven congestion collapse
past the NIC knee.  Chain widening spreads load across switch replicas
-- machinery exercised by the unit tests (``tests/test_hotkeys.py``)
but throughput-neutral at this operating point.

A second smoke test re-runs the skewed scenario on short windows with
the per-key linearizability checker enabled, in both modes, and asserts
replay-identical signatures -- the correctness half of the ablation.
"""

from __future__ import annotations

from bench_utils import record_result
from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec, run_scenario
from repro.deploy.matrix import signature_digest

#: Zipf skew points: uniform vs paper-skewed.
THETAS = (0.0, 0.99)


def _spec(hotkey_tier: bool) -> DeploymentSpec:
    return DeploymentSpec(backend="netchain", store_size=64, seed=7,
                          hotkey_tier=hotkey_tier,
                          options={"hotkey_tier": {"hot_threshold": 16}})


def _workload(theta: float, duration: float = 0.2) -> WorkloadSpec:
    return WorkloadSpec(num_clients=4, concurrency=12, write_ratio=0.1,
                        zipf_theta=theta, duration=duration, drain=0.1)


def _run(theta: float, hotkey_tier: bool, duration: float = 0.2,
         linearizability: bool = False):
    # Throughput points run with the linearizability checker off: the
    # checker's per-state cost grows with the ops on a key, so a skewed
    # 0.2 s window would spend minutes checking, not measuring.  The
    # correctness smoke test below covers the same scenario shape on a
    # window short enough to check exhaustively.
    result = run_scenario(_spec(hotkey_tier), _workload(theta, duration),
                          ScenarioChecks(linearizability=linearizability))
    assert result.ok(), result.failures
    assert result.hotkey_tier_active == hotkey_tier
    return result


def _read_qps(result) -> float:
    ops = result.read_ops + result.write_ops
    return result.success_qps * (result.read_ops / ops) if ops else 0.0


def test_hotkey_tier_smoke_skew_ablation(benchmark):

    def run():
        points = []
        for theta in THETAS:
            off = _run(theta, hotkey_tier=False)
            on = _run(theta, hotkey_tier=True)
            points.append({
                "theta": theta,
                "off_read_qps": _read_qps(off),
                "on_read_qps": _read_qps(on),
                "off_p99_us": off.read_latency_p99 * 1e6,
                "on_p99_us": on.read_latency_p99 * 1e6,
            })
        return points

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = []
    speedups = {}
    for point in points:
        speedup = point["on_read_qps"] / max(point["off_read_qps"], 1e-9)
        speedups[point["theta"]] = speedup
        lines.append(
            f"zipf_theta {point['theta']:.2f}: "
            f"read qps tier-off {point['off_read_qps']:7.0f} "
            f"tier-on {point['on_read_qps']:7.0f} ({speedup:5.2f}x)  "
            f"p99 read tier-off {point['off_p99_us']:7.1f} us "
            f"tier-on {point['on_p99_us']:7.1f} us")
    record_result("ablation_hotkey_tier",
                  "Ablation: adaptive hot-key tier vs Zipf skew", lines)
    # The acceptance bar: at paper-level skew the tier at least doubles
    # aggregate read throughput.
    assert speedups[0.99] >= 2.0
    # And it must not hurt the uniform workload.
    assert speedups[0.0] >= 0.9


def test_hotkey_tier_smoke_linearizable_and_deterministic(benchmark):
    def run():
        outcomes = {}
        for hotkey_tier in (False, True):
            first = _run(0.99, hotkey_tier, duration=0.05,
                         linearizability=True)
            second = _run(0.99, hotkey_tier, duration=0.05,
                          linearizability=True)
            assert first.linearizability is not None
            assert first.linearizability.ok
            assert signature_digest(first) == signature_digest(second)
            outcomes["tier on" if hotkey_tier else "tier off"] = \
                first.completed_ops
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(count > 0 for count in outcomes.values())
