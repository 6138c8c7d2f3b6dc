"""Tests for workload generators and load-driving clients."""

from __future__ import annotations

import pytest

from repro.workloads import (
    KeyValueWorkload,
    LoadClient,
    OpType,
    WorkloadConfig,
    zipf_probabilities,
)
from tests.conftest import make_cluster


def test_workload_defaults_match_paper_section_8_1():
    config = WorkloadConfig()
    assert config.store_size == 20000
    assert config.value_size == 64
    assert config.write_ratio == pytest.approx(0.01)


def test_key_names_cover_store_size():
    config = WorkloadConfig(store_size=10)
    names = config.key_names()
    assert len(names) == 10
    assert len(set(names)) == 10


def test_write_ratio_respected_statistically():
    workload = KeyValueWorkload(WorkloadConfig(store_size=100, write_ratio=0.3, seed=1))
    fraction = workload.measured_write_fraction(5000)
    assert 0.25 < fraction < 0.35


def test_read_only_and_write_only_extremes():
    reads = KeyValueWorkload(WorkloadConfig(store_size=10, write_ratio=0.0))
    writes = KeyValueWorkload(WorkloadConfig(store_size=10, write_ratio=1.0))
    assert all(op.op is OpType.READ for op in reads.operations(200))
    assert all(op.op is OpType.WRITE for op in writes.operations(200))


def test_write_operations_carry_values_of_configured_size():
    workload = KeyValueWorkload(WorkloadConfig(store_size=10, write_ratio=1.0,
                                               value_size=48))
    operation = workload.next_operation()
    assert operation.value is not None
    assert len(operation.value) == 48


def test_keys_drawn_from_store():
    workload = KeyValueWorkload(WorkloadConfig(store_size=50, seed=3))
    keys = {workload.pick_key() for _ in range(500)}
    assert keys.issubset(set(workload.keys))
    assert len(keys) > 20


def test_zipf_probabilities_sum_to_one_and_skew():
    uniform = zipf_probabilities(100, 0.0)
    skewed = zipf_probabilities(100, 0.99)
    assert sum(uniform) == pytest.approx(1.0)
    assert sum(skewed) == pytest.approx(1.0)
    assert skewed[0] > uniform[0]
    with pytest.raises(ValueError):
        zipf_probabilities(0, 0.5)


def test_zipf_workload_prefers_popular_keys():
    workload = KeyValueWorkload(WorkloadConfig(store_size=100, zipf_theta=1.2, seed=2))
    counts = {}
    for _ in range(3000):
        key = workload.pick_key()
        counts[key] = counts.get(key, 0) + 1
    top = max(counts.values())
    assert top > 3000 / 100 * 5  # far above the uniform share


def test_zipf_empirical_frequency_matches_analytic_mass():
    # The skewed scenarios of the hot-key tier lean on this property: the
    # generator's realized key frequencies must track the analytic Zipf
    # distribution, seeded and deterministic.
    import random as random_module

    n, theta, draws = 50, 0.99, 20000
    workload = KeyValueWorkload(WorkloadConfig(store_size=n, zipf_theta=theta),
                                rng=random_module.Random(11))
    counts = {}
    for _ in range(draws):
        key = workload.pick_key()
        counts[key] = counts.get(key, 0) + 1
    probabilities = zipf_probabilities(n, theta)
    top_key = workload.keys[0]
    empirical = counts[top_key] / draws
    assert empirical == pytest.approx(probabilities[0], rel=0.1)
    # Aggregate mass of the five hottest keys tracks the analytic mass too.
    top5 = sum(counts.get(key, 0) for key in workload.keys[:5]) / draws
    assert top5 == pytest.approx(sum(probabilities[:5]), rel=0.1)


def test_skewed_stream_is_deterministic_per_seed():
    config = WorkloadConfig(store_size=40, zipf_theta=1.2, write_ratio=0.2,
                            unique_values=True, seed=5)
    first = KeyValueWorkload(config, tag="c0").operations(400)
    second = KeyValueWorkload(config, tag="c0").operations(400)
    assert [(op.op, op.key, op.value) for op in first] \
        == [(op.op, op.key, op.value) for op in second]
    other = KeyValueWorkload(WorkloadConfig(store_size=40, zipf_theta=1.2,
                                            write_ratio=0.2,
                                            unique_values=True, seed=6),
                             tag="c0").operations(400)
    assert [op.key for op in first] != [op.key for op in other]


def test_skewed_load_client_replays_identically():
    def run_once():
        cluster = make_cluster()
        cluster.populate(20)
        workload = KeyValueWorkload(WorkloadConfig(store_size=20,
                                                   zipf_theta=0.99,
                                                   write_ratio=0.1, seed=9))
        client = LoadClient(cluster.agent("H0"), workload, concurrency=4)
        client.start()
        cluster.run(until=0.05)
        client.stop()
        return (client.completions.total(), client.successes.total(),
                client.successes.rate_between(0.0, 0.05))

    assert run_once() == run_once()


def test_closed_loop_client_measures_throughput_and_latency():
    cluster = make_cluster()
    cluster.controller.populate([f"k{i:08d}" for i in range(20)])
    workload = KeyValueWorkload(WorkloadConfig(store_size=20, key_prefix="k",
                                               write_ratio=0.5, seed=0))
    client = LoadClient(cluster.agent("H0"), workload, concurrency=4)
    client.start()
    cluster.run(until=0.06)
    client.stop()
    assert client.successes.rate_between(0.01, 0.06) > 0
    assert client.read_latency.mean() > 0
    assert client.write_latency.mean() > 0


def test_load_client_stop_halts_new_queries():
    cluster = make_cluster()
    cluster.controller.populate([f"k{i:08d}" for i in range(5)])
    workload = KeyValueWorkload(WorkloadConfig(store_size=5, key_prefix="k"))
    client = LoadClient(cluster.agent("H0"), workload, concurrency=2)
    client.start()
    cluster.run(until=cluster.sim.now + 0.02)
    client.stop()
    cluster.run(until=cluster.sim.now + 0.02)
    completed = client.completions.total()
    cluster.run(until=cluster.sim.now + 0.05)
    assert client.completions.total() == completed
