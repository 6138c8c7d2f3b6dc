"""Tests for the device constants (Table 1) and the scalability model."""

from __future__ import annotations

import pytest

from repro.perfmodel import (
    DPDK_CLIENT,
    NETBRICKS_SERVER,
    TOFINO,
    ZOOKEEPER_SERVER,
    SpineLeafModel,
    scalability_sweep,
    scaled_dpdk_host_config,
    scaled_kernel_host_config,
    scaled_switch_config,
    table1_rows,
)


def test_table1_reflects_paper_gap():
    """Table 1: switches are orders of magnitude faster than servers."""
    assert TOFINO.packets_per_sec / NETBRICKS_SERVER.packets_per_sec > 100
    assert TOFINO.processing_delay < 1e-6
    assert NETBRICKS_SERVER.processing_delay >= 10e-6
    rows = table1_rows()
    assert len(rows) == 2
    names = [row[0] for row in rows]
    assert "Tofino switch" in names and "NetBricks server" in names
    tofino_row = rows[names.index("Tofino switch")]
    assert "billion" in tofino_row[1]
    assert "Tbps" in tofino_row[2]


def test_device_constants_match_paper_values():
    assert TOFINO.packets_per_sec == pytest.approx(4e9)
    assert DPDK_CLIENT.packets_per_sec == pytest.approx(20.5e6)
    assert ZOOKEEPER_SERVER.packets_per_sec < 1e6


def test_scaled_configs_divide_capacity_not_latency():
    switch = scaled_switch_config(scale=1000.0)
    assert switch.capacity_pps == pytest.approx(4e6)
    assert switch.pipeline_delay == TOFINO.processing_delay
    host = scaled_dpdk_host_config(scale=1000.0)
    assert host.nic_pps == pytest.approx(20.5e3)
    assert host.stack_delay == DPDK_CLIENT.processing_delay
    kernel = scaled_kernel_host_config(scale=10.0)
    assert kernel.stack_delay > host.stack_delay


def test_scaled_config_overrides():
    config = scaled_switch_config(scale=100.0, ingress_queue_packets=4)
    assert config.ingress_queue_packets == 4


def test_spine_leaf_model_reads_cheaper_than_writes():
    model = SpineLeafModel(num_spines=4, num_leaves=8, seed=1)
    read_passes = model.average_passes(write=False, samples=500)
    write_passes = model.average_passes(write=True, samples=500)
    assert write_passes > read_passes
    assert model.max_throughput_qps(write=False, samples=500) > \
        model.max_throughput_qps(write=True, samples=500)


def test_spine_leaf_model_rejects_empty_fabric():
    with pytest.raises(ValueError):
        SpineLeafModel(num_spines=0, num_leaves=4)


def test_passes_for_query_counts_transit_hops():
    model = SpineLeafModel(num_spines=2, num_leaves=4, seed=0)
    # Reading from the client's own ToR: out and back through just that leaf.
    assert model.passes_for_query("leaf0", ["leaf0"]) == 1
    # Reading from another leaf: leaf0 -> spine -> leaf1 -> spine -> leaf0.
    assert model.passes_for_query("leaf0", ["leaf1"]) == 5


def test_scalability_sweep_matches_figure_9f_shape():
    points = scalability_sweep(sizes=[(2, 4), (8, 16), (16, 32), (32, 64)],
                               samples=800, seed=0)
    assert [p.num_switches for p in points] == [6, 24, 48, 96]
    reads = [p.read_bqps for p in points]
    writes = [p.write_bqps for p in points]
    # Both series grow monotonically with fabric size (linear scaling).
    assert all(b > a for a, b in zip(reads, reads[1:], strict=False))
    assert all(b > a for a, b in zip(writes, writes[1:], strict=False))
    # Reads outpace writes at every size.
    assert all(r > w for r, w in zip(reads, writes, strict=True))
    # Roughly linear growth: the largest fabric is ~16x the smallest in size
    # and its throughput should grow by a comparable factor.
    assert reads[-1] / reads[0] > 8
    # Absolute magnitude in the same regime as the paper (tens of BQPS).
    assert 20 < reads[-1] < 200
    assert 10 < writes[-1] < 100
