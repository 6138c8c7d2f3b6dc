"""Unit tests for topology builders and the underlay routing protocol."""

from __future__ import annotations

import pytest

from repro.netsim.host import Host
from repro.netsim.packet import Packet
from repro.netsim.routing import (
    NoPathError,
    hop_count,
    install_shortest_path_routes,
    path_between,
    reroute_around_failures,
    switch_hops_on_path,
)
from repro.netsim.switch import Switch
from repro.netsim.topology import Topology, build_line, build_spine_leaf, build_testbed


def test_testbed_matches_figure_8():
    topo = build_testbed()
    assert set(topo.switches) == {"S0", "S1", "S2", "S3"}
    assert set(topo.hosts) == {"H0", "H1", "H2", "H3"}
    # Ring S0-S1-S2-S3-S0.
    assert "S1" in topo.adjacency["S0"]
    assert "S2" in topo.adjacency["S1"]
    assert "S3" in topo.adjacency["S2"]
    assert "S0" in topo.adjacency["S3"]
    assert "S2" not in topo.adjacency["S0"]
    # Hosts attach to S0.
    for host in topo.hosts:
        assert topo.adjacency[host] == ["S0"]


def test_spine_leaf_connectivity():
    topo = build_spine_leaf(num_spines=2, num_leaves=4, hosts_per_leaf=2)
    assert len(topo.switches) == 6
    assert len(topo.hosts) == 8
    for leaf in range(4):
        for spine in range(2):
            assert f"spine{spine}" in topo.adjacency[f"leaf{leaf}"]
            assert f"leaf{leaf}" in topo.adjacency[f"spine{spine}"]
    # No leaf-leaf or spine-spine links.
    assert "leaf1" not in topo.adjacency["leaf0"]
    assert "spine1" not in topo.adjacency["spine0"]


def test_line_topology_with_hosts():
    topo = build_line(3, hosts_at={0: 1, 2: 2})
    assert len(topo.switches) == 3
    assert len(topo.hosts) == 3
    assert hop_count(topo, "S0", "S2") == 2


def test_unique_ips_and_lookup():
    topo = build_testbed()
    ips = [node.ip for node in topo.all_nodes()]
    assert len(ips) == len(set(ips))
    for node in topo.all_nodes():
        assert topo.node_by_ip(node.ip) is node
    assert topo.node_by_ip("1.2.3.4") is None


def test_duplicate_node_names_rejected():
    topo = Topology()
    topo.add_switch("X")
    with pytest.raises(ValueError):
        topo.add_switch("X")
    with pytest.raises(ValueError):
        topo.add_host("X")


def test_node_lookup_by_name():
    topo = build_testbed()
    assert isinstance(topo.node("S0"), Switch)
    assert isinstance(topo.node("H0"), Host)
    with pytest.raises(KeyError):
        topo.node("nope")


def test_link_between():
    topo = build_testbed()
    assert topo.link_between(topo.node("S0"), topo.node("S1")) is not None
    assert topo.link_between(topo.node("S0"), topo.node("S2")) is None


def test_set_loss_rate_targets_switches():
    topo = build_testbed()
    topo.set_loss_rate(0.1)
    assert all(sw.injected_loss_rate == 0.1 for sw in topo.switches.values())
    topo.set_loss_rate(0.5, switches=["S1"])
    assert topo.switches["S1"].injected_loss_rate == 0.5
    assert topo.switches["S0"].injected_loss_rate == 0.1


def test_shortest_path_routes_deliver_end_to_end():
    topo = build_testbed()
    install_shortest_path_routes(topo)
    h0, h1 = topo.hosts["H0"], topo.hosts["H1"]
    received = []
    h1.default_handler = received.append
    packet = Packet()
    packet.ip.src_ip = h0.ip
    packet.ip.dst_ip = h1.ip
    h0.send(packet)
    topo.run(until=1.0)
    assert len(received) == 1


def test_routes_cover_all_destinations():
    topo = build_testbed()
    install_shortest_path_routes(topo)
    s2 = topo.switches["S2"]
    # S2 must know how to reach every other node.
    for node in topo.all_nodes():
        if node is s2:
            continue
        assert node.ip in s2.forwarding_table


def test_path_and_hop_helpers():
    topo = build_testbed()
    assert path_between(topo, "H0", "S2") in (["H0", "S0", "S1", "S2"],
                                              ["H0", "S0", "S3", "S2"])
    assert hop_count(topo, "H0", "S0") == 1
    assert switch_hops_on_path(topo, "H0", "S2")[0] == "S0"


def test_reroute_around_failed_switch():
    topo = build_testbed()
    install_shortest_path_routes(topo)
    s0 = topo.switches["S0"]
    s2 = topo.switches["S2"]
    # With all switches alive the S0 -> S2 route may go via S1.
    reroute_around_failures(topo, ["S1"])
    next_hop_port = s0.forwarding_table[s2.ip]
    assert next_hop_port.peer().node.name == "S3"
    # Routes *toward* the failed switch are preserved so neighbours can
    # intercept (Algorithm 2 relies on this).
    s1_ip = topo.switches["S1"].ip
    assert s1_ip in s0.forwarding_table


def test_excluded_path_raises_when_disconnected():
    topo = build_line(3)
    install_shortest_path_routes(topo)
    with pytest.raises(NoPathError):
        path_between(topo, "S0", "S2", exclude=["S1"])


def test_path_to_or_from_an_unknown_node_raises():
    topo = build_line(3)
    for src, dst in (("S0", "nope"), ("nope", "S0"), ("nope", "nope")):
        with pytest.raises(NoPathError):
            path_between(topo, src, dst)


def test_second_link_between_a_pair_adds_a_link_but_no_adjacency_entry():
    topo = build_line(2)
    s0, s1 = topo.switches["S0"], topo.switches["S1"]
    topo.add_link(s1, s0)
    assert len(topo.links) == 2
    assert topo.adjacency == {"S0": ["S1"], "S1": ["S0"]}
    install_shortest_path_routes(topo)
    # The route keeps the first link's port, as ``port_to`` finds it.
    assert s0.forwarding_table[s1.ip] is s0.ports[0]
    assert hop_count(topo, "S0", "S1") == 1
