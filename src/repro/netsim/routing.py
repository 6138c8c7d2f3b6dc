"""Underlay L3 routing: shortest-path forwarding tables.

NetChain's chain routing rides on top of whatever underlay routing the
datacenter already runs (Section 4.2): each switch simply forwards on the
destination IP, and the NetChain program rewrites the destination IP to the
next chain hop.  This module plays the role of that underlay routing
protocol: it computes hop-count shortest paths over the physical topology
(:attr:`Topology.adjacency`, one breadth-first search per destination) and
installs ``dest-IP -> egress port`` entries in every switch.

It also provides :func:`reroute_around_failures`, the "fast rerouting upon
failures" property of existing routing protocols the paper leans on: after a
switch failure the underlay recomputes paths that avoid the failed device.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Dict, Iterable, List, Optional

from repro.netsim.link import give_back
from repro.netsim.topology import Topology

Graph = Dict[str, List[str]]  # node name -> neighbour names


class NoPathError(ValueError):
    """No path joins the two nodes, or one of them is not in the graph."""


def _without(graph: Graph, excluded: Container[str]) -> Graph:
    return {name: [n for n in neighbours if n not in excluded]
            for name, neighbours in graph.items() if name not in excluded}


def hops_from(graph: Graph, node: str) -> Dict[str, int]:
    """Hop count from ``node`` to every node it reaches, itself included."""
    hops = {node: 0}
    frontier = deque([node])
    while frontier:
        current = frontier.popleft()
        for neighbour in graph[current]:
            if neighbour not in hops:
                hops[neighbour] = hops[current] + 1
                frontier.append(neighbour)
    return hops


def _next_hop(graph: Graph, hops: Dict[str, int], node: str) -> str:
    """The lexicographically smallest neighbour of ``node`` one hop closer to
    the root of ``hops``: equal-cost ties break the same way on every run."""
    closer = hops[node] - 1
    return min(n for n in graph[node] if hops.get(n) == closer)


def install_shortest_path_routes(topology: Topology,
                                 exclude: Optional[Iterable[str]] = None) -> None:
    """Install dest-IP forwarding entries on every switch.

    Args:
        topology: the network.
        exclude: node names (typically failed switches) to route around;
            their own tables are left as they are.
    """
    excluded = set(exclude or ())
    full = topology.adjacency
    live = _without(full, excluded)
    routed = [switch for name, switch in topology.switches.items()
              if name not in excluded]
    for switch in routed:
        switch.forwarding_table.clear()
    # A carried segment's pass skipped so far looks its route up again, at its pass.
    give_back(topology.sim, *(switch.forwarding_table for switch in routed))
    # Routes *toward* an excluded (failed) node are kept, on the full graph:
    # NetChain's failover relies on packets still flowing toward the failed
    # switch until one of its neighbours intercepts them with a redirect
    # rule (Algorithm 2).
    for graph, destinations in ((live, live),
                                (full, sorted(excluded.intersection(full)))):
        for dst_name in destinations:
            hops = hops_from(graph, dst_name)
            dst_ip = topology.node(dst_name).ip
            for switch in routed:
                if hops.get(switch.name, 0) > 0:
                    next_hop = topology.node(_next_hop(graph, hops, switch.name))
                    switch.forwarding_table[dst_ip] = switch.port_to(next_hop)


def reroute_around_failures(topology: Topology, failed: Iterable[str]) -> None:
    """Recompute underlay routes avoiding the given failed nodes."""
    install_shortest_path_routes(topology, exclude=failed)


def path_between(topology: Topology, src: str, dst: str,
                 exclude: Optional[Iterable[str]] = None) -> List[str]:
    """Shortest physical path between two nodes (node names, inclusive),
    along the next hops :func:`install_shortest_path_routes` installs."""
    graph = _without(topology.adjacency, set(exclude or ()))
    hops = hops_from(graph, dst) if dst in graph else {}
    if src not in hops:
        raise NoPathError(f"no path between {src!r} and {dst!r}")
    path = [src]
    while path[-1] != dst:
        path.append(_next_hop(graph, hops, path[-1]))
    return path


def hop_count(topology: Topology, src: str, dst: str) -> int:
    """Number of links on the shortest path between two nodes."""
    return len(path_between(topology, src, dst)) - 1


def switch_hops_on_path(topology: Topology, src: str, dst: str) -> List[str]:
    """Switch names traversed between ``src`` and ``dst`` (exclusive of hosts)."""
    return [name for name in path_between(topology, src, dst)
            if name in topology.switches]
