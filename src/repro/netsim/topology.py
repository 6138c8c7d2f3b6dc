"""Topology builders: the 4-switch testbed (Figure 8) and spine-leaf fabrics.

A :class:`Topology` bundles a simulator, its switches, hosts and links, and
keeps the adjacency of the physical connectivity that the underlay routing
(:mod:`repro.netsim.routing`) uses to compute shortest paths.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from repro.netsim.engine import Simulator
from repro.netsim.host import Host, HostConfig, dpdk_host_config
from repro.netsim.link import Link, LinkConfig, connect
from repro.netsim.node import Node
from repro.netsim.switch import Switch, SwitchConfig


class Topology:
    """A simulated network: switches, hosts, links and their adjacency."""

    def __init__(self, sim: Optional[Simulator] = None, seed: int = 0) -> None:
        self.sim = sim or Simulator()
        self.rng = random.Random(seed)
        self.switches: Dict[str, Switch] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        #: Node name -> names of the nodes it has a link to, in insertion order.
        self.adjacency: Dict[str, List[str]] = {}
        self._next_switch_ip = 1
        self._next_host_ip = 1

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #

    def add_switch(self, name: str, config: Optional[SwitchConfig] = None,
                   ip: Optional[str] = None) -> Switch:
        """Create a switch; IPs default to ``10.0.0.x``."""
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        if ip is None:
            ip = f"10.0.0.{self._next_switch_ip}"
            self._next_switch_ip += 1
        switch = Switch(self.sim, name, ip, config=config,
                        rng=random.Random(self.rng.randrange(1 << 30)))
        self.switches[name] = switch
        self.adjacency[name] = []
        return switch

    def add_host(self, name: str, config: Optional[HostConfig] = None,
                 ip: Optional[str] = None) -> Host:
        """Create a host; IPs default to ``10.1.0.x``."""
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        if ip is None:
            third = self._next_host_ip // 250
            fourth = self._next_host_ip % 250 + 1
            ip = f"10.1.{third}.{fourth}"
            self._next_host_ip += 1
        host = Host(self.sim, name, ip, config=config,
                    rng=random.Random(self.rng.randrange(1 << 30)))
        self.hosts[name] = host
        self.adjacency[name] = []
        return host

    def add_link(self, a: Node, b: Node, config: Optional[LinkConfig] = None) -> Link:
        """Wire two nodes together (a second link adds no second adjacency)."""
        link = connect(self.sim, a, b, config=config,
                       rng=random.Random(self.rng.randrange(1 << 30)))
        self.links.append(link)
        if b.name not in self.adjacency[a.name]:
            self.adjacency[a.name].append(b.name)
            self.adjacency[b.name].append(a.name)
        return link

    def attach_switch(self, name: str, neighbors: Iterable[str],
                      switch_config: Optional[SwitchConfig] = None,
                      link_config: Optional[LinkConfig] = None) -> Switch:
        """Hot-plug a switch into a (possibly running) simulation: create
        the device and wire it to existing nodes in one call.

        The caller still owns routing (recompute shortest paths) and any
        control-plane onboarding; this only performs the physical bring-up.
        """
        switch = self.add_switch(name, config=switch_config)
        for neighbor in neighbors:
            self.add_link(switch, self.node(neighbor), config=link_config)
        return switch

    # ------------------------------------------------------------------ #
    # Lookup helpers.
    # ------------------------------------------------------------------ #

    def node(self, name: str) -> Node:
        """Node (switch or host) by name."""
        if name in self.switches:
            return self.switches[name]
        if name in self.hosts:
            return self.hosts[name]
        raise KeyError(name)

    def all_nodes(self) -> List[Node]:
        """Every switch and host."""
        return list(self.switches.values()) + list(self.hosts.values())

    def node_by_ip(self, ip: str) -> Optional[Node]:
        """Node whose interface address is ``ip``."""
        for node in self.all_nodes():
            if node.ip == ip:
                return node
        return None

    def link_between(self, a: Node, b: Node) -> Optional[Link]:
        """The physical link joining two nodes, if they are adjacent."""
        for link in self.links:
            if link.connects(a, b):
                return link
        return None

    def set_loss_rate(self, loss_rate: float, switches: Optional[Iterable[str]] = None) -> None:
        """Inject a per-switch random loss rate (Figure 9(d) methodology)."""
        targets = self.switches.values() if switches is None else [
            self.switches[name] for name in switches]
        for switch in targets:
            switch.injected_loss_rate = loss_rate

    def run(self, until: float) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)


# ---------------------------------------------------------------------- #
# Builders.
# ---------------------------------------------------------------------- #

def build_testbed(switch_config: Optional[SwitchConfig] = None,
                  host_config: Optional[HostConfig] = None,
                  link_config: Optional[LinkConfig] = None,
                  num_hosts: int = 4,
                  seed: int = 0) -> Topology:
    """The paper's evaluation testbed (Figure 8).

    Four switches S0..S3 arranged in a ring (S0-S1-S2-S3-S0), with the
    client/server machines attached to S0.  This reproduces the evaluated
    paths: the chain ``[S0, S1, S2]`` makes a query from H0 traverse
    ``H0-S0-S1-S2-S1-S0-H0`` (each switch processes the packet twice), and
    S3 provides the alternate path ``S0-S3-S2`` used for read queries in the
    failure-handling experiment (Section 8.4).
    """
    topo = Topology(seed=seed)
    host_config = host_config or dpdk_host_config()
    switches = [topo.add_switch(f"S{i}", config=switch_config) for i in range(4)]
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        topo.add_link(switches[a], switches[b], config=link_config)
    for i in range(num_hosts):
        host = topo.add_host(f"H{i}", config=host_config)
        topo.add_link(host, switches[0], config=link_config)
    return topo


def build_spine_leaf(num_spines: int, num_leaves: int,
                     hosts_per_leaf: int = 0,
                     switch_config: Optional[SwitchConfig] = None,
                     host_config: Optional[HostConfig] = None,
                     link_config: Optional[LinkConfig] = None,
                     seed: int = 0) -> Topology:
    """A two-layer spine-leaf fabric (Section 8.3).

    Every leaf connects to every spine.  The paper assumes 64-port switches,
    32 servers per leaf, and a non-blocking fabric (spines = leaves / 2); the
    builder does not enforce those ratios so tests can use small instances.
    """
    topo = Topology(seed=seed)
    spines = [topo.add_switch(f"spine{i}", config=switch_config) for i in range(num_spines)]
    leaves = [topo.add_switch(f"leaf{i}", config=switch_config) for i in range(num_leaves)]
    for leaf in leaves:
        for spine in spines:
            topo.add_link(leaf, spine, config=link_config)
    for li, leaf in enumerate(leaves):
        for h in range(hosts_per_leaf):
            host = topo.add_host(f"h{li}_{h}", config=host_config)
            topo.add_link(host, leaf, config=link_config)
    return topo


def build_line(num_switches: int,
               hosts_at: Optional[Dict[int, int]] = None,
               switch_config: Optional[SwitchConfig] = None,
               host_config: Optional[HostConfig] = None,
               link_config: Optional[LinkConfig] = None,
               seed: int = 0) -> Topology:
    """A simple line of switches, useful for unit tests.

    ``hosts_at`` maps switch index -> number of hosts attached there.
    """
    topo = Topology(seed=seed)
    switches = [topo.add_switch(f"S{i}", config=switch_config) for i in range(num_switches)]
    for i in range(num_switches - 1):
        topo.add_link(switches[i], switches[i + 1], config=link_config)
    for index, count in (hosts_at or {}).items():
        for h in range(count):
            host = topo.add_host(f"H{index}_{h}", config=host_config)
            topo.add_link(host, switches[index], config=link_config)
    return topo
