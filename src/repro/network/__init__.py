"""Interconnect models: torus/shuffle/switch topologies, links with
per-class virtual channels, EV7-style adaptive routers, and whole-machine
fabrics.

Each name is imported on first access, so importing one submodule (the
tracer needs only :mod:`~repro.network.packet`) does not pull in the
fabric, the routers or the simulator."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.network.fabric import FabricBase, SwitchFabric, TorusFabric
    from repro.network.link import DRAIN_ORDER, Link
    from repro.network.packet import PACKET_BYTES, MessageClass, Packet
    from repro.network.router import Router, RoutingPolicy
    from repro.network.topology import (
        ShuffleTopology,
        SwitchTopology,
        Topology,
        TorusTopology,
        build_gs1280_topology,
    )

__all__ = [
    "DRAIN_ORDER",
    "FabricBase",
    "Link",
    "MessageClass",
    "PACKET_BYTES",
    "Packet",
    "Router",
    "RoutingPolicy",
    "ShuffleTopology",
    "SwitchFabric",
    "SwitchTopology",
    "Topology",
    "TorusFabric",
    "TorusTopology",
    "build_gs1280_topology",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.fabric": ("FabricBase", "SwitchFabric", "TorusFabric"),
    "repro.network.link": ("DRAIN_ORDER", "Link"),
    "repro.network.packet": ("PACKET_BYTES", "MessageClass", "Packet"),
    "repro.network.router": ("Router", "RoutingPolicy"),
    "repro.network.topology": ("ShuffleTopology", "SwitchTopology",
                               "Topology", "TorusTopology",
                               "build_gs1280_topology"),
})
