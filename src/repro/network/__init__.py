"""Wireless sensor network substrate.

Implements the paper's network model (Section 2): nodes with known 2-D
coordinates acting as their own addresses, a disc radio model with the
Table-1 parameters, unit-disk connectivity with O(1) spatial range queries,
local Gabriel/RNG planarization for perimeter routing, and the energy model
of Section 5.3 (transmit power for senders plus receive power for every
listener inside the sender's radio range).
"""

from repro.network.radio import RadioConfig
from repro.network.node import SensorNode
from repro.network.topology import (
    clustered_topology,
    grid_topology,
    topology_with_voids,
    uniform_random_topology,
)
from repro.network.graph import (
    CSRAdjacency,
    SpatialGrid,
    WeightedAdjacency,
    WirelessNetwork,
    build_network,
)
from repro.network.planar import gabriel_neighbors, rng_neighbors
from repro.network.energy import EnergyMeter, EnergyModel
from repro.network.mobility import RandomWaypointMobility

__all__ = [
    "RadioConfig",
    "SensorNode",
    "uniform_random_topology",
    "grid_topology",
    "clustered_topology",
    "topology_with_voids",
    "CSRAdjacency",
    "SpatialGrid",
    "WeightedAdjacency",
    "WirelessNetwork",
    "build_network",
    "gabriel_neighbors",
    "rng_neighbors",
    "EnergyModel",
    "EnergyMeter",
    "RandomWaypointMobility",
]
