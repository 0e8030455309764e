"""Shared fixtures: small deterministic networks used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Point
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.perf.parallel import retire_pool


@pytest.fixture(autouse=True)
def _fresh_worker_pool():
    """Retire the shared worker pool after every test.

    Pool workers are forked once and reused, so without this a test's
    monkeypatches or ``sys.path`` would live on in a later test's workers.
    """
    yield
    retire_pool()


def make_line_network(node_count: int, spacing: float, radio_range: float = 150.0):
    """Nodes along the x axis: node i at (i * spacing, 0)."""
    points = [Point(i * spacing, 0.0) for i in range(node_count)]
    return build_network(points, RadioConfig(radio_range_m=radio_range))


def make_grid_network(side: int, spacing: float, radio_range: float = 150.0):
    """A side x side grid with the given spacing, node 0 at the origin."""
    points = [
        Point(col * spacing, row * spacing)
        for row in range(side)
        for col in range(side)
    ]
    return build_network(points, RadioConfig(radio_range_m=radio_range))


@pytest.fixture(scope="session")
def dense_network():
    """A connected, moderately dense random deployment (shared, read-only)."""
    rng = np.random.default_rng(20060704)
    points = uniform_random_topology(300, 800.0, 800.0, rng)
    network = build_network(points, RadioConfig(radio_range_m=150.0))
    assert network.is_connected()
    return network


@pytest.fixture(scope="session")
def grid_network():
    """A 10x10 grid with 100 m spacing (radio range 150 m, so 8-connected)."""
    return make_grid_network(10, 100.0)


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(7)

