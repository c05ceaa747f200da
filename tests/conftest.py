"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from repro.mac.base import MessageKind
from repro.obs.trace import TraceRecorder, transmissions_from_trace
from repro.sim.network import Network


def star_positions(n_receivers: int, radius: float = 0.05, center=(0.5, 0.5)) -> np.ndarray:
    """A sender at *center* with receivers on a circle of *radius* around
    it, at slightly staggered distances so received powers are distinct
    (capture comparisons need a strict ordering)."""
    cx, cy = center
    pts = [[cx, cy]]
    for i in range(n_receivers):
        ang = 2 * np.pi * i / max(n_receivers, 1)
        r = radius * (1.0 + 0.15 * i / max(n_receivers, 1))
        pts.append([cx + r * np.cos(ang), cy + r * np.sin(ang)])
    return np.array(pts)


def chain_positions(n: int, spacing: float) -> np.ndarray:
    """n nodes on a horizontal line with the given spacing (hidden-terminal
    topologies: with spacing just under the radius, only adjacent nodes
    hear each other)."""
    return np.array([[0.1 + i * spacing, 0.5] for i in range(n)])


def make_star(mac_cls, n_receivers=4, seed=1, **net_kwargs) -> Network:
    return Network(star_positions(n_receivers), 0.2, mac_cls, seed=seed, **net_kwargs)


def run_one_broadcast(mac_cls, n_receivers=4, seed=1, until=500, **net_kwargs):
    """Single broadcast on a clean star; returns (network, request)."""
    net = make_star(mac_cls, n_receivers, seed, **net_kwargs)
    req = net.mac(0).submit(MessageKind.BROADCAST)
    net.run(until=until)
    return net, req


def air_log(env):
    """Record the frames put on the air in *env* from now on.

    Subscribes a :class:`TraceRecorder` to the environment's ``frame_tx``
    events and returns a function that replays those recorded so far as
    channel ``Transmission`` objects, in transmit order.
    """
    recorder = env.obs.subscribe(TraceRecorder(), types=("frame_tx",))
    return lambda: transmissions_from_trace(recorder.events)


@pytest.fixture
def star4():
    return star_positions(4)
