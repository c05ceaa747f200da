"""Simulator substrate: DES kernel, frames, channel, radios, networks."""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.channel import Channel, ChannelStats, Transmission
from repro.sim.radio import Radio


def __getattr__(name):
    # Lazy: repro.sim.network pulls in the MAC layer, which itself imports
    # repro.sim.kernel -- importing it eagerly here would be circular.
    if name == "Network":
        from repro.sim.network import Network

        return Network
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Frame",
    "FrameType",
    "GROUP_ADDR",
    "Channel",
    "ChannelStats",
    "Transmission",
    "Radio",
    "Network",
]
