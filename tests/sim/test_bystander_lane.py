"""The bystander lane against full dispatch.

For a frame that names a station neither in its RA field nor in its
group, the channel hands the frame and its exchange owner straight to
the MAC's yield rule (``MacBase._yield_for_duration``), or skips it when
its Duration is zero, instead of going through
``Radio._deliver`` -> ``MacBase._on_frame``.  A no-op extra listener on
every radio switches the lane off everywhere, which forces the full
dispatch of every frame.  The two runs must agree on everything
observable: metrics, counters, DATA receipts, final NAV state and the
observability event stream.
"""

import contextlib
from dataclasses import asdict
from unittest import mock

from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.core.bmmm import BmmmMac
from repro.experiments.config import SimulationSettings
from repro.experiments.runner import build_network
from repro.faults import FaultPlan, NodeChurn
from repro.mac.registry import protocol_info, registered_protocols
from repro.metrics.aggregate import summarize_run
from repro.sim.channel import Channel
from repro.workload.generator import TrafficGenerator
from repro.workload.mobility import RandomWaypointMobility

from tests.faults.conftest import canon


def _ignore(frame, clean):
    pass


class _Renumber:
    """Maps process-global ids (``msg_id``, frame ``uid``) to their order
    of first appearance, so two runs in one process compare equal."""

    def __init__(self):
        self.ids: dict[tuple[str, int], int] = {}

    def __call__(self, kind: str, value):
        if value is None:
            return None
        return self.ids.setdefault((kind, value), len(self.ids))


def simulate(
    name: str,
    settings: SimulationSettings,
    seed: int,
    full_dispatch: bool = False,
    channel_cls: type = Channel,
    mobility_speed: float = 0.0,
):
    """One run, summarised for comparison.  *channel_cls* replaces the
    network's channel class; a non-zero *mobility_speed* moves the nodes
    (random waypoint, every 3 slots)."""
    info = protocol_info(name)
    with mock.patch("repro.sim.network.Channel", channel_cls):
        net = build_network(info.cls, settings, seed, dict(info.mac_kwargs))
    assert type(net.channel) is channel_cls
    radios = net.channel.radios.values()
    if full_dispatch:
        for radio in radios:
            radio.add_listener(_ignore)
    assert all((r.bystander is None) == full_dispatch for r in radios)
    events = []
    net.env.obs.subscribe(events.append)
    requests = TrafficGenerator(
        settings.n_nodes,
        net.propagation.neighbors,
        horizon=settings.horizon,
        message_rate=settings.message_rate,
        mix=settings.mix,
        seed=seed,
    ).inject(net)
    mobility = None
    if mobility_speed:
        mobility = RandomWaypointMobility(net, speed=mobility_speed, epoch=3, side=settings.side)
    net.run(until=settings.horizon)

    renumber = _Renumber()
    stream = []
    for ev in events:
        data = dict(ev.data)
        for key in ("msg_id", "uid"):
            if key in data:
                data[key] = renumber(key, data[key])
        stream.append((ev.etype, ev.time, ev.node, sorted(data.items())))
    stats = asdict(net.channel.stats)
    for key in ("data_receipts", "clean_data_receipts"):
        stats[key] = {renumber("msg_id", m): sorted(r) for m, r in stats[key].items()}
    counters = net.channel.counters
    return {
        "metrics": canon(summarize_run(requests, net.channel.stats, settings.threshold)),
        "counters": (counters.total, counters.per_node),
        "stats": stats,
        "nav": [(mac.nav.until, mac.nav.owner) for mac in net.macs],
        "events": stream,
        "moves": None if mobility is None else mobility.updates,
    }


churn_plans = st.one_of(
    st.just(FaultPlan()),
    st.builds(
        lambda rate, down: FaultPlan(churn=NodeChurn(crash_rate=rate, mean_downtime=down)),
        st.sampled_from([0.0005, 0.002, 0.005]),
        st.sampled_from([20.0, 80.0]),
    ),
)


@contextlib.contextmanager
def reception_paths():
    """Record the transmissions the rival-free loop serves (``loop``) and
    those served per receiver through ``_receive_at`` (``per_receiver``,
    once per transmission)."""
    loop, per_receiver = [], []
    deliver_clean, receive_at = Channel._deliver_clean, Channel._receive_at

    def clean(self, tx):
        loop.append(tx)
        deliver_clean(self, tx)

    def each(self, radio, tx):
        if not per_receiver or per_receiver[-1] is not tx:
            per_receiver.append(tx)
        receive_at(self, radio, tx)

    with mock.patch.object(Channel, "_deliver_clean", clean), mock.patch.object(
        Channel, "_receive_at", each
    ):
        yield loop, per_receiver


def test_lane_equals_full_dispatch():
    """The property below, with the frames the rival-free loop served
    counted over all drawn examples: the lane is exercised on both
    reception paths."""
    with reception_paths() as (loop, _):
        lane_property()
    assert loop


@hsettings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(registered_protocols()),
    n_nodes=st.integers(6, 30),
    side=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([0.002, 0.005, 0.01]),
    capture=st.booleans(),
    fer=st.sampled_from([0.0, 0.05, 0.2]),
    interference=st.sampled_from([1.0, 1.3, 2.0]),
    faults=churn_plans,
)
def lane_property(
    name, n_nodes, side, seed, rate, capture, fer, interference, faults
):
    settings = SimulationSettings(
        n_nodes=n_nodes,
        side=side,
        horizon=500,
        message_rate=rate,
        capture=capture,
        frame_error_rate=fer,
        interference_factor=interference,
        faults=faults,
    )
    lane = simulate(name, settings, seed, full_dispatch=False)
    full = simulate(name, settings, seed, full_dispatch=True)
    for key in lane:
        assert lane[key] == full[key], key


class _Recording(BmmmMac):
    """A MAC that reimplements ``_on_frame`` (here: only to record)."""

    def __init__(self, *args, **kwargs):
        self.heard = []
        super().__init__(*args, **kwargs)

    def _on_frame(self, frame, clean):
        self.heard.append(frame)
        super()._on_frame(frame, clean)


def test_overriding_on_frame_sees_every_bystander_frame():
    settings = SimulationSettings(n_nodes=25, side=0.5, horizon=600, message_rate=0.005)
    net = build_network(_Recording, settings, seed=3)
    assert all(r.bystander is None for r in net.channel.radios.values())
    TrafficGenerator(
        settings.n_nodes,
        net.propagation.neighbors,
        horizon=settings.horizon,
        message_rate=settings.message_rate,
        mix=settings.mix,
        seed=3,
    ).inject(net)
    net.run(until=settings.horizon)
    per_node = net.channel.counters.per_node
    bystander_frames = 0
    for mac in net.macs:
        delivered = sum(
            n for key, n in per_node[mac.node_id].items() if key.startswith("frames_delivered.")
        )
        assert len(mac.heard) == delivered
        bystander_frames += sum(
            f.ra != mac.node_id and mac.node_id not in f.group for f in mac.heard
        )
    assert bystander_frames > 0
