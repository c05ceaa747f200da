"""The settings codec: one lowering, one inverse, one value rule.

Equal values must be one value whatever their spelling (``100``,
``100.0``, ``np.int64(100)``), so they share one store address, and the
untagged JSON form must rebuild the exact settings it came from.
"""

import json
import typing
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.experiments.config import SimulationSettings
from repro.faults.plan import FaultPlan, GilbertElliott, NodeChurn
from repro.mac.base import MacConfig
from repro.mac.contention import ContentionParams
from repro.obs.codec import build, lower
from repro.obs.manifest import settings_to_dict
from repro.phy.profile import PhyProfile
from repro.store.digests import canonical_payload, settings_digest
from repro.store.gate import settings_from_dict
from repro.workload.generator import TrafficMix

from tests.store.test_digests import DEFAULT_SETTINGS_DIGEST


def _numeric_leaves(cls, prefix=""):
    """Dotted paths of every int/float (or tuple of them) field under *cls*,
    nested and optional dataclasses included."""
    out = set()
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        hint = hints[f.name]
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if typing.get_origin(hint) is not tuple and len(args) == 1:
            hint = args[0]  # X | None
        if is_dataclass(hint):
            out |= _numeric_leaves(hint, f"{prefix}{f.name}.")
        elif hint in (int, float) or typing.get_origin(hint) is tuple:
            out.add(prefix + f.name)
    return out


def _settings(v, whole, real):
    """Settings from the leaf values *v*: int fields spelled by *whole*,
    float fields by *real*."""
    return SimulationSettings(
        n_nodes=whole(v["n_nodes"]),
        side=real(v["side"]),
        radius=real(v["radius"]),
        horizon=whole(v["horizon"]),
        timeout_slots=real(v["timeout_slots"]),
        message_rate=real(v["message_rate"]),
        mix=TrafficMix(*(real(x) for x in v["mix"])),
        threshold=real(v["threshold"]),
        frame_error_rate=real(v["frame_error_rate"]),
        interference_factor=real(v["interference_factor"]),
        contention=ContentionParams(*(whole(x) for x in v["contention"])),
        faults=FaultPlan(
            burst=GilbertElliott(*(real(x) for x in v["burst"])),
            churn=NodeChurn(*(real(x) for x in v["churn"])),
            location_sigma=real(v["location_sigma"]),
            receiver_give_up=whole(v["receiver_give_up"]),
        ),
        phy=PhyProfile(
            signal_slots=whole(v["signal_slots"]),
            data_slots=[whole(x) for x in v["data_slots"]],
            range_fractions=[real(1) for _ in v["data_slots"]],
        ),
    )


#: What :func:`_settings` draws, as dotted field paths.
_DRAWN = {
    "n_nodes", "side", "radius", "horizon", "timeout_slots", "message_rate",
    "mix.unicast", "mix.multicast", "mix.broadcast", "threshold",
    "frame_error_rate", "interference_factor",
    "contention.difs_slots", "contention.cw_min", "contention.cw_max",
    "faults.burst.p_good_bad", "faults.burst.p_bad_good",
    "faults.burst.loss_good", "faults.burst.loss_bad",
    "faults.churn.crash_rate", "faults.churn.mean_downtime",
    "faults.location_sigma", "faults.receiver_give_up",
    "phy.signal_slots", "phy.data_slots", "phy.range_fractions",
}

_unit = st.sampled_from([0, 1])


@st.composite
def _leaf_values(draw):
    """Whole values valid for every numeric field, so each has an int, a
    float and a numpy spelling."""
    cw_min = draw(st.integers(1, 64))
    return {
        "n_nodes": draw(st.integers(1, 300)),
        "side": draw(st.integers(1, 4)),
        "radius": draw(st.integers(1, 2)),
        "horizon": draw(st.integers(0, 20_000)),
        "timeout_slots": draw(st.integers(0, 1_000)),
        "message_rate": draw(_unit),
        "mix": draw(st.permutations([1, 0, 0])),
        "threshold": draw(_unit),
        "frame_error_rate": draw(_unit),
        "interference_factor": draw(st.integers(1, 4)),
        "contention": (draw(st.integers(1, 4)), cw_min, cw_min + draw(st.integers(0, 960))),
        "burst": draw(st.tuples(_unit, _unit, _unit, _unit)),
        "churn": (draw(st.integers(0, 3)), draw(st.integers(1, 500))),
        "location_sigma": draw(st.integers(0, 2)),
        "receiver_give_up": draw(st.integers(0, 9)),
        "signal_slots": draw(st.integers(1, 3)),
        "data_slots": sorted(
            draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)), reverse=True
        ),
    }


_WHOLE = [int, np.int64, np.int32]
_REAL = [int, float, np.int64, np.float64]


class TestOneAddressPerValue:
    def test_every_numeric_field_is_drawn(self):
        assert _numeric_leaves(SimulationSettings) == _DRAWN

    @hsettings(max_examples=60, deadline=None)
    @given(
        v=_leaf_values(),
        whole=st.sampled_from(_WHOLE),
        real=st.sampled_from(_REAL),
    )
    def test_spellings_share_the_digest_and_round_trip(self, v, whole, real):
        reference = _settings(v, int, float)
        spelled = _settings(v, whole, real)
        assert spelled == reference
        assert settings_digest(spelled) == settings_digest(reference)
        again = settings_from_dict(json.loads(json.dumps(settings_to_dict(spelled))))
        assert again == spelled
        assert settings_digest(again) == settings_digest(spelled)
        assert build(SimulationSettings, canonical_payload(spelled)) == spelled

    @pytest.mark.parametrize(
        "spelled",
        [
            SimulationSettings(timeout_slots=100),
            SimulationSettings(side=1),
            SimulationSettings(n_nodes=np.int64(100)),
            SimulationSettings(radius=np.float64(0.2), horizon=np.int32(10_000)),
            SimulationSettings(faults=FaultPlan(churn=None)),
        ],
        ids=["int-timeout", "int-side", "numpy-n_nodes", "numpy-mixed", "explicit-none"],
    )
    def test_table2_spellings_have_the_pinned_digest(self, spelled):
        assert settings_digest(spelled) == DEFAULT_SETTINGS_DIGEST

    def test_churn_spellings_share_the_digest(self):
        a = SimulationSettings(faults=FaultPlan(churn=NodeChurn(0.001, 200)))
        b = SimulationSettings(faults=FaultPlan(churn=NodeChurn(0.001, 200.0)))
        assert settings_digest(a) == settings_digest(b)

    def test_stored_types_are_the_declared_ones(self):
        s = SimulationSettings(n_nodes=np.int64(7), timeout_slots=100)
        assert type(s.n_nodes) is int and type(s.timeout_slots) is float
        p = PhyProfile(data_slots=[np.int64(5), 3], range_fractions=[1, np.float32(0.5)])
        assert p.data_slots == (5, 3) and all(type(x) is int for x in p.data_slots)
        assert p.range_fractions == (1.0, 0.5)
        assert all(type(x) is float for x in p.range_fractions)


class TestValueRule:
    """Values that used to construct and then run silently or change."""

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: PhyProfile(signal_slots=1.5), "signal_slots must be a whole number"),
            (
                lambda: PhyProfile(data_slots=(5.7,), range_fractions=(1,)),
                r"data_slots\[0\] must be a whole number",
            ),
            (lambda: SimulationSettings(radius=True), "radius must be a real number"),
            (lambda: SimulationSettings(message_rate=True), "message_rate must be a real number"),
            (lambda: NodeChurn(crash_rate=True), "crash_rate must be a real number"),
        ],
        ids=["signal-1.5", "data-5.7", "radius-bool", "rate-bool", "crash-bool"],
    )
    def test_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SimulationSettings(timeout_slots="100"),
            lambda: TrafficMix(unicast="0.2"),
            lambda: GilbertElliott(p_good_bad=None),
            lambda: ContentionParams(cw_min=np.float64(16)),
            lambda: PhyProfile(data_slots=5, range_fractions=(1.0,)),
        ],
        ids=["str-float", "str-mix", "none-float", "numpy-float-int", "scalar-tuple"],
    )
    def test_non_numbers_are_value_errors(self, make):
        with pytest.raises(ValueError, match="must be a"):
            make()


class TestLowerAndBuild:
    def test_both_forms_invert(self):
        s = SimulationSettings(
            n_nodes=12,
            faults=FaultPlan(burst=GilbertElliott.from_burst(8.0, 0.2)),
            phy=PhyProfile(data_slots=(5, 3), range_fractions=(1.0, 0.7)),
        )
        assert build(SimulationSettings, lower(s, tagged=False)) == s
        assert build(SimulationSettings, canonical_payload(s)) == s

    def test_tagged_form_names_each_class(self):
        payload = canonical_payload(SimulationSettings())
        assert payload["__type__"] == "SimulationSettings"
        assert payload["faults"]["__type__"] == "FaultPlan"
        assert "__type__" not in settings_to_dict(SimulationSettings())["faults"]

    def test_wrong_tag_is_rejected(self):
        payload = canonical_payload(SimulationSettings())
        payload["mix"]["__type__"] = "ContentionParams"
        with pytest.raises(ValueError, match=r"settings\.mix: tagged 'ContentionParams'"):
            build(SimulationSettings, payload)

    def test_non_object_for_a_dataclass_field_is_rejected(self):
        payload = settings_to_dict(SimulationSettings())
        payload["contention"] = [2, 16, 256, True]
        with pytest.raises(ValueError, match=r"settings\.contention: expected a ContentionParams"):
            settings_from_dict(payload)

    def test_missing_keys_take_their_defaults(self):
        payload = settings_to_dict(SimulationSettings(n_nodes=9))
        del payload["phy"], payload["faults"]["churn"]
        assert settings_from_dict(payload) == SimulationSettings(n_nodes=9)

    def test_only_the_tagged_form_refuses_non_finite_floats(self):
        # SimulationSettings refuses an infinite timeout up front; the MAC
        # config still takes one.
        config = MacConfig(timeout_slots=float("inf"))
        assert lower(config, tagged=False)["timeout_slots"] == float("inf")
        with pytest.raises(TypeError, match=r"settings\.timeout_slots: non-finite"):
            lower(config, tagged=True)
