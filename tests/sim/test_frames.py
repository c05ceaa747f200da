"""Unit tests for frame abstractions."""

import copy
import dataclasses
import importlib
import pickle
import warnings

import pytest

from repro.sim.frames import Frame, FrameType, GROUP_ADDR


class TestFrameType:
    def test_control_classification(self):
        assert FrameType.RTS.is_control
        assert FrameType.CTS.is_control
        assert FrameType.ACK.is_control
        assert FrameType.NAK.is_control
        assert FrameType.RAK.is_control
        assert not FrameType.DATA.is_control


class TestFrame:
    def test_airtime_table2(self):
        """Table 2: signal time 1 slot, data 5 slots (the defaults when no
        explicit ``airtime_slots`` is stamped on the frame)."""
        data = Frame(FrameType.DATA, src=0, ra=GROUP_ADDR)
        assert data.airtime == 5
        for ft in (FrameType.RTS, FrameType.CTS, FrameType.ACK, FrameType.NAK, FrameType.RAK):
            assert Frame(ft, src=0, ra=1).airtime == 1

    def test_airtime_slots_override(self):
        """A multi-rate DATA frame carries its own airtime (and MCS)."""
        fast = Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, airtime_slots=3, mcs=1)
        assert fast.airtime == 3 and fast.mcs == 1
        slow = Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, airtime_slots=5)
        assert slow.airtime == 5 and slow.mcs == 0

    def test_invalid_airtime_and_mcs_rejected(self):
        with pytest.raises(ValueError):
            Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, airtime_slots=0)
        with pytest.raises(ValueError):
            Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, mcs=-1)

    def test_rak_has_ack_format_airtime(self):
        """Figure 1: the RAK frame has the same format (size) as an ACK."""
        rak = Frame(FrameType.RAK, src=0, ra=1)
        ack = Frame(FrameType.ACK, src=1, ra=0)
        assert rak.airtime == ack.airtime

    def test_group_addressing(self):
        f = Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, group=frozenset({1, 2}))
        assert f.is_group_addressed
        assert f.addressed_to(1)
        assert f.addressed_to(2)
        assert not f.addressed_to(3)

    def test_individual_addressing(self):
        f = Frame(FrameType.RTS, src=0, ra=7)
        assert not f.is_group_addressed
        assert f.addressed_to(7)
        assert not f.addressed_to(0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Frame(FrameType.RTS, src=0, ra=1, duration=-1)

    @pytest.mark.parametrize("field", ["duration", "airtime_slots", "mcs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Frame(FrameType.RTS, src=0, ra=1, **{field: value})

    def test_exchange_owner(self):
        """The initiator for RTS/DATA/RAK/NAK, the addressee for CTS/ACK."""
        for ft in (FrameType.RTS, FrameType.DATA, FrameType.RAK, FrameType.NAK):
            assert Frame(ft, src=2, ra=5).exchange_owner == 2
        for ft in (FrameType.CTS, FrameType.ACK):
            assert Frame(ft, src=2, ra=5).exchange_owner == 5

    def test_invalid_ra_rejected(self):
        with pytest.raises(ValueError):
            Frame(FrameType.RTS, src=0, ra=-2)

    def test_uids_unique(self):
        frames = [Frame(FrameType.RTS, src=0, ra=1) for _ in range(10)]
        assert len({f.uid for f in frames}) == 10

    def test_frames_immutable(self):
        f = Frame(FrameType.RTS, src=0, ra=1)
        with pytest.raises(AttributeError):
            f.src = 5

    def test_frames_round_trip_through_pickle_copy_and_replace(self):
        """Frames are built through ``__new__`` (a slotted draft switched to
        the frozen class): pickling, copying and ``dataclasses.replace``
        still rebuild an equal frame, uid included."""
        f = Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, duration=4, seq=2,
                  group=frozenset({1, 2}), msg_id=9, airtime_slots=3, mcs=1)
        assert type(f) is Frame and not hasattr(f, "__dict__")
        assert pickle.loads(pickle.dumps(f)) == f
        assert copy.copy(f) == f and hash(copy.deepcopy(f)) == hash(f)
        moved = dataclasses.replace(f, src=5)
        assert (moved.src, moved.uid, moved.group) == (5, f.uid, f.group)
        assert [fld.name for fld in dataclasses.fields(Frame)][-1] == "uid"

    def test_str_smoke(self):
        f = Frame(FrameType.CTS, src=2, ra=0, duration=7, seq=3)
        s = str(f)
        assert "CTS" in s and "2->0" in s


class TestDeprecatedConstants:
    """The retired module-global slot timings (now PhyProfile lookups)."""

    @pytest.mark.parametrize(
        "module,name",
        [
            pytest.param("repro.sim.frames", "SIGNAL_SLOTS", id="frames-SIGNAL_SLOTS"),
            pytest.param("repro.sim.frames", "DATA_SLOTS", id="frames-DATA_SLOTS"),
            pytest.param("repro.sim", "SIGNAL_SLOTS", id="sim-SIGNAL_SLOTS"),
            pytest.param("repro.sim", "DATA_SLOTS", id="sim-DATA_SLOTS"),
        ],
    )
    def test_slot_constants_are_gone(self, module, name):
        mod = importlib.import_module(module)

        with pytest.raises(AttributeError):
            getattr(mod, name)

    def test_unknown_attribute_still_raises(self):
        import repro.sim.frames as frames

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AttributeError):
                frames.NO_SUCH_CONSTANT
