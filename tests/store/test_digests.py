"""Digest stability: the addresses of the store must never drift.

The digest of a configuration is a *contract*: any process, today or
after a restart, must derive the same hex string for the same frozen
settings, and any semantic change must alter it.  The literal pins below
are part of that contract -- if one breaks, either the canonicalisation
changed (bump ``DIGEST_VERSION`` and the pins together) or a settings
field changed meaning (old stores must miss, which the code fingerprint
already guarantees; the settings digest pin makes the change reviewed
rather than accidental).
"""

import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.experiments.config import SimulationSettings
from repro.experiments.scenario import Scenario
from repro.faults.plan import FaultPlan, GilbertElliott, NodeChurn
from repro.mac.contention import ContentionParams
from repro.phy.profile import PhyProfile
from repro.store.digests import (
    canonical_json,
    canonical_payload,
    code_fingerprint,
    digest_of,
    git_commit,
    settings_digest,
)
from repro.workload.generator import TrafficMix

#: The pinned address of the Table-2 default settings (threshold 0.9).
#: Digest v2: SimulationSettings grew the ``phy`` PhyProfile field.
DEFAULT_SETTINGS_DIGEST = (
    "1b9b355b976784a6e77fddc022bea5eaf29def1fc9485842b31b325a620c1b8b"
)


class TestPins:
    def test_default_settings_digest_is_pinned(self):
        assert settings_digest(SimulationSettings()) == DEFAULT_SETTINGS_DIGEST

    def test_digest_shape(self):
        d = settings_digest(SimulationSettings(n_nodes=7))
        assert len(d) == 64 and int(d, 16) >= 0
        assert d != DEFAULT_SETTINGS_DIGEST


class TestInvariance:
    def test_default_vs_explicit_fields(self):
        """Spelling out a default must not move the address."""
        implicit = SimulationSettings()
        explicit = SimulationSettings(
            n_nodes=100,
            side=1.0,
            radius=0.2,
            horizon=10_000,
            mix=TrafficMix(unicast=0.2, multicast=0.4, broadcast=0.4),
            contention=ContentionParams(),
            faults=FaultPlan(),
        )
        assert settings_digest(implicit) == settings_digest(explicit)

    def test_dict_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )

    def test_settings_threshold_moves_settings_digest(self):
        """The scoring threshold lives on the settings alone, and the
        address keeps its pinned form with the threshold beside them."""
        s = SimulationSettings()
        assert settings_digest(s) == digest_of(
            {"settings": s, "threshold": s.threshold}, kind="settings"
        )
        assert settings_digest(s.with_(threshold=0.5)) != settings_digest(s)

    def test_settings_threshold_moves_scenario_digest(self):
        s = SimulationSettings()
        a = Scenario(settings=s, protocols=("BMMM",), seeds=(0, 1))
        assert a.digest() == digest_of(
            {"settings": s, "protocols": ["BMMM"], "seeds": [0, 1], "threshold": s.threshold},
            kind="scenario",
        )
        assert a.digest() != a.with_(settings=s.with_(threshold=0.5)).digest()
        assert a.digest() != a.with_(seeds=(0, 2)).digest()
        assert a.digest() != a.with_(protocols=("LAMM",)).digest()

    def test_survives_process_restart_and_hash_randomisation(self):
        """Digests must not depend on in-process state (PYTHONHASHSEED,
        import order, interning): a fresh interpreter with a different
        hash seed derives the same addresses."""
        code = (
            "from repro.experiments.config import SimulationSettings\n"
            "from repro.store.digests import settings_digest\n"
            "print(settings_digest(SimulationSettings()))\n"
            "print(settings_digest(SimulationSettings(n_nodes=42, radius=0.3)))\n"
        )
        outputs = set()
        for hashseed in ("1", "4242"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed},
                cwd=str(Path(__file__).resolve().parents[2]),
                check=True,
            )
            outputs.add(out.stdout)
        assert len(outputs) == 1
        lines = outputs.pop().splitlines()
        assert lines[0] == DEFAULT_SETTINGS_DIGEST
        assert lines[1] == settings_digest(SimulationSettings(n_nodes=42, radius=0.3))


#: One changed value per field, each differing from the default.
_FIELD_CHANGES = {
    "n_nodes": 99,
    "side": 2.0,
    "radius": 0.25,
    "horizon": 9_999,
    "timeout_slots": 150.0,
    "message_rate": 0.001,
    "mix": TrafficMix(unicast=0.4, multicast=0.2, broadcast=0.4),
    "threshold": 0.8,
    "capture": False,
    "frame_error_rate": 0.01,
    "interference_factor": 1.5,
    "contention": ContentionParams(cw_min=32),
    "faults": FaultPlan(receiver_give_up=3),
    "phy": PhyProfile(signal_slots=1, data_slots=(5, 3), range_fractions=(1.0, 0.7)),
}


class TestSensitivity:
    def test_every_field_is_covered(self):
        assert set(_FIELD_CHANGES) == {f.name for f in fields(SimulationSettings)}

    @pytest.mark.parametrize("field_name", sorted(_FIELD_CHANGES))
    def test_any_field_change_alters_digest(self, field_name):
        base = SimulationSettings()
        changed = replace(base, **{field_name: _FIELD_CHANGES[field_name]})
        assert settings_digest(changed) != settings_digest(base), field_name

    @hsettings(max_examples=50, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=500),
        radius=st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
        rate=st.floats(min_value=1e-5, max_value=0.1, allow_nan=False),
        sigma=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )
    def test_digest_is_injective_on_sampled_settings(self, n_nodes, radius, rate, sigma):
        """Distinct settings hash apart; equal settings hash together --
        including nested fault-plan fields and rebuilt (not shared)
        dataclass instances."""
        a = SimulationSettings(
            n_nodes=n_nodes,
            radius=radius,
            message_rate=rate,
            faults=FaultPlan(location_sigma=sigma),
        )
        rebuilt = SimulationSettings(
            n_nodes=n_nodes,
            radius=radius,
            message_rate=rate,
            faults=FaultPlan(location_sigma=sigma),
        )
        assert settings_digest(a) == settings_digest(rebuilt)
        bumped = replace(a, n_nodes=n_nodes + 1)
        assert settings_digest(a) != settings_digest(bumped)

    def test_nested_fault_plan_changes_propagate(self):
        base = SimulationSettings(
            faults=FaultPlan(burst=GilbertElliott.from_burst(8.0, 0.2))
        )
        longer = SimulationSettings(
            faults=FaultPlan(burst=GilbertElliott.from_burst(16.0, 0.2))
        )
        churny = SimulationSettings(
            faults=FaultPlan(churn=NodeChurn(crash_rate=0.001))
        )
        digests = {settings_digest(s) for s in (base, longer, churny)}
        assert len(digests) == 3


class TestCanonicalisationErrors:
    def test_rejects_sets(self):
        with pytest.raises(TypeError, match="cannot canonicalise"):
            canonical_payload({"a": {1, 2}})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError, match="not a string"):
            canonical_payload({1: "x"})

    def test_rejects_nan(self):
        with pytest.raises(TypeError, match="non-finite"):
            canonical_payload(float("nan"))

    def test_error_names_the_field_path(self):
        with pytest.raises(TypeError, match=r"settings\.deep\[0\]"):
            canonical_payload({"deep": [object()]})


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def _tree(self, root):
        (root / "mac").mkdir(parents=True)
        (root / "experiments").mkdir()
        (root / "mac" / "base.py").write_text("A = 1\n")
        (root / "experiments" / "config.py").write_text("B = 2\n")

    def test_content_change_alters_fingerprint(self, tmp_path):
        self._tree(tmp_path)
        before = code_fingerprint(tmp_path)
        (tmp_path / "mac" / "base.py").write_text("A = 2\n")
        assert code_fingerprint(tmp_path) != before

    def test_rename_and_addition_alter_fingerprint(self, tmp_path):
        self._tree(tmp_path)
        before = code_fingerprint(tmp_path)
        (tmp_path / "mac" / "base.py").rename(tmp_path / "mac" / "renamed.py")
        renamed = code_fingerprint(tmp_path)
        assert renamed != before
        (tmp_path / "mac" / "extra.py").write_text("C = 3\n")
        assert code_fingerprint(tmp_path) not in (before, renamed)

    def test_irrelevant_files_ignored(self, tmp_path):
        self._tree(tmp_path)
        before = code_fingerprint(tmp_path)
        (tmp_path / "experiments" / "plotting.py").write_text("ASCII = True\n")
        (tmp_path / "cli.py").write_text("print('hi')\n")
        assert code_fingerprint(tmp_path) == before


class TestGitCommit:
    def test_git_commit_in_this_checkout(self):
        commit = git_commit()
        # This repo is a git checkout, so the stamp must resolve here;
        # installed wheels legitimately return None.
        assert commit is not None and len(commit) == 40
        int(commit, 16)
