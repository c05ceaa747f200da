"""Tests for the one-shot reproduction report."""

import json

from repro.experiments.config import SimulationSettings
from repro.experiments.fullreport import generate_report

TINY = SimulationSettings(n_nodes=15, horizon=600, message_rate=0.003)


class TestGenerateReport:
    def test_writes_report_and_json(self, tmp_path):
        path = generate_report(tmp_path, seeds=[0], settings=TINY)
        assert path.name == "REPORT.md"
        text = path.read_text()
        # Every paper artifact appears.
        for artifact in (
            "Table 1",
            "Figure 2",
            "Figure 5",
            "figure6a",
            "figure6b",
            "figure7",
            "figure8",
            "figure9a",
            "figure9b",
            "figure10a",
            "figure10b",
            "Saturation limits",
        ):
            assert artifact in text, f"missing {artifact}"
        # Charts and protocol names render.
        assert "o=BMW" in text
        assert "(paper)" in text
        # JSON companions exist and parse.
        for name in ("figure6a", "figure10b", "figure2"):
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            assert payload["name"] == name

    def test_simulates_each_distinct_cell_once(self, tmp_path, monkeypatch):
        """The eight simulated figures are one campaign: 11 points x 4
        protocols per seed (one sweep per figure ran 30 x 4)."""
        from repro.experiments import sweep

        calls = []
        run_job = sweep.run_job

        def counting(job, cache=None):
            calls.append((job.point, job.seed, job.protocol))
            return run_job(job, cache)

        monkeypatch.setattr(sweep, "run_job", counting)
        generate_report(tmp_path, seeds=[0], settings=SimulationSettings(horizon=100))
        assert len(calls) == len(set(calls)) == 11 * 4

    def test_cli_report_entrypoint(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        import repro.experiments.fullreport as fr

        calls = {}

        def fake(out_dir, seeds=range(3), chart_width=64, settings=None):
            calls["out"] = str(out_dir)
            calls["seeds"] = list(seeds)
            p = tmp_path / "REPORT.md"
            p.write_text("stub")
            return p

        monkeypatch.setattr(fr, "generate_report", fake)
        assert main(["report", "--seeds", "2", "--out", str(tmp_path)]) == 0
        assert calls["seeds"] == [0, 1]
        assert calls["out"] == str(tmp_path)
        assert "report written" in capsys.readouterr().out
