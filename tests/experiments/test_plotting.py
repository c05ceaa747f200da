"""Tests for the ASCII chart renderer."""

import pytest

from repro.experiments.figures import FigureResult, figure5
from repro.experiments.plotting import ascii_chart, render_figure


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        out = ascii_chart([0, 1, 2], {"A": [0, 1, 2], "B": [2, 1, 0]})
        assert "o=A" in out and "x=B" in out
        assert "o" in out.splitlines()[0] + out.splitlines()[-4]

    def test_axis_labels_show_range(self):
        out = ascii_chart([0, 10], {"A": [5.0, 25.0]})
        assert "25" in out and "5" in out
        assert "10" in out

    def test_flat_series_does_not_crash(self):
        out = ascii_chart([0, 1], {"A": [3.0, 3.0]})
        assert "o" in out

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart([0, 1], {"A": [1.0]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart([], {})

    def test_nan_values_skipped(self):
        out = ascii_chart([0, 1, 2], {"A": [1.0, float("nan"), 3.0]})
        assert "o" in out

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart([0, 1], {"A": [float("nan")] * 2})

    def test_dimensions_respected(self):
        out = ascii_chart([0, 1], {"A": [0.0, 1.0]}, width=30, height=8)
        plot_lines = out.splitlines()[:8]
        assert len(plot_lines) == 8
        assert all(len(line) <= 9 + 1 + 30 for line in plot_lines)


class TestRenderFigure:
    def test_figure5_renders(self):
        out = render_figure(figure5(10))
        assert "figure5" in out
        assert "o=BMW" in out

    def test_custom_result(self):
        r = FigureResult("t", "load", "rate", [1.0, 2.0], {"P": [0.1, 0.9]})
        out = render_figure(r)
        assert "load" in out and "rate" in out


class TestLaneDiagram:
    def test_figure2_style_lanes(self):
        from repro.obs.trace import format_timeline, lane_diagram
        from tests.conftest import air_log, make_star
        from repro.core.bmmm import BmmmMac
        from repro.mac.base import MessageKind

        net = make_star(BmmmMac, 2)
        air = air_log(net.env)
        net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=500)
        lanes = lane_diagram(air())
        assert "node   0" in lanes
        assert "R" in lanes and "D" in lanes and "K" in lanes and "A" in lanes
        text = format_timeline(air())
        assert "RTS" in text and "RAK" in text

    def test_empty_log(self):
        from repro.obs.trace import lane_diagram

        assert lane_diagram([]) == "(no transmissions)"
