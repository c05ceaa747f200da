"""Figure 9: average number of contention phases per message vs (a) nodal
density and (b) message generation rate."""

from repro.experiments.figures import run_figures

from conftest import bench_settings, n_runs, report


def _check_phase_ordering(result):
    """BMW needs by far the most contention phases; BMMM/LAMM stay low,
    at or slightly below BSMA (Figure 9's shape)."""
    for i in range(len(result.xs)):
        bmw = result.series["BMW"][i]
        for proto in ("BSMA", "BMMM", "LAMM"):
            assert bmw > result.series[proto][i], f"BMW must dominate {proto} at {i}"
        assert result.series["BMMM"][i] < 4.0
        assert result.series["LAMM"][i] < 4.0


def test_figure9a(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure9a"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure9a"]
    report(result, "BMW highest (>= n-ish), growing with density; others low")
    _check_phase_ordering(result)
    # BMW's cost grows with the neighbor count (it serves each neighbor).
    assert result.series["BMW"][-1] > result.series["BMW"][0]


def test_figure9b(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure9b"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure9b"]
    report(result, "BMW highest at every rate; BMMM/LAMM lowest")
    _check_phase_ordering(result)
