"""Figure 7: successful delivery rate vs timeout (100-300 slots)."""

from repro.experiments.figures import run_figures

from conftest import bench_settings, n_runs, report


def test_figure7(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure7"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure7"]
    report(
        result,
        "larger timeout -> higher delivery for every protocol; "
        "BMMM/LAMM above BSMA/BMW throughout",
    )
    for proto, ys in result.series.items():
        # Monotone non-decreasing up to noise.
        assert ys[-1] >= ys[0] - 0.03, f"{proto} did not benefit from timeout"
    for i in range(len(result.xs)):
        ours = max(result.series["BMMM"][i], result.series["LAMM"][i])
        theirs = max(result.series["BSMA"][i], result.series["BMW"][i])
        assert ours >= theirs - 0.05
