"""Figure 6: successful delivery rate vs (a) nodal density and (b) message
generation rate (full simulation, Table 2 defaults)."""

from repro.experiments.figures import run_figures

from conftest import bench_settings, n_runs, report


def _check_reliability_ordering(result):
    """Figure 6's ordering: LAMM on top everywhere; BMMM second except
    possibly at the most saturated point, where its full-group batch
    rounds run out of timeout headroom before LAMM's cover-set rounds do
    (see EXPERIMENTS.md)."""
    last = len(result.xs) - 1
    for i in range(len(result.xs)):
        best_theirs = max(result.series["BSMA"][i], result.series["BMW"][i])
        tol = 0.05 if i == last else 0.03  # saturation noise at the last point
        assert result.series["LAMM"][i] >= best_theirs - tol, (
            f"LAMM must lead at point {i}"
        )
        if i < last:
            assert result.series["BMMM"][i] >= best_theirs - 0.05, (
                f"BMMM must beat the baselines at non-saturated point {i}"
            )


def test_figure6a(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure6a"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure6a"]
    report(result, "all degrade with density; LAMM highest, BMMM second")
    _check_reliability_ordering(result)
    # Delivery degrades from the sparsest to the densest point.
    for proto in result.series:
        assert result.series[proto][-1] <= result.series[proto][0] + 0.05


def test_figure6b(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure6b"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure6b"]
    report(result, "all degrade with rate; LAMM highest, BMMM second")
    _check_reliability_ordering(result)
    for proto in result.series:
        assert result.series[proto][-1] <= result.series[proto][0] + 0.05
