"""Figure 10: average message completion time vs (a) nodal density and
(b) message generation rate."""

from repro.experiments.figures import run_figures

from conftest import bench_settings, n_runs, report


def _check_time_ordering(result):
    """LAMM <= BMMM < BMW (Section 7.2); BSMA's 'completion' is cheaper
    but meaningless (Section 7.3) so it is not constrained here.

    The paper's completion-time metric only averages *completed* messages,
    so under saturation BMW's mean is deflated by survivorship (it
    completes only its easy messages; the hard ones time out) -- see
    EXPERIMENTS.md.  The ordering is therefore asserted on the uncensored
    service-time companion (timed-out messages counted at full lifetime),
    plus strictly on the paper's metric at the lightest-load point.
    """
    service = result.meta["extra"]["avg_service_time"]
    timeout = 100.0  # Table 2; bench_settings() keeps it
    ordered_points = 0
    for i in range(len(result.xs)):
        if min(service["BMMM"][i], service["BMW"][i]) >= 0.9 * timeout:
            # Both protocols pegged at the per-message timeout ceiling:
            # the metric saturates there and the residue is just each
            # protocol's abort granularity (a BMMM round is one long
            # unit; BMW aborts between short per-receiver exchanges).
            continue
        ordered_points += 1
        assert service["BMMM"][i] < service["BMW"][i], (
            f"BMMM must occupy the MAC for less time than BMW at point {i}"
        )
        assert service["LAMM"][i] <= service["BMMM"][i] * 1.15, (
            f"LAMM should not be slower than BMMM at point {i}"
        )
    assert ordered_points >= 1, "sweep never left saturation; nothing checked"
    # At light load censoring is negligible: the paper's own metric orders.
    assert result.series["BMMM"][0] < result.series["BMW"][0]
    assert result.series["LAMM"][0] <= result.series["BMMM"][0] * 1.15


def test_figure10a(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure10a"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure10a"]
    report(result, "LAMM < BMMM < BMW; all grow with density")
    _check_time_ordering(result)
    assert result.series["BMW"][-1] > result.series["BMW"][0]


def test_figure10b(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure10b"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure10b"]
    report(result, "LAMM < BMMM < BMW at every rate")
    _check_time_ordering(result)
