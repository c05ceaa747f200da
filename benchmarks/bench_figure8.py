"""Figure 8: successful delivery rate vs reliability threshold (one
simulation set per protocol, re-scored per threshold)."""

from repro.experiments.figures import run_figures

from conftest import bench_settings, n_runs, report


def test_figure8(benchmark):
    result = benchmark.pedantic(
        run_figures,
        args=(["figure8"],),
        kwargs={"settings": bench_settings(), "seeds": range(n_runs())},
        rounds=1,
        iterations=1,
    )["figure8"]
    report(
        result,
        "BMMM/LAMM flat and high at every threshold (completion implies "
        "delivery); BSMA decays as the threshold tightens",
    )
    for proto, ys in result.series.items():
        assert all(a >= b - 1e-9 for a, b in zip(ys, ys[1:])), (
            f"{proto}: delivery rate must be non-increasing in threshold"
        )
    for i in range(len(result.xs)):
        ours = max(result.series["BMMM"][i], result.series["LAMM"][i])
        theirs = max(result.series["BSMA"][i], result.series["BMW"][i])
        assert ours >= theirs - 0.05
    # The reliable protocols barely move with the threshold; BSMA loses
    # more from the loosest to the strictest threshold than BMMM does.
    bsma_drop = result.series["BSMA"][0] - result.series["BSMA"][-1]
    bmmm_drop = result.series["BMMM"][0] - result.series["BMMM"][-1]
    assert bsma_drop >= bmmm_drop - 0.02
