"""Shared grid for the serve tests: small enough that a full serial
sweep takes well under a second, wide enough (2 protocols x 2 points x
2 seeds = 8 cells) that leases, batches and the tail shrink all engage."""

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import plan_jobs
from repro.serve.worker import job_text
from repro.store.digests import code_fingerprint, settings_digest

SMALL = SimulationSettings(n_nodes=8, horizon=300, message_rate=0.003)
POINTS = [SMALL, SMALL.with_(n_nodes=10)]
SCENARIO = Scenario(settings=SMALL, protocols=("BMW", "LBP"), seeds=(0, 1))
N_CELLS = len(SCENARIO.protocols) * len(POINTS) * len(SCENARIO.seeds)


@pytest.fixture(scope="session")
def fingerprint():
    return code_fingerprint()


@pytest.fixture(scope="session")
def point_digests():
    return [settings_digest(p) for p in POINTS]


@pytest.fixture(scope="session")
def planned_jobs():
    return plan_jobs(SCENARIO.protocols, POINTS, SCENARIO.seeds)


def enqueue_plan(store, campaign, jobs, digests, fingerprint):
    """What ServeBackend.run does: enqueue every planned job as its JSON text."""
    return store.enqueue_jobs(
        campaign,
        ((i, digests[j.point], j.protocol, j.seed, job_text(j)) for i, j in enumerate(jobs)),
        fingerprint,
    )


def assert_bit_identical(a, b):
    """Metrics and counters of two sweeps over SCENARIO match exactly."""
    for p in range(len(POINTS)):
        for proto in SCENARIO.protocols:
            assert a.mean(p, proto) == b.mean(p, proto), (p, proto)
            assert a.mean(p, proto).counters == b.mean(p, proto).counters
