"""Shared fixtures for the serving-layer tests.

Everything runs on the paper's Fig. 4 worked example (see the top-level
conftest), so expected numbers are hand-checkable: with the threshold
utility the greedy placement is {V3, V5} attracting 21.0.
"""

import pytest

from repro.devtools import sanitize
from repro.serve import QueryEngine, ScenarioArtifact


@pytest.fixture
def artifact(paper_threshold_scenario) -> ScenarioArtifact:
    return ScenarioArtifact.compile(paper_threshold_scenario)


@pytest.fixture
def linear_artifact(paper_linear_scenario) -> ScenarioArtifact:
    """A second, distinct digest — the multi-shard tests' other shard."""
    return ScenarioArtifact.compile(paper_linear_scenario)


@pytest.fixture
def engine(artifact) -> QueryEngine:
    return QueryEngine(artifact)


@pytest.fixture
def async_sanitizer():
    """The asyncio sanitizer's report, installed for this test if needed.

    Under ``RAPFLOW_SANITIZE=1`` the report installed for the whole test
    run is reused, so tests compare leaked-task counts before and after.
    """
    report = sanitize.async_report()
    if report is not None:
        yield report
        return
    report = sanitize.install_async(budget=1000.0)
    try:
        yield report
    finally:
        sanitize.uninstall_async()
