"""Golden fingerprints of every library consumer of the evaluators.

Local search, the exact and enumerating solvers, the budgeted and
scheduling extensions, the analysis helpers, the budget sweep, the
sieve-streaming placement and the four greedy variants all score
placements through the evaluators in :mod:`repro.core`.  Each digest
below hashes one consumer's full output, every float by its exact bits
(``float.hex``), over a seeded set of random grid instances (all three
paper utilities) and the small Dublin and Seattle scenarios.  They were
recorded while these consumers still ran the pure-Python evaluator; the
array kernel must reproduce every bit.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.algorithms import algorithm_by_name
from repro.algorithms.branch_and_bound import BranchAndBoundOptimal
from repro.algorithms.local_search import SwapLocalSearch
from repro.algorithms.partial_enumeration import PartialEnumerationGreedy
from repro.algorithms.sieve_stream import SieveStreaming
from repro.analysis.comparison import compare_algorithms
from repro.analysis.diagnostics import diagnose
from repro.analysis.robustness import failure_impacts, volume_robustness
from repro.core import (
    LinearUtility,
    Scenario,
    SqrtUtility,
    ThresholdUtility,
    flow_between,
    utility_by_name,
)
from repro.experiments.sweeps import sweep_budget
from repro.extensions.budgeted import BudgetedGreedy, location_based_costs
from repro.extensions.scheduling import (
    Campaign,
    GreedyScheduler,
    SchedulingProblem,
)
from repro.graphs import manhattan_grid
from repro.traces.provider import TraceProvider

UTILITIES = (ThresholdUtility, LinearUtility, SqrtUtility)
GRID_SEEDS = range(24)
CITY_THRESHOLDS = {"dublin": 20_000.0, "seattle": 2_500.0}
CITY_KS = (2, 3)
GREEDY_VARIANTS = (
    "greedy-coverage",
    "marginal-greedy",
    "lazy-greedy",
    "composite-greedy",
)


def _canon(value) -> str:
    """A canonical string of ``value`` that spells every float's bits."""
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{_canon(key)}:{_canon(item)}" for key, item in value.items()
        ) + "}"
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + _canon(
            {
                field.name: getattr(value, field.name)
                for field in dataclasses.fields(value)
            }
        )
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _grid_case(seed):
    rng = random.Random(seed)
    network = manhattan_grid(6, 6, 1.0)
    nodes = list(network.nodes())
    shop = rng.choice(nodes)
    flows = [
        flow_between(
            network,
            *rng.sample(nodes, 2),
            volume=rng.randint(1, 50),
            attractiveness=rng.choice([0.2, 0.5, 1.0]),
        )
        for _ in range(rng.randint(2, 10))
    ]
    utility = UTILITIES[seed % 3](rng.choice([2.0, 4.0, 8.0]))
    return f"grid-{seed}", Scenario(network, flows, shop, utility), 1 + seed % 4


def _city_cases():
    provider = TraceProvider(scale="small")
    for city, threshold in CITY_THRESHOLDS.items():
        bundle = provider.get(city)
        center = bundle.network.bounding_box().center
        shop = min(
            bundle.network.nodes(),
            key=lambda node: (
                bundle.network.position(node).distance_to(center),
                node,
            ),
        )
        for name in ("threshold", "linear", "sqrt"):
            scenario = Scenario(
                bundle.network,
                bundle.flows,
                shop,
                utility_by_name(name, threshold),
            )
            for k in CITY_KS:
                yield f"{city}-{name}-{k}", scenario, k


@pytest.fixture(scope="module")
def cases():
    return [_grid_case(seed) for seed in GRID_SEEDS] + list(_city_cases())


def _random_costs(scenario, seed):
    rng = random.Random(seed)
    return {site: float(rng.randint(1, 4)) for site in scenario.candidate_sites}


def _scheduling(scenario, k):
    nodes = sorted(scenario.network.nodes(), key=repr)
    campaigns = [
        Campaign("first", shop=scenario.shop, utility=scenario.utility),
        Campaign(
            "second",
            shop=nodes[len(nodes) // 3],
            utility=LinearUtility(scenario.utility.threshold),
            value_per_customer=1.5,
        ),
    ]
    problem = SchedulingProblem(scenario.network, scenario.flows, campaigns)
    return GreedyScheduler().solve(problem, k)


CONSUMERS = {
    "local-search": lambda s, k, seed: SwapLocalSearch().place(s, k),
    "branch-and-bound": lambda s, k, seed: BranchAndBoundOptimal().place(s, k),
    "partial-enumeration": (
        lambda s, k, seed: PartialEnumerationGreedy().place(s, k)
    ),
    "budgeted-random-costs": lambda s, k, seed: BudgetedGreedy(
        _random_costs(s, seed), budget=2.0 * k
    ).place(s),
    "budgeted-location-costs": lambda s, k, seed: BudgetedGreedy(
        location_based_costs(s), budget=2.0 * k
    ).place(s),
    "greedy-scheduler": lambda s, k, seed: _scheduling(s, k),
    "diagnose": lambda s, k, seed: diagnose(
        s, algorithm_by_name("composite-greedy").place(s, k)
    ),
    "failure-impacts": lambda s, k, seed: failure_impacts(
        s, algorithm_by_name("marginal-greedy").place(s, k)
    ),
    "volume-robustness": lambda s, k, seed: volume_robustness(
        s,
        algorithm_by_name("greedy-coverage").place(s, k),
        algorithm=algorithm_by_name("marginal-greedy"),
        resamples=3,
        seed=seed,
    ),
    "sweep-budget": lambda s, k, seed: sweep_budget(s, range(1, k + 1)),
    "compare-algorithms": lambda s, k, seed: compare_algorithms(
        s, ["greedy-coverage", "composite-greedy", "random"], (1, k), seed=seed
    ),
    "sieve-stream": lambda s, k, seed: SieveStreaming().place(s, k),
}
for _name in GREEDY_VARIANTS:
    CONSUMERS[_name] = (
        lambda s, k, seed, _name=_name: algorithm_by_name(_name).place(s, k)
    )

EXPECTED = {
    "branch-and-bound": (
        "2f9d568579f00f18bd6e979be0d5608e8851de912ed80e9f8bbab899c95d6cee"
    ),
    "budgeted-location-costs": (
        "8ea471cd58f58ee906ed8db92977feb00ed00c179c3419efe8ebe459e5f8f89a"
    ),
    "budgeted-random-costs": (
        "62bdbb07cc23c6675530b12f944a05924733d20ddd0068cc6a48c12486d193c6"
    ),
    "compare-algorithms": (
        "a8e42bb43752f3d29221f8a6ac8e6d960fc0c5e93f4fbdebefe5ffd35ff6fb51"
    ),
    "composite-greedy": (
        "1f9146c361052bd339ab8564331554da3d6ccde754d6f51bb9214fcc1f1948c0"
    ),
    "diagnose": (
        "a577f785b9d70737a99d8868d771f5347b9e2ed9379b84a5366dc36a32111044"
    ),
    "failure-impacts": (
        "093bfbc1fdacdf2df740aa93a77a006c83b810fe29d5ca00ac577d718c22c118"
    ),
    "greedy-coverage": (
        "1b1ff5b0ff0398ccbb3536946990831c3f2375fdef532cf6f51f2e993f5fb7ab"
    ),
    "greedy-scheduler": (
        "eb3595ee4661cecf698ba0e7ca9fef910e554f40addd52da7f3afb73ff100179"
    ),
    "lazy-greedy": (
        "d21e2d9f3760a72c3d9cfd136521dad713f86a551f8c850398021755130baffb"
    ),
    "local-search": (
        "e5fd7e1a4e737a24ed99f6d2fd11c3b3c2617b60afcd971c76a49d52e8359ba2"
    ),
    "marginal-greedy": (
        "b2a80bc00e766a8fa1d0202b9a60d2b188573b8a552fbe65d39b3d49e29a6ed8"
    ),
    "partial-enumeration": (
        "6c8567b87bea6d4b0c6fadb33f059a5f691bf7bb16adf322bc90c3d66af69099"
    ),
    "sieve-stream": (
        "232f4723dd1ca1433412ef309b3ec1fbc60f7529a2ff0d1b85d463b01927bee7"
    ),
    "sweep-budget": (
        "e449c626482167be0fc1e9c9e51206f31a3acc46bc6f846470893c2b01a4414a"
    ),
    "volume-robustness": (
        "ff052f1c3109f9a94166121819dfb9e20df4141d493d1dbb62436a006405fd9a"
    ),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_consumer_fingerprint(cases, consumer):
    run = CONSUMERS[consumer]
    digest = hashlib.sha256()
    for seed, (label, scenario, k) in enumerate(cases):
        digest.update(label.encode())
        digest.update(_canon(run(scenario, k, seed)).encode())
    assert digest.hexdigest() == EXPECTED[consumer]
