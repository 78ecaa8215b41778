"""Extensions beyond the paper's core contribution.

The paper's conclusion names multi-shop scheduling as future work; the
budgeted variant generalizes the uniform RAP count to per-site costs
(using the paper's own reference [18], Khuller-Moss-Naor).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .budgeted import (
        BudgetedGreedy,
        BudgetedResult,
        location_based_costs,
        FrontierPoint,
        cost_frontier,
    )
    from .competition import (
        Competitor,
        CompetitiveScenario,
        PlayResult,
        alternating_play,
        best_response,
        evaluate_competition,
        price_of_anarchy,
    )
    from .duty_cycle import (
        DutyCycleGreedy,
        DutyCycleProblem,
        DutySchedule,
        HourlyProfile,
        evaluate_schedule,
        journey_departure_times,
        profile_from_timestamps,
    )
    from .failure_aware import (
        FailureAwareGreedy,
        FailureModel,
        exhaustive_expected_optimum,
        expected_attracted,
    )
    from .multi_shop import MultiShopDetourCalculator, MultiShopScenario
    from .scheduling import (
        Campaign,
        GreedyScheduler,
        ScheduleResult,
        SchedulingProblem,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".budgeted": (
        "BudgetedGreedy", "BudgetedResult", "location_based_costs", "FrontierPoint",
        "cost_frontier",
    ),
    ".competition": (
        "Competitor", "CompetitiveScenario", "PlayResult", "alternating_play",
        "best_response", "evaluate_competition", "price_of_anarchy",
    ),
    ".duty_cycle": (
        "DutyCycleGreedy", "DutyCycleProblem", "DutySchedule", "HourlyProfile",
        "evaluate_schedule", "journey_departure_times", "profile_from_timestamps",
    ),
    ".failure_aware": (
        "FailureAwareGreedy", "FailureModel", "exhaustive_expected_optimum",
        "expected_attracted",
    ),
    ".multi_shop": ("MultiShopDetourCalculator", "MultiShopScenario"),
    ".scheduling": (
        "Campaign", "GreedyScheduler", "ScheduleResult", "SchedulingProblem",
    ),
})

__all__ = [
    "BudgetedGreedy",
    "BudgetedResult",
    "Campaign",
    "CompetitiveScenario",
    "Competitor",
    "DutyCycleGreedy",
    "DutyCycleProblem",
    "DutySchedule",
    "FailureAwareGreedy",
    "FailureModel",
    "GreedyScheduler",
    "HourlyProfile",
    "MultiShopDetourCalculator",
    "MultiShopScenario",
    "PlayResult",
    "ScheduleResult",
    "SchedulingProblem",
    "alternating_play",
    "best_response",
    "evaluate_competition",
    "evaluate_schedule",
    "exhaustive_expected_optimum",
    "expected_attracted",
    "location_based_costs",
    "FrontierPoint",
    "cost_frontier",
    "journey_departure_times",
    "profile_from_timestamps",
    "price_of_anarchy",
]
