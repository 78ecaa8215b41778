"""Monte-Carlo driver simulation — grounds the analytic model.

The evaluator computes expectations; this subpackage simulates the
underlying per-driver Bernoulli decisions and converges to those
expectations, validating the whole detour/coverage/evaluation stack
end to end (and providing day-to-day variance the analytic model
cannot).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .simulator import (
        AdvertisingDaySimulator,
        DayResult,
        SimulationResult,
        simulate_placement,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".simulator": (
        "AdvertisingDaySimulator", "DayResult", "SimulationResult",
        "simulate_placement",
    ),
})

__all__ = [
    "AdvertisingDaySimulator",
    "DayResult",
    "SimulationResult",
    "simulate_placement",
]
