"""Fig. 14: cloud vs on-premises FPGA modeling cost over time.

Renting an f1.2xlarge costs $1.65/hour; an equivalent local setup (server
+ VU9P board + memory) costs ~$8000 up front (paper Table 1).  The cloud
is cheaper until ~200 days of *continuous* modeling — the paper's argument
for why only the largest groups should buy hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..fpga import F1_INSTANCES


@dataclass(frozen=True)
class CostComparison:
    """Cost model for one instance size."""

    instance: str = "f1.2xlarge"
    #: Residual on-prem operating cost per day (power, admin); the paper's
    #: crossover assumes ~0.
    onprem_daily_cost: float = 0.0

    @property
    def hourly(self) -> float:
        return F1_INSTANCES[self.instance].price_per_hour

    @property
    def hardware_price(self) -> float:
        return F1_INSTANCES[self.instance].hardware_price

    def cloud_cost(self, days: float) -> float:
        return days * 24.0 * self.hourly

    def onprem_cost(self, days: float) -> float:
        return self.hardware_price + days * self.onprem_daily_cost

    def crossover_days(self) -> float:
        """Days of continuous modeling after which buying wins."""
        rate = 24.0 * self.hourly - self.onprem_daily_cost
        return self.hardware_price / rate

    def series(self, max_days: int = 350, step: int = 10) -> dict:
        days = list(range(0, max_days + 1, step))
        return {
            "days": days,
            "cloud": [self.cloud_cost(d) for d in days],
            "onprem": [self.onprem_cost(d) for d in days],
        }

