"""Cost models: EC2 catalog, tool models, Fig. 13/14 computations."""

from .instances import EC2_INSTANCES, Ec2Instance, cheapest_for
from .model import (FIG13_TOOLS, benchmark_costs, gem5_cost_ratio,
                    suite_costs, verilator_cost_efficiency_ratio,
                    verilator_runtime_seconds)
from .onprem import CostComparison
from .simulators import SIMULATORS, SimulatorModel, TARGET_IPC, table3_rows

__all__ = [
    "CostComparison",
    "EC2_INSTANCES",
    "Ec2Instance",
    "FIG13_TOOLS",
    "SIMULATORS",
    "SimulatorModel",
    "TARGET_IPC",
    "benchmark_costs",
    "cheapest_for",
    "gem5_cost_ratio",
    "suite_costs",
    "table3_rows",
    "verilator_cost_efficiency_ratio",
    "verilator_runtime_seconds",
]
