"""Workloads and benchmark models from the paper's evaluation."""

from .helloworld import HelloWorldResult, run_helloworld
from .intsort import CLASS_C_KEYS, IntSortModel, IntSortParams
from .maple_kernels import (KERNELS, KERNEL_SPECS, MapleKernelBench,
                            fig11_speedups)
from .noise import GngBenchmark, fig10_speedups
from .spec import SPECINT_2017, SpecBenchmark, benchmark_names, \
    total_instructions

__all__ = [
    "CLASS_C_KEYS",
    "GngBenchmark",
    "HelloWorldResult",
    "IntSortModel",
    "IntSortParams",
    "KERNELS",
    "KERNEL_SPECS",
    "MapleKernelBench",
    "SPECINT_2017",
    "SpecBenchmark",
    "benchmark_names",
    "fig10_speedups",
    "fig11_speedups",
    "run_helloworld",
    "total_instructions",
]
