"""Workloads and benchmark models from the paper's evaluation."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    ".helloworld": ("HelloWorldResult", "run_helloworld"),
    ".intsort": ("CLASS_C_KEYS", "IntSortModel", "IntSortParams"),
    ".maple_kernels": ("KERNELS", "KERNEL_SPECS", "MapleKernelBench",
                       "fig11_speedups"),
    ".noise": ("GngBenchmark", "fig10_speedups"),
    ".spec": ("SPECINT_2017", "SpecBenchmark", "benchmark_names",
              "total_instructions"),
})
