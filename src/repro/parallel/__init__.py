"""Deterministic parallel execution of independent simulations.

Every large SMAPPIC artifact is embarrassingly parallel at the granularity
of whole simulations: the Fig. 7 heatmap is 2304 independent coherence
probes, the GNG grid is benchmark x mode cells, the ablations sweep
configuration points.  This package shards such work with a hard
determinism contract: results are **bit-identical to serial execution at
any worker count**, because sharding (which simulations share state) is
fixed independently of ``jobs``, every task derives its random seed from
the root seed and its own identity, and the merge preserves task order.

:func:`~repro.parallel.sweep.run_sweep` is the one sweep entry point —
a :class:`~repro.parallel.sweep.SweepSpec` names the config, the point
list, the point function, and the merge, and optionally memoizes every
point in a :class:`~repro.store.ResultStore` (warm reruns skip
simulation entirely).  ``run_tasks`` maps a function over a task list
for the non-sweep grids.  At ``jobs > 1`` both run their tasks on the
persistent local workers of :mod:`repro.farm` (imported on first use),
the one process launcher, which retries a crashed task; a sweep of one
task (Fig. 8 or Fig. 9) stays in-process.
:mod:`repro.parallel.probes` builds the Fig. 7 latency specs and
:mod:`repro.parallel.osmodel` the Fig. 8/9 OS-model specs.
"""

from .._lazy import lazy_exports

__all__ = [
    "SweepResult",
    "SweepSpec",
    "collect_sweep",
    "env_jobs",
    "fig8_spec",
    "fig9_spec",
    "fixed_shards",
    "latency_matrix_spec",
    "resolve_jobs",
    "run_sweep",
    "run_tasks",
    "sweep_point_task",
    "sweep_tasks",
    "task_seed",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".osmodel": ("fig8_spec", "fig9_spec"),
    ".probes": ("latency_matrix_spec",),
    ".runner": ("env_jobs", "fixed_shards", "resolve_jobs", "run_tasks",
                "task_seed"),
    ".sweep": ("SweepResult", "SweepSpec", "collect_sweep", "run_sweep",
               "sweep_point_task", "sweep_tasks"),
})
