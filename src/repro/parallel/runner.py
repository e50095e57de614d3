"""Task runner with a bit-identical-to-serial contract.

The runner is a thin, strict layer over the run farm (:mod:`repro.farm`):

* **Order-preserving merge** — results come back in task order, never
  completion order.
* **Serial short-circuit** — ``jobs=1`` (and single-task inputs) run in
  the calling process with no workers, so a parallel run can be asserted
  equal to a serial run in tests.
* **One launcher** — ``jobs=N`` submits one farm job per task to a
  one-host :func:`~repro.farm.local_farm` of ``N`` slots, whose
  persistent workers retry a crashed task instead of breaking the run.
* **Derived seeds** — :func:`task_seed` gives every task an independent,
  reproducible random stream from one root seed.

Task functions must be module-level (picklable) and pure: everything a
task needs travels in its payload, and everything it produces comes back
in its return value.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from ..engine.rng import derive_seed
from ..errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for a ``--jobs`` value: ``None``/``0`` mean one worker
    per available CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


def run_tasks(fn: Callable[[T], R], tasks: Iterable[T],
              jobs: Optional[int] = 1) -> List[R]:
    """Run ``fn`` over ``tasks``, in-process or on farm workers.

    Returns results in task order.  With ``jobs=1`` the tasks run
    serially in the calling process; with ``jobs=N`` they run on ``N``
    worker processes; with ``jobs=None``/``0`` one worker per CPU.  The
    output is identical in all three cases provided ``fn`` is pure, which
    is the package-wide contract.

    A serial task's exception propagates as is; on workers a failing
    task is retried once, then the call raises
    :class:`~repro.errors.FarmError` naming its error type and message.
    """
    task_list = list(tasks)
    n_workers = min(resolve_jobs(jobs), len(task_list))
    if n_workers <= 1:
        return [fn(task) for task in task_list]
    from ..farm import JobSpec, local_farm, run_farm

    jobs_list = [JobSpec(f"task/{index}", fn, task)
                 for index, task in enumerate(task_list)]
    result = run_farm(local_farm(slots=n_workers), jobs_list)
    return [result.value_of(job.job_id) for job in jobs_list]


def env_jobs(default: int = 1) -> int:
    """Worker count requested via ``REPRO_JOBS`` (benchmark harness).

    ``REPRO_JOBS=4 pytest benchmarks/`` parallelizes the wired benchmarks
    without changing a single artifact byte (see the package contract);
    ``0`` means one worker per CPU.
    """
    value = os.environ.get("REPRO_JOBS")
    if value is None:
        return default
    if not value.strip().isdecimal():
        raise ConfigError(
            f"REPRO_JOBS must be a whole number >= 0 (0: one worker per "
            f"CPU), got {value!r}")
    return int(value)


def task_seed(root_seed: int, name: str, index: int) -> int:
    """Reproducible per-task seed: independent streams for every
    ``(root_seed, task family, task index)``."""
    return derive_seed(root_seed, name, str(index))


def fixed_shards(items: Sequence[T], shard_size: int) -> List[List[T]]:
    """Split ``items`` into contiguous shards of ``shard_size``.

    Shard boundaries depend only on the inputs — never on the worker
    count — so anything keyed off shard composition (e.g. simulations
    sharing a prototype within a shard) stays deterministic under any
    ``jobs`` value.
    """
    if shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    return [list(items[i:i + shard_size])
            for i in range(0, len(items), shard_size)]
