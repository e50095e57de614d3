"""One sweep API: ``run_sweep(SweepSpec)`` with store-backed memoization.

Every sharded experiment in this repo has the same shape: a
configuration, a list of independent sweep points, a module-level point
function evaluated once per point (in-process or on farm workers), and
a merge that folds per-point values in point order.  ``run_sweep``
is that shape as a single entry point (the legacy ``sharded_*`` wrapper
names are gone — build a spec and call ``run_sweep``).

The store hook lives here and only here: when a
:class:`~repro.store.ResultStore` is passed, every point first checks
the store under the point's content address — ``(family, version,
config_hash, point, seed, obs spec)`` — and only simulates on a miss,
publishing the result for the next run.  ``config_hash`` is computed
**once** per sweep and travels inside every task payload, so store keys
and archive manifests can never disagree within one run.

Determinism contract (inherited from :mod:`repro.parallel.runner`, now
extended to the cache): point values are canonicalized through a JSON
round trip before anything compares or merges them, so *serial ==
parallel == cached*, byte for byte, at any worker count — asserted by
tests/test_store.py.

The unit of execution is the *task*, not the point.  A task is a tuple
of point tasks run in order by :func:`sweep_group_task`, in-process or
as one farm job.  A spec with ``one_task`` (the Fig. 8/9 sweeps) runs
every point in one task; any other spec runs one point per task (the
Fig. 7 shards).  Work that the points of one task repeat bit-identically
(the Fig. 8/9 machine measurement) goes through :func:`sweep_cached`,
which computes it once per task.  That memo is not a second store: it
is emptied when its task returns or raises, in every mode, and changes
no point value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..store import ResultStore, canonical_value, entry_key
from .runner import resolve_jobs, task_seed

#: A point task: (point fn, config, point payload, derived seed,
#: observer spec, store root or None, store key payload).
_SweepTask = Tuple[Callable, object, object, int, Optional[dict],
                   Optional[str], Dict[str, object]]

#: :func:`sweep_cached` values for the task running in this process.
_SWEEP_CACHE: Dict[Hashable, object] = {}


def sweep_cached(key: Hashable, compute: Callable[[], object]):
    """``compute()``, evaluated once per ``key`` for the current task.

    Lifetime is one task: :func:`sweep_group_task` empties the cache when
    the task returns or raises, whether it runs in-process or on a farm
    worker.  ``key`` must name every input of ``compute``, and callers
    must not mutate the value they get back.
    """
    try:
        return _SWEEP_CACHE[key]
    except KeyError:
        value = _SWEEP_CACHE[key] = compute()
        return value


@dataclass(frozen=True)
class SweepSpec:
    """Everything that defines one sharded sweep.

    ``point_fn`` must be module-level (picklable) and pure:
    ``point_fn(config, point, seed, obs_spec)`` returns a JSON-able
    value.  ``merge_fn`` folds the ordered list of point values into the
    sweep's result and must itself stay JSON-able.  ``version`` is the
    point function's cache generation: bump it whenever the measurement
    changes meaning and every stored entry for the family goes stale.

    ``obs_spec`` is an :class:`~repro.obs.plane.InstrumentationPlane`
    dict (None: no observer at all); every worker gets its canonical
    form.  Because that form is part of each point's store-key payload,
    two sweeps under different planes can never share cached results,
    and two spellings of one plane always do.

    ``one_task`` runs every point in one task, for sweeps whose points
    share costly work through :func:`sweep_cached` and are cheap after
    it: that work is then done once per sweep at any ``jobs``.  It
    changes no point, seed or store key.
    """

    family: str
    config: object
    points: Sequence
    point_fn: Callable
    merge_fn: Optional[Callable] = None
    version: str = "1"
    root_seed: int = 0
    obs_spec: Optional[dict] = None
    one_task: bool = False


@dataclass
class SweepResult:
    """A finished sweep: the merged value plus cache accounting."""

    value: object
    values: List[object]
    config_hash: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def points(self) -> int:
        return len(self.values)

    warm: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self.warm = bool(self.values) and self.misses == 0 and self.hits > 0


def sweep_point_task(task: _SweepTask):
    """Evaluate one sweep point, consulting the store first.

    Returns ``(canonical value, hit?, evictions, writes)`` — the cache
    counters ride back to the caller, which folds them into its own
    store instance.
    """
    point_fn, config, point, seed, obs_spec, store_root, payload = task
    store = None
    if store_root is not None:
        store = ResultStore(store_root)
        found, value = store.load(entry_key(payload))
        if found:
            return value, True, store.evictions, 0
    value = canonical_value(point_fn(config, point, seed, obs_spec))
    if store is not None:
        store.put(entry_key(payload), value, payload=payload)
    return (value, False,
            store.evictions if store else 0,
            store.writes if store else 0)


def sweep_group_task(group: Sequence[_SweepTask]) -> List[tuple]:
    """Evaluate one task, a group of point tasks, in point order.

    The serial sweep and every farm job run this *same* callable, which
    is what makes a farm suite byte-identical to a serial ``run_sweep``
    by construction.  Each point is looked up in the store before it is
    simulated, so :func:`sweep_cached` work is done at the task's first
    miss and not at all when every point is warm.  Returns one
    :func:`sweep_point_task` result per point.
    """
    try:
        return [sweep_point_task(task) for task in group]
    finally:
        _SWEEP_CACHE.clear()


def sweep_groups(spec: SweepSpec, tasks: Sequence[_SweepTask]
                 ) -> List[Tuple[_SweepTask, ...]]:
    """Split the point tasks of ``spec`` into the tasks that run them:
    one holding every point under ``spec.one_task``, else one per point.
    """
    if spec.one_task and tasks:
        return [tuple(tasks)]
    return [(task,) for task in tasks]


def sweep_tasks(spec: SweepSpec,
                store_root: Optional[str] = None
                ) -> Tuple[str, List[_SweepTask]]:
    """``(config_hash, ordered point task list)`` for one sweep.

    The single source of point identity — task composition, derived
    seeds, and store key payloads (each point task's last element) —
    shared by the serial :func:`run_sweep`, the :mod:`repro.farm` suite
    builders and serve, so all of them address the same cache entries
    and produce the same values for the same spec.
    :func:`sweep_groups` then groups these point tasks into the tasks
    that run them.
    """
    from ..obs.archive import config_hash
    from ..obs.plane import canonical_plane

    cfg_hash = config_hash(spec.config)
    obs_spec = canonical_plane(spec.obs_spec)
    tasks: List[_SweepTask] = []
    for index, point in enumerate(spec.points):
        point = canonical_value(point)
        seed = task_seed(spec.root_seed, spec.family, index)
        payload = {
            "family": spec.family,
            "version": spec.version,
            "config_hash": cfg_hash,
            "point": point,
            "seed": seed,
            "obs": obs_spec,
        }
        tasks.append((spec.point_fn, spec.config, point, seed,
                      obs_spec, store_root, payload))
    return cfg_hash, tasks


def collect_sweep(spec: SweepSpec, cfg_hash: str, results: Sequence,
                  store: Optional[ResultStore] = None) -> SweepResult:
    """Fold ordered worker results into a :class:`SweepResult`.

    ``results`` are :func:`sweep_point_task` returns in point order; the
    fold (value extraction, counter accounting, ``merge_fn``) is shared
    by the serial sweep, farm suites and serve fleets, so *how* the
    points ran can never change what the sweep is worth.
    """
    values = [value for value, _hit, _evicted, _writes in results]
    hits = sum(1 for _v, hit, _e, _w in results if hit)
    misses = len(results) - hits
    evictions = sum(evicted for _v, _h, evicted, _w in results)
    if store is not None:
        store.record(hits=hits, misses=misses, evictions=evictions,
                     writes=sum(w for _v, _h, _e, w in results))
    merged = spec.merge_fn(values) if spec.merge_fn else values
    return SweepResult(value=merged, values=values, config_hash=cfg_hash,
                       hits=hits, misses=misses, evictions=evictions)


def run_sweep(spec: SweepSpec, jobs: Optional[int] = 1,
              store: Optional[ResultStore] = None) -> SweepResult:
    """Run one sweep: shard, memoize, merge.

    ``jobs`` follows the package contract (1 = in-process serial, N =
    :func:`repro.farm.farm_sweep` on a farm of ``N`` slots,
    0/None = one slot per CPU; results identical everywhere).  The farm
    is sized by tasks, so a ``one_task`` sweep runs in-process at any
    ``jobs``.  On the farm a crashed task is retried, and a task that
    cannot finish raises :class:`~repro.errors.FarmError`.  With a
    ``store``, every point is looked up before it is simulated and
    published after; the caller's store instance ends up with the whole
    sweep's hit/miss/evict/write counters regardless of where the
    points ran.
    """
    cfg_hash, tasks = sweep_tasks(
        spec, store_root=store.root if store is not None else None)
    groups = sweep_groups(spec, tasks)
    n_workers = min(resolve_jobs(jobs), len(groups))
    if n_workers > 1:
        from ..farm import farm_sweep, local_farm
        return farm_sweep(spec, local_farm(slots=n_workers), store)
    results = [result for group in groups
               for result in sweep_group_task(group)]
    return collect_sweep(spec, cfg_hash, results, store=store)
