"""Suite builders: sweeps and ad-hoc runs as farm fleets.

The byte-identity contract lives here.  A suite is a
:class:`~repro.parallel.sweep.SweepSpec` expanded into one
:class:`~repro.farm.spec.JobSpec` per task via
:func:`~repro.parallel.sweep.sweep_tasks` and
:func:`~repro.parallel.sweep.sweep_groups` — the *same* point tasks,
derived seeds, store-key payloads and task grouping ``run_sweep`` would
build: one job per Fig. 7 shard, one job for a whole Fig. 8 or Fig. 9
sweep — and every job runs
:func:`~repro.parallel.sweep.sweep_group_task`, the *same* callable
``run_sweep`` would run.  The fold back into a
:class:`~repro.parallel.sweep.SweepResult` goes through the shared
:func:`~repro.parallel.sweep.collect_sweep` in point order.  Nothing is
left to agree by coincidence: serial == farm, byte for byte, at any
host/slot count — asserted by tests/test_farm.py and the CI
``farm-smoke`` job.  ``run_sweep(spec, jobs=N)`` is :func:`farm_sweep`
on a one-host farm of N slots when the sweep has more than one task.

Ad-hoc job kinds cover the runs that are not sweep points: a
partitioned latency scan (slot weight = partition count, since the job
itself fans out N shard processes) and a cloud-pipeline load point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import FarmError
from ..parallel.sweep import (SweepResult, SweepSpec, collect_sweep,
                              sweep_group_task, sweep_groups, sweep_tasks)
from .scheduler import FarmResult, run_farm
from .spec import FarmSpec, JobSpec

#: Spec-file suite names -> builder of a SweepSpec from the entry.
_SUITE_FAMILIES = ("fig7", "fig8", "fig9")


@dataclass
class SuitePlan:
    """One suite, planned: its sweep spec, hash, and expanded jobs."""

    suite_id: str
    spec: SweepSpec
    config_hash: str
    jobs: List[JobSpec] = field(default_factory=list)
    store_root: Optional[str] = None


def plan_sweep(spec: SweepSpec, store_root: Optional[str] = None,
               suite_id: Optional[str] = None,
               slots: int = 1) -> SuitePlan:
    """Expand a sweep into farm jobs (one per task, in point order)."""
    from ..obs.plane import plane_hash

    suite_id = suite_id or spec.family
    cfg_hash, tasks = sweep_tasks(spec, store_root=store_root)
    inst_hash = plane_hash(spec.obs_spec)
    jobs = [JobSpec(job_id=f"{suite_id}/{index}", fn=sweep_group_task,
                    payload=group, slots=slots, family=spec.family,
                    index=index, instrumentation=inst_hash)
            for index, group in enumerate(sweep_groups(spec, tasks))]
    return SuitePlan(suite_id=suite_id, spec=spec, config_hash=cfg_hash,
                     jobs=jobs, store_root=store_root)


def finish_suite(plan: SuitePlan, result: FarmResult,
                 store=None) -> SweepResult:
    """Fold a suite's farm results back into a :class:`SweepResult`.

    Raises :class:`FarmError` if any of the suite's jobs ended failed
    or quarantined — a sweep with holes has no meaningful merge.
    """
    broken = [result.state_of(job.job_id) for job in plan.jobs
              if result.state_of(job.job_id).state != "done"]
    if broken:
        details = "; ".join(
            f"{state.job_id} {state.state}"
            + (f" ({state.error['type']}: {state.error['text']})"
               if state.error else "")
            for state in broken)
        raise FarmError(
            f"farm: suite {plan.suite_id!r} is incomplete — {details}")
    ordered = [point for job in plan.jobs
               for point in result.value_of(job.job_id)]
    return collect_sweep(plan.spec, plan.config_hash, ordered,
                         store=store)


def farm_sweep(spec: SweepSpec, farm: FarmSpec, store=None,
               report_dir: Optional[str] = None) -> SweepResult:
    """Run one sweep as a farm fleet; byte-identical to
    :func:`~repro.parallel.run_sweep` of the same spec.

    With a ``store`` the points memoize through the same content
    addresses, and the caller's store instance ends up with the whole
    sweep's counters, exactly as ``run_sweep`` leaves it.
    """
    plan = plan_sweep(
        spec, store_root=store.root if store is not None else None)
    result = run_farm(farm, plan.jobs, report_dir=report_dir)
    sweep_result = finish_suite(plan, result, store=store)
    if report_dir is not None:
        from .report import collect_report
        collect_report(report_dir, result, store=store,
                       suite_values={plan.suite_id: _suite_entry(
                           plan, sweep_result)})
    return sweep_result


def _suite_entry(plan: SuitePlan, sweep_result: SweepResult) -> dict:
    """The ``suites/<id>.json`` payload for one merged suite."""
    entry: Dict[str, object] = {
        "suite_id": plan.suite_id,
        "family": plan.spec.family,
        "config_hash": sweep_result.config_hash,
        "points": sweep_result.points,
        "hits": sweep_result.hits,
        "misses": sweep_result.misses,
        "value": sweep_result.value,
    }
    if (isinstance(sweep_result.value, dict)
            and isinstance(sweep_result.value.get("series"), dict)):
        entry["series"] = sweep_result.value["series"]
    return entry


def run_file_spec(filespec, report_dir: Optional[str] = None,
                  command: Optional[list] = None):
    """Run a parsed spec file end to end (the ``repro farm run`` body).

    Returns ``(FarmResult, suite_entries, suite_errors)`` — suites whose
    jobs all finished merge into ``suite_entries`` (the
    ``suites/<id>.json`` payloads); incomplete ones land in
    ``suite_errors`` instead of raising, so one broken suite cannot
    hide the rest of the fleet's report.
    """
    store = None
    if filespec.store:
        from ..store import ResultStore
        store = ResultStore(filespec.store)
    result = run_farm(filespec.farm, filespec.jobs, report_dir=report_dir)
    suite_entries: Dict[str, dict] = {}
    suite_errors: List[str] = []
    for plan in filespec.suites:
        try:
            sweep_result = finish_suite(plan, result, store=store)
        except FarmError as error:
            suite_errors.append(str(error))
            continue
        suite_entries[plan.suite_id] = _suite_entry(plan, sweep_result)
    if report_dir is not None:
        from .report import collect_report
        collect_report(report_dir, result, store=store,
                       suite_values=suite_entries or None,
                       command=command)
    return result, suite_entries, suite_errors


# ----------------------------------------------------------------------
# Spec-file suite entries ({"suite": "fig8", "config": "4x1x12", ...})
# ----------------------------------------------------------------------

def _suite_sweep_spec(entry: dict,
                      instrumentation: Optional[dict] = None) -> SweepSpec:
    from ..core.config import parse_config
    from ..parallel import fig8_spec, fig9_spec, latency_matrix_spec

    name = entry.get("suite")
    config = parse_config(str(entry.get("config", "4x1x12")),
                          seed=int(entry.get("seed", 0)))
    root_seed = int(entry.get("root_seed", 0))
    obs_spec = entry.get("obs", {})
    if obs_spec is not None and not isinstance(obs_spec, dict):
        raise FarmError(f"farm: suite {name!r} obs must be a mapping "
                        f"or null, got {type(obs_spec).__name__}")
    if instrumentation is not None and "obs" not in entry:
        # The spec-file's top-level plane instruments every suite that
        # does not pin its own plane (an explicit 'obs' wins).
        obs_spec = instrumentation
    if name == "fig8":
        thread_counts = tuple(
            int(t) for t in entry.get("thread_counts",
                                      (3, 6, 12, 24, 48)))
        return fig8_spec(config, thread_counts=thread_counts,
                         root_seed=root_seed, obs_spec=obs_spec)
    if name == "fig9":
        return fig9_spec(config, n_threads=int(entry.get("threads", 12)),
                         root_seed=root_seed, obs_spec=obs_spec)
    if name == "fig7":
        return latency_matrix_spec(config, root_seed=root_seed,
                                   obs_spec=obs_spec)
    raise FarmError(f"farm: unknown suite {name!r} "
                    f"(known: {list(_SUITE_FAMILIES)})")


def build_suite_plan(entry: dict,
                     store_root: Optional[str] = None,
                     instrumentation: Optional[dict] = None) -> SuitePlan:
    """A spec-file ``suites`` entry, planned into jobs."""
    if not isinstance(entry, dict) or "suite" not in entry:
        raise FarmError(
            f"farm: every suites entry needs a 'suite' key, got {entry!r}")
    spec = _suite_sweep_spec(entry, instrumentation=instrumentation)
    suite_id = str(entry.get("id", entry["suite"]))
    return plan_sweep(spec, store_root=store_root, suite_id=suite_id,
                      slots=int(entry.get("slots", 1)))


# ----------------------------------------------------------------------
# Ad-hoc jobs ({"kind": "partition-latency" | "cloud", ...})
# ----------------------------------------------------------------------

def partition_latency_job(payload: dict) -> dict:
    """One partitioned latency scan as a single (slot-weighted) job.

    The job itself fans out ``partitions`` shard worker processes, so
    its farm slot weight equals the partition count.
    """
    from ..core.config import parse_config
    from ..core.prototype import Prototype

    config = parse_config(payload["config"],
                          seed=int(payload.get("seed", 0)))
    proto = Prototype(config, partitions=int(payload["partitions"]),
                      obs_spec=payload.get("instrument") or {})
    try:
        total = config.total_tiles
        latencies = [proto.measure_pair_latency(0, receiver)
                     for receiver in range(1, total)]
        metrics = proto.merged_metrics()
        metrics.update({
            name: value
            for name, value in proto.partition_metrics().items()
            if not name.endswith("_seconds")})
    finally:
        proto.close()
    return {"value": {"latencies": latencies,
                      "mean": sum(latencies) / len(latencies)},
            "metrics": metrics}


def cloud_load_job(payload: dict) -> dict:
    """One cloud-pipeline load point: N requests through Fig. 12."""
    from ..cloud import CloudPipeline

    pipeline = CloudPipeline(payload.get("config", "1x1x4"),
                             seed=int(payload.get("seed", 23)))
    pipeline.seed_object("data", b'{"sensor": 42, "status": "ok"}')
    requests = int(payload.get("requests", 4))
    path = str(payload.get("path", "/data"))
    totals = [pipeline.run_request(path).total_ms
              for _ in range(requests)]
    return {"value": {"total_ms": totals,
                      "mean_ms": sum(totals) / len(totals)},
            "metrics": {"obs.cloud.requests": requests}}


def build_adhoc_job(entry: dict,
                    instrumentation: Optional[dict] = None) -> JobSpec:
    """A spec-file ``jobs`` entry (non-sweep work) as one JobSpec."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise FarmError(
            f"farm: every jobs entry needs a 'kind' key, got {entry!r}")
    kind = str(entry["kind"]).replace("_", "-")
    if kind == "partition-latency":
        from ..core.config import parse_config
        from ..obs.plane import plane_hash
        from ..partition import resolve_partitions

        config_label = str(entry.get("config", "2x1x2"))
        config = parse_config(config_label,
                              seed=int(entry.get("seed", 0)))
        partitions = resolve_partitions(
            config, int(entry.get("partitions", 0)))
        if partitions < 2:
            raise FarmError(
                f"farm: partition-latency on {config_label} resolves to "
                f"{partitions} partition(s); needs >= 2")
        job_id = str(entry.get("id",
                               f"partition/{config_label}x{partitions}"))
        return JobSpec(
            job_id=job_id, fn=partition_latency_job,
            payload={"config": config_label,
                     "seed": int(entry.get("seed", 0)),
                     "partitions": partitions,
                     "instrument": instrumentation},
            slots=int(entry.get("slots", partitions)),
            family="partition",
            instrumentation=plane_hash(instrumentation))
    if kind == "cloud":
        job_id = str(entry.get("id", f"cloud/{entry.get('path', '/data')}"
                               .replace("//", "/")))
        return JobSpec(
            job_id=job_id, fn=cloud_load_job,
            payload={"config": str(entry.get("config", "1x1x4")),
                     "seed": int(entry.get("seed", 23)),
                     "requests": int(entry.get("requests", 4)),
                     "path": str(entry.get("path", "/data"))},
            slots=int(entry.get("slots", 1)),
            family="cloud")
    raise FarmError(f"farm: unknown job kind {entry['kind']!r} "
                    f"(known: partition-latency, cloud)")
