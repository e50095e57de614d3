"""Farm specifications: the pool, jobs, and the spec-file format.

A farm run is declared by two things: a :class:`FarmSpec` (the pool —
a number of local worker slots plus the retry/heartbeat policy) and a
list of :class:`JobSpec`\\ s (the fleet — what to run).  Both are plain
dataclasses so programmatic callers (``farm_sweep``, ``repro serve``)
build them directly, and both round-trip through the on-disk spec file
that ``repro farm run <spec.json|yaml>`` consumes::

    {"slots":   2,
     "max_retries": 2,
     "store":   "store",
     "report":  "farm-report",
     "suites":  [{"suite": "fig8", "config": "4x1x12"}],
     "jobs":    [{"kind": "partition-latency", "config": "2x1x2",
                  "partitions": 2}],
     "fault_injection": {"fig8/0": {"fail": 1}}}

``slots`` sizes one pool of persistent local worker processes.
``suites`` expand to one job per sweep task through the builders in
:mod:`repro.farm.suites` — one per Fig. 7 shard, one for a whole Fig. 8
or Fig. 9 sweep (``fig8/0`` above) — the same tasks
:func:`repro.parallel.run_sweep` runs, so a farm suite and a plain
sweep of the same spec are byte-identical.  ``jobs`` are ad-hoc single
jobs: partitioned latency scans that weigh N slots.
``fault_injection`` exists for tests and CI: it makes named jobs fail
(raise a transient error), crash (die without a word) or hang (stop
heartbeating) on their first N attempts, which is how the retry path
stays exercised.  A spec file is outside input: a key it may not name,
or a count or interval of the wrong type or range, is a
:class:`~repro.errors.FarmError` naming the key.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import FarmError, ReproError


@dataclass(frozen=True)
class JobSpec:
    """One unit of fleet work.

    ``fn`` is a module-level (picklable) callable ``fn(payload) ->
    JSON-able result``; ``slots`` is the job's weight against the
    pool's capacity (an N-partition job consumes N slots).  ``family`` and
    ``index`` (the task's place in its sweep) identify sweep membership
    so suite results merge in point order regardless of completion
    order.  ``inject_fail`` / ``inject_crash`` are the fault-injection
    knobs: the job raises a transient error / dies silently on its first
    N attempts.
    """

    job_id: str
    fn: Callable
    payload: object
    slots: int = 1
    family: Optional[str] = None
    index: Optional[int] = None
    instrumentation: Optional[str] = None   # plane spec hash, if any
    inject_fail: int = 0
    inject_crash: int = 0
    inject_hang: int = 0

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise FarmError(
                f"farm: job {self.job_id!r} needs slots >= 1, "
                f"got {self.slots}")

    def describe(self) -> Dict[str, object]:
        """The job's JSON-able identity for the report manifest."""
        return {"job_id": self.job_id, "family": self.family,
                "index": self.index, "slots": self.slots,
                "instrumentation": self.instrumentation}


#: Heartbeat intervals a worker may stay silent before it is terminated,
#: when ``heartbeat_timeout`` is left unset (10 s at the default 0.2 s).
#: Heartbeats come from a thread, so a long simulation still beats.
DEFAULT_TIMEOUT_BEATS = 50


def _count(value, key: str, minimum: Optional[int] = 0) -> int:
    """A whole number >= ``minimum`` (any whole number when ``minimum``
    is None), else a FarmError naming ``key``."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise FarmError(f"farm: {key} must be an integer{bound}, "
                        f"got {value!r}")
    return value


def _seconds(value, key: str, allow_zero: bool = False) -> float:
    """A duration > 0 (or >= 0), else a FarmError naming ``key``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (value >= 0 if allow_zero else value > 0)):
        raise FarmError(f"farm: {key} must be a number "
                        f"{'>=' if allow_zero else '>'} 0, got {value!r}")
    return value


@dataclass(frozen=True)
class FarmSpec:
    """The pool and its policies.

    ``slots`` local worker slots run jobs; a job holds ``job.slots`` of
    them for its whole attempt.  Retry policy: a failed attempt
    re-queues with exponential backoff (``backoff_base *
    2**(attempt-1)``, capped at
    :data:`~repro.farm.scheduler.BACKOFF_CAP`) until ``max_retries``
    retries are spent — except a job that fails twice with the *same*
    error signature, which is quarantined immediately (re-running a
    deterministic failure buys nothing).  Heartbeats: workers beat
    every ``heartbeat_interval`` seconds; a silent-but-alive worker
    (hung, or stopped with SIGSTOP) is terminated after
    ``heartbeat_timeout`` seconds and retried as a transient failure.
    ``heartbeat_timeout=None`` means :data:`DEFAULT_TIMEOUT_BEATS`
    intervals.
    """

    slots: int = 1
    max_retries: int = 2
    backoff_base: float = 0.25
    heartbeat_interval: float = 0.2
    heartbeat_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        _count(self.slots, "slots", minimum=1)
        _count(self.max_retries, "max_retries")
        _seconds(self.backoff_base, "backoff_base", allow_zero=True)
        _seconds(self.heartbeat_interval, "heartbeat_interval")
        if self.heartbeat_timeout is None:
            object.__setattr__(
                self, "heartbeat_timeout",
                DEFAULT_TIMEOUT_BEATS * self.heartbeat_interval)
        _seconds(self.heartbeat_timeout, "heartbeat_timeout")

    def describe(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def local_farm(slots: int = 1, **policy) -> FarmSpec:
    """A FarmSpec of ``slots`` local worker slots."""
    return FarmSpec(slots=slots, **policy)


# ----------------------------------------------------------------------
# Spec files (repro farm run <spec.json|yaml>)
# ----------------------------------------------------------------------

@dataclass
class FileSpec:
    """A parsed spec file: the pool, the fleet, and the run options.

    ``instrumentation`` is the resolved canonical plane dict the spec's
    top-level ``instrumentation`` key declared (a spec-file path or an
    inline mapping) — applied to every suite without its own ``obs``
    key and every partition-latency job.
    """

    farm: FarmSpec
    jobs: List[JobSpec]
    suites: List["SuitePlan"]
    store: Optional[str] = None
    report: Optional[str] = None
    instrumentation: Optional[dict] = None


def _resolve_instrumentation(value, base_dir: str) -> Optional[dict]:
    """The spec's ``instrumentation`` key → a canonical plane dict.

    A string is a plane spec file, resolved relative to the farm spec's
    own directory; a mapping is an inline plane spec.
    """
    if value is None:
        return None
    from ..obs.plane import as_plane, load_plane
    try:
        if isinstance(value, str):
            spec_path = (value if os.path.isabs(value)
                         else os.path.join(base_dir, value))
            return load_plane(spec_path).to_dict()
        if isinstance(value, dict):
            return as_plane(value).to_dict()
    except FarmError:
        raise
    except ReproError as error:
        raise FarmError(f"farm: bad instrumentation spec ({error})")
    raise FarmError(
        f"farm: instrumentation must be a plane spec-file path or a "
        f"mapping, got {type(value).__name__}")


def load_spec_file(path: str) -> FileSpec:
    """Parse a ``repro farm run`` spec file into pool + fleet."""
    from ..obs.plane import read_spec_file
    from .suites import build_adhoc_job, build_suite_plan

    data = read_spec_file(path, "farm", FarmError)
    policy_keys = [spec_field.name
                   for spec_field in dataclasses.fields(FarmSpec)]
    known = {*policy_keys, "store", "report", "suites", "jobs",
             "fault_injection", "instrumentation",
             "_comment"}   # JSON has no comments; allow the idiom
    unknown = set(data) - known
    if unknown:
        raise FarmError(
            f"farm: unknown spec keys {sorted(unknown)} "
            f"(known: {sorted(known)})")
    farm = FarmSpec(**{key: data[key] for key in policy_keys
                       if key in data})

    store_root = data.get("store") or None
    instrumentation = _resolve_instrumentation(
        data.get("instrumentation"),
        os.path.dirname(os.path.abspath(path)))
    suites: List["SuitePlan"] = []
    jobs: List[JobSpec] = []
    for entry in data.get("suites") or []:
        plan = build_suite_plan(entry, store_root=store_root,
                                instrumentation=instrumentation)
        suites.append(plan)
        jobs.extend(plan.jobs)
    for entry in data.get("jobs") or []:
        jobs.append(build_adhoc_job(entry,
                                    instrumentation=instrumentation))
    if not jobs:
        raise FarmError(f"farm: spec {path} declares no suites or jobs")
    job_ids = [job.job_id for job in jobs]
    if len(set(job_ids)) != len(job_ids):
        raise FarmError(f"farm: duplicate job ids in spec: "
                        f"{sorted(set(j for j in job_ids if job_ids.count(j) > 1))}")
    jobs = apply_fault_injection(jobs, data.get("fault_injection") or {})
    return FileSpec(farm=farm, jobs=jobs, suites=suites,
                    store=store_root, report=data.get("report") or None,
                    instrumentation=instrumentation)


def apply_fault_injection(jobs: Sequence[JobSpec],
                          plan: Dict[str, dict]) -> List[JobSpec]:
    """Rewrite jobs named in ``plan`` with their injection counts.

    ``plan`` maps job id to ``{"fail": N}`` / ``{"crash": N}`` /
    ``{"hang": N}`` — the first N attempts of that job raise a
    transient error, die silently, or stop heartbeating.
    """
    if not isinstance(plan, dict):
        raise FarmError(f"farm: fault_injection must be a mapping of job "
                        f"ids, got {type(plan).__name__}")
    by_id = {job.job_id: job for job in jobs}
    unknown = set(plan) - set(by_id)
    if unknown:
        raise FarmError(
            f"farm: fault_injection names unknown jobs {sorted(unknown)}")
    out: List[JobSpec] = []
    for job in jobs:
        inject = plan.get(job.job_id)
        if inject is not None and not isinstance(inject, dict):
            raise FarmError(
                f"farm: fault_injection for {job.job_id!r} must be a "
                f"mapping of modes to counts, got {inject!r}")
        if inject:
            bad = set(inject) - {"fail", "crash", "hang"}
            if bad:
                raise FarmError(
                    f"farm: fault_injection for {job.job_id!r} has "
                    f"unknown modes {sorted(bad)}")
            key = f"fault_injection[{job.job_id!r}]"
            job = dataclasses.replace(job, **{
                f"inject_{mode}": _count(inject.get(mode, 0),
                                         f"{key}.{mode}")
                for mode in ("fail", "crash", "hang")})
        out.append(job)
    return out
