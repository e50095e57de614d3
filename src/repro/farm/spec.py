"""Farm specifications: hosts, jobs, and the spec-file format.

A farm run is declared by two things: a :class:`FarmSpec` (the pool —
hosts with slot capacity plus the retry/heartbeat policy) and a list of
:class:`JobSpec`\\ s (the fleet — what to run).  Both are plain
dataclasses so programmatic callers (``farm_sweep``, ``repro serve``)
build them directly, and both round-trip through the on-disk spec file
that ``repro farm run <spec.json|yaml>`` consumes::

    {"hosts":   [{"name": "local-0", "slots": 2}],
     "max_retries": 2,
     "store":   "store",
     "report":  "farm-report",
     "suites":  [{"suite": "fig8", "config": "4x1x12"}],
     "jobs":    [{"kind": "partition-latency", "config": "2x1x2",
                  "partitions": 2}],
     "fault_injection": {"fig8/0": {"fail": 1}}}

Each ``hosts`` entry is a local host of up to ``slots`` persistent
worker processes; a host entry with any other key is rejected.
``suites`` expand to one job per sweep task through the builders in
:mod:`repro.farm.suites` — one per Fig. 7 shard, one for a whole Fig. 8
or Fig. 9 sweep (``fig8/0`` above) — the same tasks
:func:`repro.parallel.run_sweep` runs, so a farm suite and a plain
sweep of the same spec are byte-identical.  ``jobs`` are ad-hoc single
jobs (partitioned latency scans that weigh N slots, cloud-pipeline load
points).  ``fault_injection`` exists for tests and CI: it makes named
jobs fail (raise a transient error), crash (die without a word) or hang
(stop heartbeating) on their first N attempts, which is how the retry
path stays exercised.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import FarmError, ReproError


@dataclass(frozen=True)
class HostSpec:
    """One member of the pool: a name and a slot capacity.

    Every host is a :class:`~repro.farm.hosts.LocalHost`: up to
    ``slots`` persistent worker processes on this machine.
    """

    name: str
    slots: int = 1

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise FarmError(
                f"farm: host {self.name!r} needs slots >= 1, "
                f"got {self.slots}")


@dataclass(frozen=True)
class JobSpec:
    """One unit of fleet work.

    ``fn`` is a module-level (picklable) callable ``fn(payload) ->
    JSON-able result``; ``slots`` is the job's weight against a host's
    capacity (an N-partition job consumes N slots).  ``family`` and
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


@dataclass(frozen=True)
class FarmSpec:
    """The pool and its policies.

    Retry policy: a failed attempt re-queues with capped exponential
    backoff (``backoff_base * 2**(attempt-1)``, capped at
    ``backoff_cap``) until ``max_retries`` retries are spent — except a
    job that fails twice with the *same* error signature, which is
    quarantined immediately (re-running a deterministic failure buys
    nothing).  Heartbeats: workers beat every ``heartbeat_interval``
    seconds; a silent-but-alive worker (hung, or stopped with SIGSTOP)
    is terminated after ``heartbeat_timeout`` seconds and retried as a
    transient failure.  ``heartbeat_timeout=None`` means
    :data:`DEFAULT_TIMEOUT_BEATS` intervals.
    """

    hosts: Sequence[HostSpec] = field(
        default_factory=lambda: (HostSpec("local-0", slots=1),))
    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    heartbeat_interval: float = 0.2
    heartbeat_timeout: Optional[float] = None
    poll_interval: float = 0.02

    def __post_init__(self) -> None:
        if not self.hosts:
            raise FarmError("farm: at least one host is required")
        if self.max_retries < 0:
            raise FarmError(
                f"farm: max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise FarmError("farm: backoff values must be >= 0")
        names = [host.name for host in self.hosts]
        if len(set(names)) != len(names):
            raise FarmError(f"farm: duplicate host names in {names}")
        if self.heartbeat_timeout is None:
            object.__setattr__(
                self, "heartbeat_timeout",
                DEFAULT_TIMEOUT_BEATS * self.heartbeat_interval)

    @property
    def total_slots(self) -> int:
        return sum(host.slots for host in self.hosts)

    def describe(self) -> Dict[str, object]:
        return {
            "hosts": [dataclasses.asdict(host) for host in self.hosts],
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
        }


def local_farm(hosts: int = 1, slots: int = 1, **policy) -> FarmSpec:
    """A FarmSpec of ``hosts`` local hosts with ``slots`` slots each."""
    if hosts < 1:
        raise FarmError(f"farm: hosts must be >= 1, got {hosts}")
    return FarmSpec(hosts=tuple(HostSpec(f"local-{index}", slots=slots)
                                for index in range(hosts)), **policy)


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


def _load_spec_data(path: str) -> dict:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise FarmError(f"farm: cannot read spec {path}: {error}")
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:
            raise FarmError(
                "farm: YAML specs need PyYAML, which is not installed; "
                "use a .json spec instead")
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except ValueError as error:
            raise FarmError(f"farm: {path} is not valid JSON ({error})")
    if not isinstance(data, dict):
        raise FarmError(f"farm: spec {path} must be a mapping, "
                        f"got {type(data).__name__}")
    return data


def load_spec_file(path: str) -> FileSpec:
    """Parse a ``repro farm run`` spec file into pool + fleet."""
    from .suites import build_adhoc_job, build_suite_plan

    data = _load_spec_data(path)
    known = {"hosts", "max_retries", "backoff_base", "backoff_cap",
             "heartbeat_interval", "heartbeat_timeout", "store",
             "report", "suites", "jobs", "fault_injection",
             "instrumentation",
             "_comment"}   # JSON has no comments; allow the idiom
    unknown = set(data) - known
    if unknown:
        raise FarmError(
            f"farm: unknown spec keys {sorted(unknown)} "
            f"(known: {sorted(known)})")
    host_entries = data.get("hosts") or [{"name": "local-0", "slots": 1}]
    try:
        hosts = tuple(HostSpec(**entry) for entry in host_entries)
    except TypeError as error:
        raise FarmError(f"farm: bad host entry ({error})")
    policy = {key: data[key]
              for key in ("max_retries", "backoff_base", "backoff_cap",
                          "heartbeat_interval", "heartbeat_timeout")
              if key in data}
    farm = FarmSpec(hosts=hosts, **policy)

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
    by_id = {job.job_id: job for job in jobs}
    unknown = set(plan) - set(by_id)
    if unknown:
        raise FarmError(
            f"farm: fault_injection names unknown jobs {sorted(unknown)}")
    out: List[JobSpec] = []
    for job in jobs:
        inject = plan.get(job.job_id)
        if inject:
            bad = set(inject) - {"fail", "crash", "hang"}
            if bad:
                raise FarmError(
                    f"farm: fault_injection for {job.job_id!r} has "
                    f"unknown modes {sorted(bad)}")
            job = dataclasses.replace(
                job, inject_fail=int(inject.get("fail", 0)),
                inject_crash=int(inject.get("crash", 0)),
                inject_hang=int(inject.get("hang", 0)))
        out.append(job)
    return out
