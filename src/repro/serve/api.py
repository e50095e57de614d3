"""The serve wire schema: typed requests/replies with canonical JSON.

This is the one vocabulary the result service speaks.  The HTTP server
(:mod:`repro.serve.service`), the blocking client
(:class:`repro.serve.client.ServeClient`), and the ``repro query`` CLI
all encode and decode *these* dataclasses — there is no second ad-hoc
dict shape to drift out of sync.

Every message travels inside a versioned envelope, mirroring the run
archive's manifest versioning::

    {"api_version": 1, "kind": "point_query", "body": {...}}

``api_version`` is bumped when a message's meaning changes; a peer
speaking another version is refused at decode time instead of being
misread.  Bodies are canonical JSON (sorted keys), so equal messages
are equal bytes.

A :class:`PointQuery` is deliberately the store's key payload — the
same ``(family, version, config_hash, point, seed, obs)`` tuple
:func:`repro.parallel.sweep.sweep_tasks` builds — so a served hit is,
by construction, byte-identical to what ``run_sweep`` would compute.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ServeError
from ..store import canonical_value

#: Bumped when any message's meaning changes; decode refuses mismatches.
SERVE_API_VERSION = 1


def canonical_json(value) -> str:
    """Sorted-keys JSON: equal values serialize to equal bytes."""
    return json.dumps(value, sort_keys=True, default=str)


@dataclass(frozen=True)
class Message:
    """Base of every wire message; subclasses set ``KIND``."""

    KIND = ""

    def to_dict(self) -> Dict[str, object]:
        """The fields as a shallow mapping of the message's own values.

        Nothing is copied: ``to_json`` walks each value once, inside
        ``json.dumps``.  Fields therefore hold plain JSON values (dicts,
        lists, tuples, scalars), never a nested dataclass, which
        :func:`canonical_json` would only ``str()``.
        """
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    def to_wire(self) -> Dict[str, object]:
        return {"api_version": SERVE_API_VERSION, "kind": self.KIND,
                "body": self.to_dict()}

    def to_json(self) -> str:
        return canonical_json(self.to_wire())

    @classmethod
    def from_body(cls, body: Dict[str, object]) -> "Message":
        if not isinstance(body, dict):
            raise ServeError(
                f"serve: {cls.KIND} body must be a mapping, "
                f"got {type(body).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(body) - names
        if unknown:
            raise ServeError(
                f"serve: {cls.KIND} has unknown fields {sorted(unknown)} "
                f"(known: {sorted(names)})")
        try:
            return cls(**body)
        except TypeError as error:
            raise ServeError(f"serve: bad {cls.KIND} body ({error})")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServeError(f"serve: {message}")


# ----------------------------------------------------------------------
# Point queries (the store surface)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointQuery(Message):
    """One sweep point by its store identity.

    The fields *are* the store key payload — see the module docstring;
    ``obs`` is an instrumentation plane dict (None: unobserved points).
    ``seed`` is the point's derived seed
    (:func:`repro.parallel.runner.task_seed`); callers that only know
    the sweep's root seed and the point index can derive it with
    :func:`derived_seed`.
    """

    KIND = "point_query"

    family: str
    config_hash: str
    point: object
    seed: int
    version: str = "1"
    obs: Optional[dict] = None

    def __post_init__(self) -> None:
        _require(isinstance(self.family, str) and bool(self.family),
                 "point_query needs a non-empty family")
        _require(isinstance(self.config_hash, str) and bool(self.config_hash),
                 "point_query needs a non-empty config_hash")
        _require(isinstance(self.seed, int) and not isinstance(self.seed,
                                                               bool),
                 "point_query seed must be an integer")
        _require(self.obs is None or isinstance(self.obs, dict),
                 "point_query obs must be a mapping or null")

    def key_payload(self) -> Dict[str, object]:
        """The store key payload this query addresses (``obs`` in its
        canonical plane form, as ``sweep_tasks`` keys it)."""
        from ..obs.plane import canonical_plane
        return {"family": self.family, "version": str(self.version),
                "config_hash": self.config_hash,
                "point": canonical_value(self.point), "seed": self.seed,
                "obs": canonical_plane(self.obs)}


@dataclass(frozen=True)
class PointReply(Message):
    KIND = "point_reply"

    found: bool
    key: str
    value: object = None


def derived_seed(root_seed: int, family: str, index: int) -> int:
    """The derived seed of point ``index`` in a ``family`` sweep."""
    from ..parallel.runner import task_seed
    return task_seed(root_seed, family, index)


def config_hash_of(label: str, seed: int = 0) -> str:
    """The archive/store ``config_hash`` of a parsed ``AxBxC`` label."""
    from ..core.config import parse_config
    from ..obs.archive import config_hash
    return config_hash(parse_config(str(label), seed=seed))


# ----------------------------------------------------------------------
# Archives (the runs/ surface)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArchiveList(Message):
    KIND = "archive_list"

    #: One summary dict per archive: run_id, config, config_hash, seed,
    #: instrumentation_hash, metric count.
    archives: List[dict] = field(default_factory=list)


@dataclass(frozen=True)
class ArchiveReply(Message):
    KIND = "archive_reply"

    run_id: str
    manifest: dict
    metrics: dict


@dataclass(frozen=True)
class MetricQuery(Message):
    """Find metrics by glob across every archive's metrics dict."""

    KIND = "metric_query"

    glob: str

    def __post_init__(self) -> None:
        _require(isinstance(self.glob, str) and bool(self.glob),
                 "metric_query needs a non-empty glob")


@dataclass(frozen=True)
class MetricMatches(Message):
    KIND = "metric_matches"

    glob: str
    #: ``{"run_id": ..., "metric": ..., "value": ...}`` per match.
    matches: List[dict] = field(default_factory=list)


# ----------------------------------------------------------------------
# Server-side diff
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiffQuery(Message):
    """Diff two archived runs server-side under ``repro.obs.diff`` rules.

    ``rules`` entries mirror the gate-baseline shape: ``{"pattern": ...,
    "rel_tol": ..., "abs_tol": ..., "direction": ...}``.  Cross-plane
    runs (different recorded instrumentation hashes) are refused unless
    ``ignore_instrumentation`` — the same contract as ``repro diff``.
    """

    KIND = "diff_query"

    run_a: str
    run_b: str
    rules: Tuple[dict, ...] = ()
    only_violations: bool = False
    ignore_instrumentation: bool = False

    def __post_init__(self) -> None:
        _require(isinstance(self.run_a, str) and bool(self.run_a),
                 "diff_query needs run_a")
        _require(isinstance(self.run_b, str) and bool(self.run_b),
                 "diff_query needs run_b")
        object.__setattr__(self, "rules", tuple(self.rules))
        for entry in self.rules:
            _require(isinstance(entry, dict) and "pattern" in entry,
                     "diff_query rule entries need a 'pattern'")

    def rule_objects(self):
        from ..obs.diff import Rule
        rules = [Rule("*")]
        for entry in self.rules:
            rules.append(Rule(entry["pattern"],
                              abs_tol=float(entry.get("abs_tol", 0.0)),
                              rel_tol=float(entry.get("rel_tol", 0.0)),
                              direction=entry.get("direction", "both")))
        return rules


@dataclass(frozen=True)
class DiffReply(Message):
    KIND = "diff_reply"

    run_a: str
    run_b: str
    ok: bool
    violations: int
    deltas: List[dict] = field(default_factory=list)


# ----------------------------------------------------------------------
# Sweep submission (the farm surface)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSubmit(Message):
    """Submit one suite sweep; fields mirror a farm spec-file entry
    (``obs`` is the suite's instrumentation plane dict).

    Warm points are answered from the store; cold points become a farm
    fleet executed in the service's background worker.
    """

    KIND = "sweep_submit"

    suite: str
    config: str = "4x1x12"
    seed: int = 0
    root_seed: int = 0
    obs: Optional[dict] = None
    thread_counts: Optional[Tuple[int, ...]] = None   # fig8
    threads: Optional[int] = None                     # fig9
    suite_id: Optional[str] = None
    slots: int = 1

    def __post_init__(self) -> None:
        _require(isinstance(self.suite, str) and bool(self.suite),
                 "sweep_submit needs a suite name")
        if self.thread_counts is not None:
            object.__setattr__(self, "thread_counts",
                               tuple(int(t) for t in self.thread_counts))

    def entry(self) -> Dict[str, object]:
        """The equivalent farm spec-file ``suites`` entry."""
        entry: Dict[str, object] = {
            "suite": self.suite, "config": self.config,
            "seed": self.seed, "root_seed": self.root_seed,
            "slots": self.slots,
        }
        if self.obs is not None:
            entry["obs"] = self.obs
        if self.thread_counts is not None:
            entry["thread_counts"] = list(self.thread_counts)
        if self.threads is not None:
            entry["threads"] = int(self.threads)
        if self.suite_id is not None:
            entry["id"] = self.suite_id
        return entry


@dataclass(frozen=True)
class SubmitReply(Message):
    KIND = "submit_reply"

    job_id: str
    state: str
    points: int
    warm: int
    cold: int


@dataclass(frozen=True)
class JobReply(Message):
    """One submitted job's record, plus the live ``farm.json`` mirror
    when the cold fleet has a report directory."""

    KIND = "job_reply"

    job: dict
    farm: Optional[dict] = None


@dataclass(frozen=True)
class JobList(Message):
    KIND = "job_list"

    jobs: List[dict] = field(default_factory=list)


# ----------------------------------------------------------------------
# Service plumbing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Pong(Message):
    KIND = "pong"

    service: str = "repro.serve"


@dataclass(frozen=True)
class StatsReply(Message):
    KIND = "stats_reply"

    metrics: dict


@dataclass(frozen=True)
class ErrorReply(Message):
    KIND = "error"

    error: str


_KINDS = {cls.KIND: cls for cls in (
    PointQuery, PointReply, ArchiveList, ArchiveReply, MetricQuery,
    MetricMatches, DiffQuery, DiffReply, SweepSubmit, SubmitReply,
    JobReply, JobList, Pong, StatsReply, ErrorReply)}


def decode(data, expect: Optional[type] = None) -> Message:
    """Parse a wire envelope back into its typed message.

    ``data`` is JSON text/bytes or an already-parsed envelope dict.
    Refuses unknown kinds, malformed bodies, and any ``api_version``
    other than :data:`SERVE_API_VERSION`.  ``expect`` additionally pins
    the message type (:class:`ErrorReply` always passes through so
    callers can surface server errors).
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as error:
            raise ServeError(f"serve: message is not JSON ({error})")
    if not isinstance(data, dict):
        raise ServeError(
            f"serve: envelope must be a mapping, "
            f"got {type(data).__name__}")
    version = data.get("api_version")
    if version != SERVE_API_VERSION:
        raise ServeError(
            f"serve: api_version {version!r} is not supported "
            f"(this side speaks {SERVE_API_VERSION})")
    kind = data.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise ServeError(f"serve: unknown message kind {kind!r} "
                         f"(known: {sorted(_KINDS)})")
    message = cls.from_body(data.get("body") or {})
    if expect is not None and not isinstance(message, (expect, ErrorReply)):
        raise ServeError(
            f"serve: expected {expect.KIND}, got {kind}")
    return message
