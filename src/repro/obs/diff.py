"""Cross-run metric diffing and the CI regression gate.

``repro diff RUN_A RUN_B`` compares two metric dumps — run-archive
directories, raw flat metric JSON files, or ``{"metrics": ...}`` bundles
— and reports per-metric deltas.  Tolerances are *rules*: glob patterns
over the dotted metric names with an absolute and a relative allowance
and a guarded direction, evaluated last-match-wins so a baseline can say
"everything exact, except throughput may drift 30% down"::

    rules = [Rule("*"),                                   # exact
             Rule("*.utilization", rel_tol=0.05),         # ±5%
             Rule("events_per_sec", rel_tol=0.3,
                  direction="lower")]                     # no slowdowns

A metric violates when its delta exceeds *both* the absolute and the
relative allowance in a guarded direction (so ``abs_tol`` forgives noise
on near-zero metrics that any relative bound would flag).  Metrics
present on one side only are violations in plain diff mode; gate mode
(:func:`gate_rules`) checks exactly the metrics the baseline lists and
ignores extras in the current run, because a gate is a contract on named
numbers, not a schema freeze.

Histogram entries (dicts embedding exact counts) short-circuit on
equality; otherwise their ``count`` and ``mean`` summaries are compared
under the same rule.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .archive import RunArchive, _is_histogram_entry

_DIRECTIONS = ("both", "lower", "upper")


@dataclass(frozen=True)
class Rule:
    """One tolerance rule: glob pattern + allowances + guarded direction.

    ``direction="lower"`` only flags decreases (B below A), ``"upper"``
    only increases; deltas the rule leaves unguarded pass outright.
    """

    pattern: str
    abs_tol: float = 0.0
    rel_tol: float = 0.0
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ReproError(
                f"diff: tolerances must be >= 0 in rule {self.pattern!r}")
        if self.direction not in _DIRECTIONS:
            raise ReproError(
                f"diff: direction must be one of {_DIRECTIONS}, got "
                f"{self.direction!r} in rule {self.pattern!r}")

    def matches(self, name: str) -> bool:
        return fnmatchcase(name, self.pattern)

    def allows(self, a: float, b: float) -> bool:
        """Is ``b`` within this rule's allowance of ``a``?"""
        delta = b - a
        if delta == 0:
            return True
        if self.direction == "lower" and delta > 0:
            return True
        if self.direction == "upper" and delta < 0:
            return True
        if abs(delta) <= self.abs_tol:
            return True
        return a != 0 and abs(delta) / abs(a) <= self.rel_tol


#: Exact comparison everywhere: the default rule set.
EXACT = (Rule("*"),)


@dataclass
class Delta:
    """One compared metric (or one side-only metric)."""

    name: str
    a: object = None
    b: object = None
    status: str = "ok"            # ok | violation | missing_a | missing_b
    rule: Optional[Rule] = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def abs_delta(self) -> Optional[float]:
        if isinstance(self.a, (int, float)) and isinstance(self.b,
                                                           (int, float)):
            return self.b - self.a
        return None

    @property
    def rel_delta(self) -> Optional[float]:
        delta = self.abs_delta
        if delta is None or not self.a:
            return None
        return delta / abs(self.a)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "a": self.a, "b": self.b,
                "status": self.status, "abs_delta": self.abs_delta,
                "rel_delta": self.rel_delta, "note": self.note}


def rule_for(name: str, rules: Sequence[Rule]) -> Optional[Rule]:
    """The governing rule for ``name``: the *last* matching one."""
    governing = None
    for rule in rules:
        if rule.matches(name):
            governing = rule
    return governing


def _compare(name: str, a, b, rule: Rule) -> Delta:
    if _is_histogram_entry(a) and _is_histogram_entry(b):
        if a == b:
            return Delta(name, a, b, "ok", rule)
        exact = rule.abs_tol == 0 and rule.rel_tol == 0
        count_ok = rule.allows(a.get("count", 0), b.get("count", 0))
        mean_ok = rule.allows(a.get("mean", 0.0), b.get("mean", 0.0))
        if exact or not (count_ok and mean_ok):
            return Delta(name, a.get("mean"), b.get("mean"), "violation",
                         rule, note="histogram differs")
        return Delta(name, a.get("mean"), b.get("mean"), "ok", rule,
                     note="histogram within tolerance")
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        status = "ok" if rule.allows(a, b) else "violation"
        return Delta(name, a, b, status, rule)
    # Non-numeric (strings, mixed types): exact match only.
    status = "ok" if a == b else "violation"
    note = "" if status == "ok" else "non-numeric mismatch"
    return Delta(name, a, b, status, rule, note=note)


def diff_metrics(a: Dict[str, object], b: Dict[str, object],
                 rules: Sequence[Rule] = EXACT, *,
                 gate: bool = False) -> List[Delta]:
    """Compare two flat metric dicts under ``rules``.

    Plain mode walks the union of names; a name on one side only is a
    violation.  ``gate=True`` walks only A's names (the baseline) and a
    name missing from B is a violation — extras in B pass silently.
    """
    deltas: List[Delta] = []
    names = sorted(a) if gate else sorted(set(a) | set(b))
    for name in names:
        rule = rule_for(name, rules) or Rule(name)
        if name not in a:
            deltas.append(Delta(name, b=b[name], status="missing_a",
                                rule=rule, note="only in B"))
        elif name not in b:
            deltas.append(Delta(name, a=a[name], status="missing_b",
                                rule=rule, note="only in A"))
        else:
            deltas.append(_compare(name, a[name], b[name], rule))
    return deltas


def violations(deltas: Sequence[Delta]) -> List[Delta]:
    return [delta for delta in deltas if not delta.ok]


# ----------------------------------------------------------------------
# Loading metric dumps
# ----------------------------------------------------------------------

def load_metrics(path: str) -> Dict[str, object]:
    """Metrics from an archive dir, a flat dict JSON, or a bundle."""
    if RunArchive.is_archive(path):
        return RunArchive.load(path).metrics
    if os.path.isdir(path):
        raise ReproError(
            f"diff: {path} is a directory but not a run archive")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise ReproError(f"diff: cannot read {path}: {error}")
    except ValueError as error:
        raise ReproError(f"diff: {path} is not JSON: {error}")
    if not isinstance(data, dict):
        raise ReproError(f"diff: {path} does not hold a metrics dict")
    if isinstance(data.get("metrics"), dict):
        return data["metrics"]
    return data


def instrumentation_hash_of(path: str) -> Optional[str]:
    """The recorded instrumentation-plane hash of a metric dump.

    Only run archives carry one (in their manifest); flat JSON dumps and
    bundles return None, as do archives written before the manifest
    gained the field.  ``repro diff`` refuses to compare two archives
    whose hashes differ — runs instrumented differently sample, select,
    and gate their metrics differently, so their deltas are noise.
    """
    if not RunArchive.is_archive(path):
        return None
    value = RunArchive.load(path).manifest.get("instrumentation_hash")
    return value if isinstance(value, str) else None


def parse_rule(text: str) -> Rule:
    """``PATTERN[:REL[:ABS[:DIRECTION]]]`` → :class:`Rule` (CLI ``--rule``)."""
    parts = text.split(":")
    if not parts[0]:
        raise ReproError(f"diff: rule {text!r} has an empty pattern")
    try:
        rel = float(parts[1]) if len(parts) > 1 and parts[1] else 0.0
        abs_tol = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
    except ValueError:
        raise ReproError(
            f"diff: rule {text!r} tolerances must be numbers")
    direction = parts[3] if len(parts) > 3 and parts[3] else "both"
    if len(parts) > 4:
        raise ReproError(f"diff: rule {text!r} has too many fields")
    return Rule(parts[0], abs_tol=abs_tol, rel_tol=rel, direction=direction)


def gate_rules(path: str) -> Tuple[Dict[str, object], List[Rule]]:
    """Load a gate baseline: ``{"metrics": {...}, "rules": [...]}``.

    Each rule entry is ``{"pattern": ..., "rel_tol": ..., "abs_tol":
    ..., "direction": ...}`` with the tolerances optional.  Rules
    default to exact comparison of every listed metric.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise ReproError(f"diff: cannot read gate baseline {path}: {error}")
    except ValueError as error:
        raise ReproError(f"diff: gate baseline {path} is not JSON: {error}")
    metrics = data.get("metrics") if isinstance(data, dict) else None
    if not isinstance(metrics, dict):
        raise ReproError(
            f"diff: gate baseline {path} needs a 'metrics' dict")
    rules: List[Rule] = [Rule("*")]
    for entry in data.get("rules", ()):
        if not isinstance(entry, dict) or "pattern" not in entry:
            raise ReproError(
                f"diff: gate baseline {path} rule entries need a "
                f"'pattern'")
        rules.append(Rule(entry["pattern"],
                          abs_tol=float(entry.get("abs_tol", 0.0)),
                          rel_tol=float(entry.get("rel_tol", 0.0)),
                          direction=entry.get("direction", "both")))
    return metrics, rules


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_diff(deltas: Sequence[Delta], *,
                only_violations: bool = False) -> str:
    """Human-readable diff report (one line per metric + a summary)."""
    from ..analysis import render_table
    bad = violations(deltas)
    shown = bad if only_violations else [d for d in deltas if not d.ok
                                         or d.abs_delta]
    rows = []
    for delta in shown:
        rows.append([delta.name, _fmt(delta.a), _fmt(delta.b),
                     _fmt(delta.abs_delta),
                     ("" if delta.rel_delta is None
                      else f"{delta.rel_delta:+.2%}"),
                     delta.status + (f" ({delta.note})" if delta.note
                                     else "")])
    lines = []
    if rows:
        lines.append(render_table(
            ["metric", "A", "B", "delta", "rel", "status"], rows,
            title="run diff"))
    lines.append(f"{len(deltas)} metrics compared, "
                 f"{len(deltas) - len(bad)} ok, {len(bad)} violations")
    return "\n".join(lines)
