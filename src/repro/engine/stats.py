"""Lightweight statistics: counters, accumulators, and histograms.

Every component carries a :class:`StatGroup` (a link exports the same
view without keeping one).  Stats are plain Python numbers — fast to
update and trivial to serialize into benchmark reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class Histogram:
    """An exact histogram over integer samples (latencies, sizes)."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._total = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None
        # Sorted bucket values, rebuilt lazily: reporting loops call
        # percentile() repeatedly and must not re-sort per call.
        self._sorted: Optional[List[int]] = None

    def add(self, value: int, count: int = 1) -> None:
        counts = self._counts
        if value in counts:
            counts[value] += count
        else:
            counts[value] = count
            self._sorted = None
        self._total += count
        self._sum += value * count
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        return self._sum / self._total if self._total else 0.0

    @property
    def min(self) -> Optional[int]:
        return self._min

    @property
    def max(self) -> Optional[int]:
        return self._max

    def _sorted_values(self) -> List[int]:
        values = self._sorted
        if values is None:
            values = self._sorted = sorted(self._counts)
        return values

    def percentile(self, p: float) -> Optional[int]:
        """Exact percentile ``p`` in [0, 100] over recorded samples."""
        if not self._total:
            return None
        target = max(1, round(self._total * p / 100.0))
        seen = 0
        counts = self._counts
        for value in self._sorted_values():
            seen += counts[value]
            if seen >= target:
                return value
        return self._max

    def items(self) -> Iterable[Tuple[int, int]]:
        counts = self._counts
        return [(value, counts[value]) for value in self._sorted_values()]

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram (exact, lossless).

        Sharded sweep workers and obs exports ship histograms between
        processes as dicts and merge them here — no mean-of-means or other
        lossy summary is ever needed.
        """
        for value, count in other._counts.items():
            self.add(value, count)
        return self

    def to_dict(self) -> Dict[str, object]:
        """Lossless serialization (JSON-safe; keys stringified)."""
        return {"counts": {str(value): count
                           for value, count in self._counts.items()}}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        """Inverse of :meth:`to_dict`: ``from_dict(h.to_dict())`` is an
        exact copy of ``h``."""
        hist = cls()
        for value, count in data["counts"].items():
            hist.add(int(value), int(count))
        return hist


class StatGroup:
    """A named bag of counters and histograms.

    ``group.inc("noc_packets")`` creates the counter on first use; this keeps
    component code free of registration boilerplate while still producing a
    complete report at the end of a run.

    Counts taken once per message or access skip the group.  The owning
    component keeps them as plain int attributes, samples latencies with
    :meth:`Histogram.add` on a histogram it took from :meth:`histogram`,
    and derives whatever an existing count implies.  Every read of the
    group sees them: :attr:`counters` is the ``inc`` counters plus
    ``owner.export_counters``, :attr:`histograms` lists a histogram once
    it holds a sample plus ``owner.export_histograms``, and :meth:`get`,
    :meth:`as_dict` and the obs registry read those two views.
    """

    def __init__(self, name: str, owner=None):
        self.name = name
        self._owner = owner
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, key: str, amount: int = 1) -> None:
        counters = self._counters
        if key in counters:
            counters[key] += amount
        else:
            counters[key] = amount

    @property
    def counters(self) -> Dict[str, int]:
        """Every counter by name (a fresh dict when an owner adds some)."""
        owner = self._owner
        if owner is None:
            return self._counters
        counters = dict(self._counters)
        owner.export_counters(counters)
        return counters

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)

    def observe(self, key: str, value: int) -> None:
        self.histogram(key).add(value)

    def histogram(self, key: str) -> Histogram:
        """The histogram under ``key``, created empty if need be; it is
        exported from its first sample on."""
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        return hist

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """Every histogram holding a sample, by name."""
        histograms = {key: hist for key, hist in self._histograms.items()
                      if hist.count}
        if self._owner is not None:
            self._owner.export_histograms(histograms)
        return histograms

    def as_dict(self) -> Dict[str, float]:
        """Flatten counters plus histogram means for reporting."""
        out: Dict[str, float] = dict(self.counters)
        for key, hist in self.histograms.items():
            out[f"{key}.mean"] = hist.mean
            out[f"{key}.count"] = hist.count
        return out


def merge_stat_groups(groups: Iterable[StatGroup]) -> Dict[str, float]:
    """Sum counters across many components (e.g. all routers in a mesh)."""
    merged: Dict[str, float] = {}
    for group in groups:
        for key, value in group.counters.items():
            if key in merged:
                merged[key] += value
            else:
                merged[key] = value
    return merged
