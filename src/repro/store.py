"""Persistent result store: memoized sweep points keyed by config hash.

SMAPPIC's headline claim is cost-efficiency — the same prototype point is
re-measured across the Fig. 7-14 sweeps, and the paper amortizes FPGA
build cost across experiments (Sec. 6, Table 5).  This module is the
simulation-side analogue of FireSim's built-AGFI cache and gem5's
checkpoint reuse: expensive sweep points (an OS-model
:class:`~repro.osmodel.NumaMachine` measurement, a Fig. 7 latency shard,
a per-point benchmark series) are memoized on disk, so a warm rerun of a
benchmark skips simulation entirely for unchanged points.

Keying
------

An entry is addressed by the SHA-256 of a canonical JSON *key payload*::

    {"family":  "fig8",          # which point function produced it
     "version": "1",             # bumped when the point function changes
     "config_hash": "...",       # repro.obs.archive.config_hash(config)
     "point":   {...},           # the sweep-point parameters
     "seed":    1234,            # the task's derived seed
     "obs":     null}            # observer spec (metrics ride along)

``config_hash`` hashes the JSON of the *full* config dataclass field
tree, so adding, removing, or changing any ``PrototypeConfig`` /
``SystemParams`` field automatically invalidates every entry measured
under the old schema — no manual cache busting.  Point functions carry
an explicit ``version`` for the same reason: bump it when the
measurement code changes meaning.

Entry layout
------------

An entry file is a one-line JSON header, a newline, the value's
canonical JSON text (:func:`canonical_json`: sorted keys, ASCII) and a
newline::

    {"key": "...", "payload": {...}, "schema_version": 2,
     "value_bytes": 101234, "value_sha256": "...", "written_at_unix": ...}
    {"metrics": {...}, "rows": [...]}

The value text is stored exactly as a reader needs it: :meth:`load_text`
hands it out without parsing it, and the result service splices it into
its reply as is.  :meth:`ResultStore.put` canonicalizes the value first
(a JSON round trip), so the stored text is a fixed point of
``canonical_json(json.loads(text))`` for every value it accepts.

Durability contract
-------------------

* **Atomic writes** — entries are written to a temp file in the entry's
  directory and published with ``os.replace`` (:func:`atomic_write`,
  which also publishes farm reports and run archives); readers are
  lock-free and can never observe a half-written entry.
* **Validated loads** — every load checks the header's schema version,
  that the entry matches its own key, the value's length and the SHA-256
  of the value bytes.  That catches truncation and also a corrupted
  value that is still valid JSON.  A corrupt or stale entry (an entry
  of another schema included) is *evicted* (unlinked with a warning),
  never fatal: the sweep point simply re-simulates.
* **Last-writer-wins races** — two processes racing the same key each
  publish a complete entry; because sweep points are deterministic, both
  bodies are identical and either rename order is correct.

Counters (hits / misses / evictions / writes) export as ``obs.store.*``
metrics via :meth:`ResultStore.export_metrics`, so archives record how
warm a run was.

Garbage collection
------------------

:meth:`ResultStore.gc` and :func:`gc_runs` share one policy
(:func:`gc_select`): drop everything older than ``max_age_seconds``,
then drop oldest-first until the total is under ``max_bytes``.  The
``repro cache gc`` subcommand applies it to both the store and the
``runs/`` archive tree, through one removal loop (:func:`_gc_apply`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import StoreError

#: Bumped when the on-disk entry file format changes; entries written
#: under another schema are evicted on load.
STORE_SCHEMA_VERSION = 2

#: Environment variable benchmarks check to opt into the store: the
#: value is the store root (e.g. ``store``); unset means no memoization.
STORE_ENV = "REPRO_STORE"

#: CLI default when neither ``--store`` nor the environment names a root.
DEFAULT_STORE_ROOT = ".repro-store"

_OBJECTS_DIR = "objects"

#: A temp file this much older than "now" cannot belong to a live writer
#: (publishes take milliseconds) — it is debris from a crashed writer
#: and is swept when the store is scanned.
TMP_SWEEP_GRACE_SECONDS = 600.0


def _is_tmp_name(name: str) -> bool:
    """Writer debris: our mkstemp names (``.tmp-*.json``) or generic
    ``*.tmp`` files, never a published ``<key>.json`` entry."""
    return name.startswith(".tmp-") or name.endswith(".tmp")


def atomic_write(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically.

    The bytes go to a ``.tmp-*.json`` file in the same directory (the
    name :meth:`ResultStore.sweep_tmp` treats as writer debris), which
    ``os.replace`` then moves over ``path``; a failed write unlinks the
    temp file and re-raises.  A reader sees the old file or the new
    one, never a half-written one.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=".json")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, data) -> None:
    """:func:`atomic_write` of ``data`` as indented, sorted-keys JSON."""
    atomic_write(path, (json.dumps(data, indent=2, sort_keys=True)
                        + "\n").encode())


def entry_key(payload: Dict[str, object]) -> str:
    """The content address of a key payload (canonical-JSON SHA-256)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:40]


def canonical_json(value) -> str:
    """Sorted-keys JSON: equal values serialize to equal bytes."""
    return json.dumps(value, sort_keys=True, default=str)


def canonical_value(value):
    """A JSON round-trip of ``value``.

    Sweep workers canonicalize every computed value before returning or
    storing it, so a cold result (pickled back from the worker) and a
    warm result (parsed from disk) are structurally byte-identical —
    tuples become lists *before* anyone compares, and floats survive
    exactly (JSON uses shortest round-trip repr).
    """
    return json.loads(canonical_json(value))


def _entry_value(data: bytes, key: str) -> bytes:
    """The value text of the entry file ``data`` published under ``key``.

    Raises :class:`ValueError` naming the first check that fails:
    header JSON, schema version, key, value length, value SHA-256.
    """
    head, _, rest = data.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError as error:
        raise ValueError(f"unreadable header ({error})") from None
    if (not isinstance(header, dict)
            or header.get("schema_version") != STORE_SCHEMA_VERSION):
        raise ValueError("schema mismatch or malformed entry")
    if header.get("key") != key:
        raise ValueError(f"entry is for key {header.get('key')!r}")
    value, size = rest[:-1], header.get("value_bytes")
    if not rest.endswith(b"\n") or len(value) != size:
        raise ValueError(f"truncated or resized value: {len(rest)} bytes "
                         f"follow the header, which says {size!r} and a "
                         f"newline")
    if hashlib.sha256(value).hexdigest() != header.get("value_sha256"):
        raise ValueError("value SHA-256 mismatch")
    return value


def store_root_from_env() -> Optional[str]:
    """The opt-in store root (``REPRO_STORE=store``), or None."""
    root = os.environ.get(STORE_ENV)
    return root or None


def store_from_env() -> Optional["ResultStore"]:
    """A :class:`ResultStore` at the environment root, or None."""
    root = store_root_from_env()
    return None if root is None else ResultStore(root)


def default_store_root() -> str:
    """The CLI's store root: the environment override or the default."""
    return store_root_from_env() or DEFAULT_STORE_ROOT


# ----------------------------------------------------------------------
# Human-friendly units for the GC knobs
# ----------------------------------------------------------------------

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
              "w": 7 * 86400.0}
_SIZE_UNITS = {"b": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30,
               "t": 1 << 40}


def parse_age(text: str) -> float:
    """``"7d"``/``"12h"``/``"30m"``/``"90s"``/``"3600"`` → seconds."""
    text = str(text).strip().lower()
    unit = 1.0
    if text and text[-1] in _AGE_UNITS:
        unit, text = _AGE_UNITS[text[-1]], text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise StoreError(f"store: {text!r} is not an age "
                         f"(use e.g. 7d, 12h, 30m, 90s)")
    if value < 0:
        raise StoreError(f"store: age must be >= 0, got {value}")
    return value * unit


def parse_bytes(text: str) -> int:
    """``"200M"``/``"1G"``/``"512K"``/``"4096"`` → bytes."""
    text = str(text).strip().lower()
    unit = 1
    if text and text[-1] in _SIZE_UNITS:
        unit, text = _SIZE_UNITS[text[-1]], text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise StoreError(f"store: {text!r} is not a size "
                         f"(use e.g. 200M, 1G, 4096)")
    if value < 0:
        raise StoreError(f"store: size must be >= 0, got {value}")
    return int(value * unit)


# ----------------------------------------------------------------------
# Shared GC policy (store entries and run-archive directories)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GCItem:
    """One collectable thing: a store entry file or a run-archive dir."""

    path: str
    bytes: int
    mtime: float


@dataclass
class GCStats:
    """What one GC pass did."""

    removed: int = 0
    removed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"removed": self.removed,
                "removed_bytes": self.removed_bytes,
                "kept": self.kept, "kept_bytes": self.kept_bytes}


def gc_select(items: Sequence[GCItem],
              max_age_seconds: Optional[float] = None,
              max_bytes: Optional[int] = None,
              now: Optional[float] = None) -> List[GCItem]:
    """The items a GC pass must remove (shared store / ``runs/`` policy).

    Everything older than ``max_age_seconds`` goes; then, if the
    survivors still exceed ``max_bytes``, the oldest go first until the
    total fits.  Ordering ties break on path, so the selection is
    deterministic.
    """
    if now is None:
        now = time.time()
    ordered = sorted(items, key=lambda item: (item.mtime, item.path))
    doomed: List[GCItem] = []
    kept: List[GCItem] = []
    for item in ordered:
        if (max_age_seconds is not None
                and now - item.mtime > max_age_seconds):
            doomed.append(item)
        else:
            kept.append(item)
    if max_bytes is not None:
        total = sum(item.bytes for item in kept)
        for item in list(kept):        # oldest first (already sorted)
            if total <= max_bytes:
                break
            doomed.append(item)
            kept.remove(item)
            total -= item.bytes
    return doomed


def _dir_item(path: str) -> GCItem:
    """A directory as one GC item (size = payload sum, age = newest file)."""
    total = 0
    newest = 0.0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            try:
                stat = os.stat(os.path.join(dirpath, name))
            except OSError:
                continue
            total += stat.st_size
            newest = max(newest, stat.st_mtime)
    if not newest:
        try:
            newest = os.stat(path).st_mtime
        except OSError:
            newest = 0.0
    return GCItem(path=path, bytes=total, mtime=newest)


def _gc_apply(items: Sequence[GCItem], remove: Callable[[str], None],
              max_age_seconds: Optional[float], max_bytes: Optional[int],
              now: Optional[float]) -> GCStats:
    """Remove what :func:`gc_select` picks from ``items`` by calling
    ``remove(path)``, and tally the pass.  A removal that raises
    :class:`OSError` counts as kept."""
    doomed = {item.path for item in gc_select(items, max_age_seconds,
                                              max_bytes, now)}
    stats = GCStats()
    for item in items:
        if item.path in doomed:
            try:
                remove(item.path)
            except OSError:
                pass
            else:
                stats.removed += 1
                stats.removed_bytes += item.bytes
                continue
        stats.kept += 1
        stats.kept_bytes += item.bytes
    return stats


def gc_runs(root: str, max_age_seconds: Optional[float] = None,
            max_bytes: Optional[int] = None,
            now: Optional[float] = None) -> GCStats:
    """Apply the shared GC policy to a ``runs/`` archive tree.

    Only directories that look like run archives (they contain a
    manifest) are candidates; anything else under ``root`` is left
    alone.  Closes the ROADMAP archive-retention item.
    """
    from .obs.archive import RunArchive

    items = [_dir_item(path) for path in RunArchive.scan(root)]
    return _gc_apply(items, shutil.rmtree, max_age_seconds, max_bytes, now)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EntryInfo:
    """Metadata of one stored entry (``repro cache ls``)."""

    key: str
    path: str
    bytes: int
    mtime: float


class ResultStore:
    """Content-addressed on-disk memoization of sweep-point results.

    The store is a directory; entries live at
    ``<root>/objects/<key[:2]>/<key>.json``.  Instances are cheap (no
    scan at construction), so parallel sweep workers each open their own
    handle on the shared root.  Counters accumulate on the instance;
    :func:`repro.parallel.run_sweep` folds worker-side counts back into
    the caller's instance so one store object describes the whole sweep.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    # -- keying --------------------------------------------------------
    def path_for(self, key: str) -> str:
        return os.path.join(self.root, _OBJECTS_DIR, key[:2],
                            f"{key}.json")

    # -- reading -------------------------------------------------------
    def load_text(self, key: str) -> Optional[str]:
        """The value's canonical JSON text on a validated hit, else None.

        Every load checks the entry (see :func:`_entry_value`).  A
        present-but-invalid entry (truncated, another schema, another
        key, a value whose length or digest disagrees with its header)
        is evicted with a warning and reported as a miss — corruption
        re-simulates a point, it never crashes a sweep.  An entry that
        *vanished* (a concurrent GC or ``clear`` raced this load) is a
        plain miss: no warning, no eviction — losing a cache race is
        normal operation, not corruption.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            text = _entry_value(data, key).decode("utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as error:
            # A file that is gone by now was GC'd out from under us.
            if os.path.exists(path):
                self._evict(path, str(error))
            self.misses += 1
            return None
        self.hits += 1
        return text

    def load(self, key: str) -> Tuple[bool, object]:
        """``(True, value)`` on a validated hit, else ``(False, None)``;
        :meth:`load_text` with the text parsed, counted the same way."""
        text = self.load_text(key)
        if text is None:
            return False, None
        return True, json.loads(text)

    def _evict(self, path: str, reason: str) -> None:
        warnings.warn(f"repro.store: evicting {path}: {reason}",
                      stacklevel=3)
        try:
            os.unlink(path)
        except OSError:
            pass
        self.evictions += 1

    # -- writing -------------------------------------------------------
    def put(self, key: str, value,
            payload: Optional[Dict[str, object]] = None) -> str:
        """Atomically publish ``value`` under ``key``; returns the path.

        The value is stored as the canonical JSON text of its JSON round
        trip, so the text is canonical even for a dict with int keys
        (stored with string keys).  ``payload`` (the key's preimage) is
        embedded in the header for ``cache ls`` and debugging; it never
        participates in addressing.
        """
        path = self.path_for(key)
        value_bytes = canonical_json(canonical_value(value)).encode()
        header = canonical_json({
            "schema_version": STORE_SCHEMA_VERSION,
            "key": key,
            "payload": payload,
            "written_at_unix": round(time.time(), 3),
            "value_bytes": len(value_bytes),
            "value_sha256": hashlib.sha256(value_bytes).hexdigest(),
        })
        atomic_write(path, b"%s\n%s\n" % (header.encode(), value_bytes))
        self.writes += 1
        return path

    # -- enumeration / maintenance -------------------------------------
    def sweep_tmp(self, grace_seconds: float = TMP_SWEEP_GRACE_SECONDS,
                  now: Optional[float] = None) -> int:
        """Unlink temp files a crashed writer left in ``objects/``.

        Only files older than ``grace_seconds`` go — a younger temp file
        may belong to a writer that is mid-publish right now.  Returns
        how many were removed.  Runs automatically whenever the store is
        scanned (:meth:`entries`), so debris cannot accumulate.
        """
        if now is None:
            now = time.time()
        objects = os.path.join(self.root, _OBJECTS_DIR)
        removed = 0
        if not os.path.isdir(objects):
            return removed
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in filenames:
                if not _is_tmp_name(name):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    if now - os.stat(path).st_mtime <= grace_seconds:
                        continue
                    os.unlink(path)
                except OSError:
                    continue
                removed += 1
        return removed

    def entries(self) -> List[EntryInfo]:
        """Every published entry, sorted oldest-first (then by path).

        Scanning also sweeps stale writer temp files (see
        :meth:`sweep_tmp`); a temp file is never itself an entry.
        """
        self.sweep_tmp()
        objects = os.path.join(self.root, _OBJECTS_DIR)
        found: List[EntryInfo] = []
        if not os.path.isdir(objects):
            return found
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in sorted(filenames):
                if name.startswith(".") or not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append(EntryInfo(key=name[:-len(".json")], path=path,
                                       bytes=stat.st_size,
                                       mtime=stat.st_mtime))
        found.sort(key=lambda entry: (entry.mtime, entry.path))
        return found

    def describe(self, entry: EntryInfo) -> Dict[str, object]:
        """The embedded key payload of an entry (``cache ls``), read
        from its header line alone.

        An entry that vanished between the :meth:`entries` scan and
        this read reports ``{"missing": True}`` (a concurrent GC won
        the race — nothing is wrong); a present-but-unparseable header
        reports ``{"corrupt": True}``.
        """
        try:
            with open(entry.path, "rb") as handle:
                header = json.loads(handle.readline())
        except (OSError, ValueError):
            if not os.path.exists(entry.path):
                return {"missing": True}
            return {"corrupt": True}
        payload = header.get("payload") if isinstance(header, dict) \
            else None
        return payload if isinstance(payload, dict) else {}

    def stats(self) -> Dict[str, object]:
        entries = self.entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(entry.bytes for entry in entries),
            "oldest_unix": (round(entries[0].mtime, 3)
                            if entries else None),
            "newest_unix": (round(entries[-1].mtime, 3)
                            if entries else None),
            "counters": self.export_metrics(),
        }

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None,
           now: Optional[float] = None) -> GCStats:
        """Apply the shared retention policy to the store's entries."""
        items = [GCItem(path=entry.path, bytes=entry.bytes,
                        mtime=entry.mtime) for entry in self.entries()]
        return _gc_apply(items, os.unlink, max_age_seconds, max_bytes, now)

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        entries = self.entries()
        shutil.rmtree(os.path.join(self.root, _OBJECTS_DIR),
                      ignore_errors=True)
        return len(entries)

    # -- accounting ----------------------------------------------------
    def record(self, hits: int = 0, misses: int = 0, evictions: int = 0,
               writes: int = 0) -> None:
        """Fold counts observed elsewhere (sweep workers) into this
        instance, so the caller's store describes the whole sweep."""
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        self.writes += writes

    def export_metrics(self) -> Dict[str, int]:
        """The ``obs.store.*`` counters (merge into archived metrics)."""
        return {
            "obs.store.hit": self.hits,
            "obs.store.miss": self.misses,
            "obs.store.evict": self.evictions,
            "obs.store.write": self.writes,
        }
