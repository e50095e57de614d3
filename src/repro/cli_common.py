"""Shared CLI plumbing: common flags, parsers, and archive writing.

Every measuring subcommand used to re-declare ``--seed`` / ``--output``
/ ``--archive`` / ``--instrument`` / ``--jobs`` with its own help
strings and defaults, and re-implement the archive write.  The builders
here are argparse *parent parsers* (``add_help=False``), so ``trace``,
``stats``, ``latency``, ``sweep``, and ``cache`` compose exactly the
flags they need and the flags behave identically everywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

#: Shared CLI exit codes: 0 = success, 1 = the command ran but its
#: result is a failure (diff violations, failed fleet/job, cache miss),
#: 2 = the request itself was bad (any ReproError; argparse also uses 2).
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def jobs_count(value: str) -> int:
    """argparse type for ``--jobs``: a non-negative int (0 = all cores)."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {value!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 means one worker per CPU), got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# Parent parsers (argparse parents=[...], one flag family each)
# ----------------------------------------------------------------------

def _parent() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False)


def seed_flags(default: int = 0) -> argparse.ArgumentParser:
    parent = _parent()
    parent.add_argument("--seed", type=int, default=default,
                        help="simulation seed (determinism gates)")
    return parent


def output_flags(help: str = "write the output to PATH instead of "
                 "stdout") -> argparse.ArgumentParser:
    parent = _parent()
    parent.add_argument("--output", default=None, metavar="PATH",
                        help=help)
    return parent


def archive_flags() -> argparse.ArgumentParser:
    parent = _parent()
    parent.add_argument("--archive", default=None, metavar="DIR",
                        help="also persist the run archive at DIR "
                             "(e.g. runs/a)")
    return parent


def instrument_flags() -> argparse.ArgumentParser:
    """``--instrument SPEC``: a declarative instrumentation plane.

    The spec (YAML or JSON; see ``examples/instrument_fig7.yaml``) is
    the only observer configuration: it selects metrics by glob, sets
    per-category probe intervals, picks trace categories and the ring
    bound, and declares triggers (``repro obs validate`` checks a spec
    offline).
    """
    parent = _parent()
    parent.add_argument("--instrument", default=None, metavar="SPEC",
                        help="instrumentation-plane spec file "
                             "(.yaml/.json): metric globs, probe "
                             "intervals, trace categories, triggers")
    return parent


def load_plane_arg(args):
    """The ``--instrument`` plane, loaded and validated (None if absent)."""
    path = getattr(args, "instrument", None)
    if not path:
        return None
    from .obs.plane import load_plane
    return load_plane(path)


def jobs_flags() -> argparse.ArgumentParser:
    """``--jobs``: worker processes; never changes what is printed."""
    parent = _parent()
    parent.add_argument("--jobs", type=jobs_count, default=1, metavar="N",
                        help="worker processes (0 = one per CPU)")
    return parent


def store_flags(default: Optional[str] = None) -> argparse.ArgumentParser:
    """``--store``: the persistent sweep-point result store root.

    Measuring commands default to None (no memoization unless asked);
    ``repro cache`` passes the resolved default root instead.
    """
    parent = _parent()
    parent.add_argument("--store", default=default, metavar="DIR",
                        help="memoize sweep points in the result store "
                             "at DIR (warm reruns skip simulation)")
    return parent


def format_flags(choices=("text", "json"),
                 default: str = "text") -> argparse.ArgumentParser:
    parent = _parent()
    parent.add_argument("--format", choices=tuple(choices),
                        default=default,
                        help=f"output format (default: {default})")
    return parent


# ----------------------------------------------------------------------
# Shared behaviors
# ----------------------------------------------------------------------

def emit(args, text: str, what: str = "output") -> None:
    """Print ``text``, or write it to ``--output`` when given."""
    output = getattr(args, "output", None)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {what} to {output}")
    else:
        print(text)


def emit_payload(args, payload, render_text: Callable[[], str],
                 what: str = "output") -> None:
    """One ``--format text|json`` behavior for every listing subcommand.

    ``--format json`` emits ``payload`` as sorted-keys JSON; text mode
    calls ``render_text()`` (lazily — tables are only built when shown).
    Replaces the per-command hand-rolled ``if args.format == "json"``
    branches so ``repro farm status``, ``repro cache ls/stats``, and
    ``repro query`` cannot drift apart.
    """
    if getattr(args, "format", "text") == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    else:
        text = render_text()
    emit(args, text, what=what)


def command_line() -> Optional[list]:
    """The ``repro ...`` command line for archive manifests, if evident."""
    if sys.argv and sys.argv[0].endswith(("repro", "__main__.py")):
        return ["repro"] + sys.argv[1:]
    return None


def write_archive(args, config, metrics, *, cycles=None,
                  events_executed=None, wall_seconds=None,
                  series=None, config_hash=None, plane=None) -> None:
    """Persist ``--archive`` for any measuring subcommand.

    ``config_hash`` takes a sweep's precomputed hash so manifest and
    store keys agree by construction.  ``plane`` is the run's
    instrumentation plane; its canonical spec and content hash land in
    the manifest so ``repro diff`` can refuse cross-plane comparisons.
    """
    from .obs import RunArchive
    instrumentation = instrumentation_hash = None
    if plane is not None:
        instrumentation = plane.to_dict()
        instrumentation_hash = plane.spec_hash
    archive = RunArchive.write(
        args.archive, metrics, config=config, cycles=cycles,
        events_executed=events_executed, wall_seconds=wall_seconds,
        series=series, config_hash=config_hash, command=command_line(),
        instrumentation=instrumentation,
        instrumentation_hash=instrumentation_hash)
    print(f"archived run {archive.run_id} under {archive.path}")
