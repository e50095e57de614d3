"""CI gate: the example instrumentation plane must actually gate, and
instrumentation must never perturb the architecture.

The workflow ran three same-seed Fig. 7 trace points first:

* ``runs/instrumented`` — under ``examples/instrument_fig7.yaml``;
* ``runs/plain-a`` / ``runs/plain-b`` — two uninstrumented baselines.

This script checks what they left behind:

* the instrumented archive records the spec (content + hash) in its
  manifest, its triggers armed and fired, and its metric selection took
  effect (only ``node*`` / ``*.utilization`` names besides ``obs.*``);
* the instrumented bundle's probe series include a bridge-queue and a
  DRAM-backlog track (their components' own hooks sample them);
* the two uninstrumented baselines are byte-identical — metrics files
  compare equal bit for bit — and the instrumented run executed the
  same cycles and events (observation changed nothing architectural);
* ``repro diff`` refuses to compare the instrumented run against an
  uninstrumented baseline unless ``--ignore-instrumentation``.
"""

import fnmatch
import json
import subprocess
import sys

INSTRUMENTED = "runs/instrumented"
PLAIN_A = "runs/plain-a"
PLAIN_B = "runs/plain-b"
BUNDLE = "fig7-instrumented-metrics.json"
SPEC = "examples/instrument_fig7.yaml"
#: Probe tracks the instrumented bundle must carry (fnmatch globs).
REQUIRED_TRACKS = ("*.bridge.queued_packets", "*.dram.bank_backlog")


def main():
    from repro.obs import RunArchive, load_plane

    plane = load_plane(SPEC)
    instrumented = RunArchive.load(INSTRUMENTED)
    plain_a = RunArchive.load(PLAIN_A)
    plain_b = RunArchive.load(PLAIN_B)

    manifest = instrumented.manifest
    if manifest.get("instrumentation_hash") != plane.spec_hash:
        sys.exit(f"manifest instrumentation_hash "
                 f"{manifest.get('instrumentation_hash')!r} != spec hash "
                 f"{plane.spec_hash}")
    if manifest.get("instrumentation") != plane.to_dict():
        sys.exit("manifest does not embed the canonical spec content")

    metrics = instrumented.metrics
    armed = metrics.get("obs.plane.triggers.armed")
    fired = metrics.get("obs.plane.triggers.fired")
    if not armed or armed < 1.0:
        sys.exit(f"expected armed triggers in the archive, got {armed!r}")
    # The start_at trigger must have opened the gate on this run; the
    # stop_after window (2200 cycles) outlives the ~900-cycle run, so
    # only >= 1 firing is guaranteed here.
    if not fired or fired < 1.0:
        sys.exit(f"expected >= 1 fired trigger, got {fired!r}")
    if metrics.get("obs.probes.failed") != 0:
        sys.exit(f"probe sources failed: {metrics.get('obs.probes.failed')}")
    stray = [name for name in metrics
             if not name.startswith("obs.")
             and not fnmatch.fnmatch(name, "node*")
             and not fnmatch.fnmatch(name, "*.utilization")]
    if stray:
        sys.exit(f"metric selection leaked unselected names: {stray[:5]}")

    with open(BUNDLE) as handle:
        tracks = [name for name, points
                  in json.load(handle)["series"].items() if points]
    for pattern in REQUIRED_TRACKS:
        if not fnmatch.filter(tracks, pattern):
            sys.exit(f"no sampled {pattern} track among the bundle's "
                     f"{len(tracks)} series")

    # Observation must not perturb the run: same seed, same machine
    # state, with or without the plane.
    for key in ("cycles", "events_executed", "seed"):
        if manifest.get(key) != plain_a.manifest.get(key):
            sys.exit(f"instrumented run diverged on {key}: "
                     f"{manifest.get(key)!r} != "
                     f"{plain_a.manifest.get(key)!r}")
    with open(f"{PLAIN_A}/metrics.json", "rb") as handle:
        bytes_a = handle.read()
    with open(f"{PLAIN_B}/metrics.json", "rb") as handle:
        bytes_b = handle.read()
    if bytes_a != bytes_b:
        sys.exit("uninstrumented same-seed reruns are not byte-identical")

    # Cross-plane comparisons must be refused without the override.
    refuse = subprocess.run(
        [sys.executable, "-m", "repro", "diff", INSTRUMENTED, PLAIN_A],
        capture_output=True, text=True)
    if refuse.returncode != 2 or "instrumented differently" \
            not in refuse.stderr:
        sys.exit(f"diff did not refuse a cross-plane comparison "
                 f"(rc={refuse.returncode}): {refuse.stderr}")
    override = subprocess.run(
        [sys.executable, "-m", "repro", "diff", INSTRUMENTED, PLAIN_A,
         "--ignore-instrumentation"],
        capture_output=True, text=True)
    if override.returncode == 2 and "instrumented differently" \
            in override.stderr:
        sys.exit("--ignore-instrumentation did not override the refusal")

    print(f"instrumented smoke OK: plane {plane.spec_hash} armed "
          f"{armed:g} / fired {fired:g}, selection held "
          f"({len(metrics)} metrics, {len(tracks)} probe tracks), "
          f"baselines byte-identical, cross-plane diff refused")


if __name__ == "__main__":
    main()
