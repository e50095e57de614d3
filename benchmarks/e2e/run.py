"""End-to-end benchmark of the SMAPPIC reproduction.

One command times the paper's workloads end to end, checks every output,
and prints each metric by name with its unit::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out REPORT.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json

A benchmark runner calls it as ``run.py --workload W --seed N --seconds
S --trace 0|1``, with ``S`` the ``run_seconds`` of ``BENCHMARK.json``;
``--seconds`` defaults to that value and a bare ``--trace`` means
``--trace 1``.

Each workload runs in its own fresh child process (``workloads.py``),
one after another, after a few set-up-only children that sample set-up
time.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the
``BENCHMARK.json`` end-to-end metrics (or, with ``--trace 1``, the
per-layer metrics of a traced run).  With one workload the metric names
are bare; with several they are ``<workload>.<metric>``.

``--out`` adds the run to a report set ``{"metrics": {"<workload>.
<metric>": median}, "units", "meta", "runs": [...]}`` that ``repro
diff`` reads; ``--compare`` checks two report sets against the
``BENCHMARK.json`` bounds.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up time samples per workload (the measured child plus set-up-only
#: children); the reported ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A workload child still running this long after its measuring window
#: (``--seconds``) is killed and failed.  Beyond the window a child
#: builds, seeds the store, waits for cold fleets and replays its checks.
CHILD_GRACE_S = 130.0


class WorkloadFailed(Exception):
    """A workload child crashed, timed out or printed no result."""


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def spawn(workload: str, args, setup_only: bool = False) -> dict:
    """Run one workload child; returns its parsed result line."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"), workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    # A session of its own, so a timed-out child is killed together with
    # the server and workers it started.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    timeout = args.seconds + CHILD_GRACE_S
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkloadFailed(f"{workload} ran past {timeout:.0f}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"{workload} exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise WorkloadFailed(f"{workload} printed no result line")


def prewarm() -> None:
    """Compile the simulator's drain kernel once, outside any timing
    (``setup_s`` excludes it)."""
    sys.path.insert(0, SRC)
    from repro.engine import Simulator
    Simulator()


def run_workload(workload: str, args) -> dict:
    """The workload's metrics, with ``setup_s`` as a median of samples.

    The set-up-only children run half before and half after the measured
    child, so the samples span the whole run rather than one moment of
    a host whose speed drifts.
    """
    def setup_sample() -> float:
        result = spawn(workload, args, setup_only=True)
        return result["metrics"]["setup_s"]["value"]

    extra = args.setup_samples - 1
    samples = [setup_sample() for _ in range(extra // 2)]
    result = spawn(workload, args)
    samples += [setup_sample() for _ in range(extra - extra // 2)]
    metrics = result["metrics"]
    samples.append(metrics["setup_s"]["value"])
    metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    metrics["setup_s.n"] = {"value": len(samples), "unit": "count"}
    return result


# ----------------------------------------------------------------------
# Report sets
# ----------------------------------------------------------------------

def summarise(report: dict) -> None:
    """Set a report set's ``metrics`` and ``meta`` from its ``runs``.

    Metrics are per-metric medians over the runs, except ``error_rate``,
    which is the worst run's: one failed run in five must not vanish
    into a median.  ``attempted`` and ``failed`` are summed.
    """
    runs = report["runs"]
    values: dict = {}
    for run in runs:
        for name, value in run["metrics"].items():
            values.setdefault(name, []).append(value)
    report["metrics"] = {
        name: max(vals) if name.endswith(".error_rate")
        else statistics.median(vals) for name, vals in values.items()}
    report["meta"] = dict(
        runs[-1]["meta"], runs=len(runs),
        seeds=[run["meta"]["seed"] for run in runs],
        attempted=sum(run["meta"]["attempted"] for run in runs),
        failed=sum(run["meta"]["failed"] for run in runs))


def add_to_report(path: str, metrics: dict, units: dict,
                  meta: dict) -> dict:
    """Append one run to the report set at ``path`` (created if
    missing) and re-summarise the set."""
    report = {"runs": []}
    if os.path.exists(path):
        report = load_report(path)
        first = report["runs"][0]["meta"]
        for key in ("trace", "quick", "seconds"):
            if first.get(key) != meta.get(key):
                raise SystemExit(
                    f"run.py: {path} holds --{key} {first.get(key)} runs; "
                    f"this run has {meta.get(key)}")
    if meta["failed"]:
        print(f"run.py: adding a run with {meta['failed']} failed "
              f"check(s) to {path}", file=sys.stderr)
    report["runs"].append({"meta": meta, "metrics": metrics})
    summarise(report)
    report["units"] = dict(report.get("units", {}), **units)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return report


def load_report(path: str) -> dict:
    with open(path) as handle:
        report = json.load(handle)
    if not isinstance(report, dict) or not report.get("runs"):
        raise SystemExit(f"run.py: {path} is not a run.py report")
    return report


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Check report set B against A under the ``BENCHMARK.json`` bounds.

    A bound is a one-sided relative allowance in the metric's worse
    direction; ``error_rate`` may not rise at all.  A run of either set
    with a non-zero ``error_rate`` fails the comparison too.
    """
    sys.path.insert(0, SRC)
    from repro.obs.diff import Rule, diff_metrics, render_diff, rule_for
    from repro.obs.diff import violations

    rules = [Rule(f"*.{metric['name']}", rel_tol=metric["bound"],
                  direction="upper" if metric["better"] == "lower"
                  else "lower")
             for metric in bench["end_to_end"]]
    rules.append(Rule("*.error_rate", direction="upper"))
    reports = [load_report(path_a), load_report(path_b)]
    sides = [{name: value for name, value in report["metrics"].items()
              if rule_for(name, rules)} for report in reports]
    deltas = diff_metrics(sides[0], sides[1], rules)
    print(render_diff(deltas))
    for label, report in zip("AB", reports):
        runs = report["runs"]
        print(f"{label}: {len(runs)} run(s), seeds "
              f"{[run['meta']['seed'] for run in runs]}")
        if len(runs) > 1:
            for name in sorted(sides[0]):
                values = [run["metrics"][name] for run in runs
                          if name in run["metrics"]]
                print(f"  spread {name:34s} {spread(values):7.2%}")
    bad = len(violations(deltas))
    for label, report in zip("AB", reports):
        for number, run in enumerate(report["runs"], 1):
            for name, value in sorted(run["metrics"].items()):
                if name.endswith(".error_rate") and value > 0:
                    print(f"{label} run {number} (seed "
                          f"{run['meta']['seed']}): {name} = {value:g}")
                    bad += 1
    print(f"compare: {'ok' if not bad else f'{bad} violation(s)'}")
    return 0 if not bad else 1


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def parse_args(argv, bench: dict):
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: paper workloads, per-layer "
                    "split, correctness checks.")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=names, metavar="W",
                        help=f"workloads to run (default: all of "
                             f"{', '.join(names)})")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace) = traced run reporting "
                             "per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"self-test size: 2x1x2, two units, a 3 s "
                             f"serve window, one set-up sample")
    parser.add_argument("--out", metavar="REPORT",
                        help="add this run to a report set (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="check report set B against A within the "
                             "BENCHMARK.json bounds")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    args.setup_samples = 1 if args.quick else SETUP_SAMPLES
    return args


def main(argv=None) -> int:
    bench = load_benchmark()
    args = parse_args(argv, bench)
    if args.compare:
        return compare(*args.compare, bench)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    prewarm()
    started = time.time()
    results, attempted, failed = {}, 0, 0
    for workload in args.workload:
        try:
            result = run_workload(workload, args)
        except WorkloadFailed as error:
            print(f"run.py: {error}", file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            # Its only metric, so a report set still shows the workload.
            results[workload] = {"error_rate": {"value": 1.0,
                                                "unit": "ratio"}}
            continue
        results[workload] = result["metrics"]
        attempted += result["attempted"]
        failed += result["failed"]

    flat, units = {}, {}
    for workload, metrics in results.items():
        for name, entry in sorted(metrics.items()):
            flat[f"{workload}.{name}"] = entry["value"]
            units[f"{workload}.{name}"] = entry["unit"]
            print(f"{workload:12s} {name:30s} {entry['value']:>14.6g} "
                  f"{entry['unit']}")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    single = len(args.workload) == 1
    selected, complete = {}, True
    for workload in args.workload:
        for metric in wanted:
            entry = results.get(workload, {}).get(metric["name"])
            if entry is None:
                complete = False
                continue
            key = metric["name"] if single else f"{workload}.{metric['name']}"
            selected[key] = {"value": entry["value"], "unit": metric["unit"]}
    correct = complete and failed == 0
    if args.out:
        add_to_report(args.out, flat, units, {
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "quick": args.quick, "workloads": list(results),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "started_at_unix":
                round(started, 3), "attempted": attempted,
            "failed": failed})
    print(f"run.py: {attempted} checked operations, {failed} failed, "
          f"{'all metrics present' if complete else 'metrics missing'}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    # The script directory goes (its trace.py would shadow the standard
    # library's); nothing here imports from it.
    del sys.path[0]
    sys.exit(main())
