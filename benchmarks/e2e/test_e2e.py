"""Self-test of the end-to-end benchmark at ``--quick`` size.

``--quick`` runs every workload on 2x1x2 with two timed units and a 3 s
serve window, so a plain and a traced run together stay well under a
minute.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_bench(*args, root=ROOT):
    """``run.py`` in ``root``; returns (process, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "e2e", "run.py"),
         *args], capture_output=True, text=True, cwd=root, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    plain = run_bench("--quick", "--out", str(out / "plain.json"))
    traced = run_bench("--quick", "--trace", "--out",
                       str(out / "traced.json"))
    reports = {}
    for name in ("plain", "traced"):
        with open(out / f"{name}.json") as handle:
            reports[name] = json.load(handle)
    return {"plain": plain, "traced": traced, "reports": reports,
            "dir": out}


def _workloads(spec):
    return [workload["name"] for workload in spec["workloads"]]


@pytest.mark.parametrize("mode,section", [("plain", "end_to_end"),
                                          ("traced", "per_layer")])
def test_every_metric_emitted_with_unit(runs, spec, mode, section):
    proc, result = runs[mode]
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    report = runs["reports"][mode]
    for workload in _workloads(spec):
        assert report["metrics"][f"{workload}.error_rate"] == 0
        for metric in spec[section]:
            name = f"{workload}.{metric['name']}"
            entry = result["metrics"][name]
            assert entry["unit"] == metric["unit"]
            assert report["units"][name] == metric["unit"]
            if section == "end_to_end":
                assert entry["value"] > 0


def test_traced_run_keeps_digests_and_counts_every_event(runs, spec):
    # Both runs compare every matrix and series against golden.json, so
    # both passing means the traced digests equal the untraced ones.
    assert runs["plain"][1]["correct"] and runs["traced"][1]["correct"]
    metrics = runs["reports"]["traced"]["metrics"]
    for workload in _workloads(spec):
        events = metrics[f"{workload}.engine.events"]
        assert events > 0
        assert metrics[f"{workload}.engine.sink_spans"] == events
        assert metrics[f"{workload}.trace.overhead"] > 0


def compare(path_a, path_b):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--compare",
         str(path_a), str(path_b)], capture_output=True, text=True)


def test_compare_passes_on_itself_and_flags_a_regression(runs, tmp_path):
    report = runs["dir"] / "plain.json"
    proc = compare(report, report)
    assert proc.returncode == 0, proc.stdout
    with open(report) as handle:
        plain = json.load(handle)

    slower = json.loads(json.dumps(plain))
    slower["metrics"]["fig7-matrix.op_ms_p50"] *= 1.5
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    proc = compare(report, slower_path)
    assert proc.returncode == 1
    assert "fig7-matrix.op_ms_p50" in proc.stdout

    # One failed run among several leaves the set's median error rate at
    # 0; the comparison must still fail on it.
    failing = json.loads(json.dumps(plain))
    failing["runs"][0]["metrics"]["numa-sweep.error_rate"] = 0.25
    failing_path = tmp_path / "failing.json"
    failing_path.write_text(json.dumps(failing))
    proc = compare(report, failing_path)
    assert proc.returncode == 1
    assert "numa-sweep.error_rate = 0.25" in proc.stdout


def test_report_set_keeps_the_worst_error_rate(tmp_path):
    # Loaded by path: the directory's trace.py must not shadow the
    # standard library's.
    spec = importlib.util.spec_from_file_location(
        "e2e_run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    path = str(tmp_path / "set.json")
    for failed in (0, 1, 0):
        meta = {"seed": 1, "trace": 0, "quick": True, "seconds": 1.0,
                "attempted": 4, "failed": failed}
        report = run.add_to_report(
            path, {"w.error_rate": failed / 4, "w.op_ms_p50": 1.0 + failed},
            {"w.error_rate": "ratio", "w.op_ms_p50": "ms"}, meta)
    assert report["metrics"] == {"w.error_rate": 0.25, "w.op_ms_p50": 1.0}
    assert report["meta"]["attempted"] == 12
    assert report["meta"]["failed"] == 1


def _copy_benchmark(dest, with_src: bool):
    shutil.copytree(HERE, dest / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "out", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), dest / "src")


def test_tampered_golden_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    golden_path = tmp_path / "benchmarks" / "e2e" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["configs"]["2x1x2"]["fig7"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    proc, result = run_bench("--quick", "--workload", "fig7-matrix",
                             root=str(tmp_path))
    assert proc.returncode != 0
    assert result is not None and not result["correct"]
    assert result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    proc, result = run_bench("--workload", "fig7-matrix", "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             root=str(tmp_path))
    assert proc.returncode != 0
    assert result is None
