"""The paper-vs-measured numbers the docs quote match the rendered results.

EXPERIMENTS.md and README.md copy Fig. 7, 8 and 9 numbers from the
committed ``benchmarks/results`` files by hand.  This test parses those
files and every doc row that quotes them, and requires exact matches,
so a regenerated result that moves a number fails here until the docs
follow.  It reads committed files only and runs no simulation.
"""

import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts):
    with open(os.path.join(REPO, *parts), encoding="utf-8") as handle:
        return handle.read()


def _find(pattern, text):
    """The groups of the first match of ``pattern`` (multiline)."""
    match = re.search(pattern, text, re.MULTILINE)
    assert match, f"no line matches {pattern!r}"
    return match.groups()


def _section(text, heading):
    """``text`` from ``heading`` to the next heading of its level."""
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def _result(name):
    return _read("benchmarks", "results", name)


EXPERIMENTS = _read("EXPERIMENTS.md")
README = _read("README.md")


def test_fig7_latency_means():
    text = _result("fig7_latency_heatmap.txt")
    intra, = _find(r"^intra-node mean: (\d+) cycles", text)
    inter, = _find(r"^inter-node mean: (\d+) cycles", text)
    ratio, = _find(r"^NUMA ratio: +([\d.]+)x", text)
    table = _section(EXPERIMENTS, "## Fig. 7")
    assert _find(r"^\| intra-node RTT \| [^|]+\| (\d+) ", table) == (intra,)
    assert _find(r"^\| inter-node RTT \| [^|]+\| (\d+) ", table) == (inter,)
    assert _find(r"^\| NUMA ratio \| [^|]+\| ([\d.]+)× \|", table) \
        == (ratio,)
    over = f"{(int(inter) / 250 - 1) * 100:.0f}"
    assert _find(r"\*\*Fig\. 7, inter-node mean\*\* — (\d+) vs ~250 "
                 r"cycles \(\+(\d+) %\)", EXPERIMENTS) == (inter, over)
    assert _find(r"^\| Fig\. 7: [^|]+\| (\d+) / (\d+) \|", README) \
        == (intra, inter)


def test_fig8_numa_speedups():
    line, = _find(r"^NUMA speedup by thread count: (.+)$",
                  _result("fig8_numa_scaling.txt"))
    speedups = dict(item.rstrip("x").split(":") for item in line.split(", "))
    assert list(speedups) == ["3", "6", "12", "24", "48"]
    table = _section(EXPERIMENTS, "## Fig. 8")
    for threads, speedup in speedups.items():
        assert _find(rf"^\| {threads} \| [^|]+\| ([\d.]+)× \|", table) \
            == (speedup,)
    assert _find(r"^\| Fig\. 8: [^|]+\| ([\d.]+)–([\d.]+)×, growing \|",
                 README) == (speedups["3"], speedups["48"])


def test_fig9_thread_allocation():
    runtimes = {
        int(nodes): (float(on.replace(",", "")), float(off.replace(",", "")))
        for nodes, on, off in re.findall(
            r"^(\d) active nodes:\n  NUMA on  \|[# ]*([\d,.]+)s\n"
            r"  NUMA off \|[# ]*([\d,.]+)s",
            _result("fig9_thread_allocation.txt"), re.MULTILINE)}
    assert sorted(runtimes) == [1, 2, 3, 4]
    section = _section(EXPERIMENTS, "## Fig. 9")
    for mode, column in (("on", 0), ("off", 1)):
        quoted = _find(rf"^\| NUMA {mode}: [^|]+\| [^|]+\| (\d+)→(\d+) s \|",
                       section)
        assert quoted == (f"{runtimes[1][column]:.0f}",
                          f"{runtimes[4][column]:.0f}")
    penalty, = _find(r"overstated \(([\d.]+)× vs the paper's", section)
    assert penalty == f"{runtimes[1][1] / runtimes[4][1]:.2f}"
