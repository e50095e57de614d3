"""ASCII charts: bars, grouped bars, and heatmaps for benchmark output.

The benchmark harness prints each paper figure as text so results are
inspectable straight from the pytest-benchmark run, with no plotting
dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: Shading ramp for heatmaps, light to dark.
_RAMP = " .:-=+*#%@"


def bar_chart(labels: Sequence[str], series: Dict[str, Sequence[float]],
              width: int = 40, title: Optional[str] = None,
              unit: str = "") -> str:
    """Grouped horizontal bar chart; one group per label."""
    peak = max((value for values in series.values()
                for value in values if value is not None), default=1.0)
    peak = peak or 1.0
    name_width = max(len(name) for name in series)
    lines: List[str] = []
    if title:
        lines.append(title)
    for index, label in enumerate(labels):
        lines.append(f"{label}:")
        for name, values in series.items():
            value = values[index]
            if value is None:
                lines.append(f"  {name.ljust(name_width)} | (n/a)")
                continue
            bar = "#" * max(1, int(round(width * value / peak)))
            lines.append(
                f"  {name.ljust(name_width)} | {bar} {value:,.2f}{unit}")
    return "\n".join(lines)


def line_series(x_values: Sequence[float],
                series: Dict[str, Sequence[float]],
                title: Optional[str] = None, unit: str = "",
                width: int = 40) -> str:
    """Per-x grouped bars — the text analogue of a line chart."""
    labels = [str(x) for x in x_values]
    return bar_chart(labels, series, width=width, title=title, unit=unit)


def heatmap(matrix: Sequence[Sequence[float]],
            title: Optional[str] = None) -> str:
    """Dense character heatmap (Fig. 7 style)."""
    flat = [value for row in matrix for value in row]
    low, high = min(flat), max(flat)
    span = (high - low) or 1.0
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"scale: '{_RAMP[0]}'={low:.0f} .. '{_RAMP[-1]}'={high:.0f}")
    for row in matrix:
        chars = []
        for value in row:
            level = int((value - low) / span * (len(_RAMP) - 1))
            chars.append(_RAMP[level])
        lines.append("".join(chars))
    return "\n".join(lines)


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """One character per sample, shaded by magnitude (obs time series)."""
    if not values:
        return ""
    low = min(values) if lo is None else lo
    high = max(values) if hi is None else hi
    span = (high - low) or 1.0
    chars = []
    for value in values:
        level = int((min(max(value, low), high) - low) / span
                    * (len(_RAMP) - 1))
        chars.append(_RAMP[level])
    return "".join(chars)


def probe_timeseries(series: Dict[str, Sequence],
                     title: Optional[str] = None,
                     lo: Optional[float] = None,
                     hi: Optional[float] = None) -> str:
    """Sparkline per probe from :meth:`repro.obs.ProbeSet.series` output.

    Each series is ``[(cycle, value), ...]``; rows are sorted by name so
    the chart is stable across runs.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    name_width = max((len(name) for name in series), default=0)
    for name in sorted(series):
        points = series[name]
        values = [value for _, value in points]
        peak = max(values, default=0.0)
        lines.append(f"{name.ljust(name_width)} |"
                     f"{sparkline(values, lo=lo, hi=hi)}| "
                     f"peak {peak:.3g}")
    return "\n".join(lines)


def utilization_heatmap(series: Dict[str, Sequence],
                        title: Optional[str] = None) -> str:
    """Link-utilization probe series as a fixed-scale (0..1) heat grid.

    Rows are links, columns are sample windows — the NoC/AXI occupancy
    picture the obs probes exist to draw.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"scale: '{_RAMP[0]}'=0.0 .. '{_RAMP[-1]}'=1.0 "
                 "(busy fraction per sample window)")
    body = probe_timeseries(series, lo=0.0, hi=1.0)
    if body:
        lines.append(body)
    return "\n".join(lines)


def block_summary(matrix: Sequence[Sequence[float]],
                  block: int) -> Dict[str, Optional[float]]:
    """Diagonal blocks vs off-diagonal blocks (NUMA domains), the
    diagonal itself left out: ``intra_node_*`` and ``inter_node_*``
    mean, min and max.  An empty side has mean 0.0 and min/max None."""
    size = len(matrix)
    diag, off = [], []
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            same = (i // block) == (j // block)
            (diag if same else off).append(matrix[i][j])
    summary: Dict[str, Optional[float]] = {}
    for path, values in (("intra", diag), ("inter", off)):
        summary[f"{path}_node_mean"] = (sum(values) / len(values)
                                        if values else 0.0)
        summary[f"{path}_node_min"] = min(values, default=None)
        summary[f"{path}_node_max"] = max(values, default=None)
    return summary
