"""Plain-text rendering of the paper's tables and figures.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the output readable in a terminal (ASCII tables, quantile CDF
listings, and bar histograms for the train-length distributions).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """GitHub-flavoured markdown table (the EXPERIMENTS.md format)."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def render_cdf(
    series: Dict[str, Tuple[List[float], List[float]]],
    quantiles: Sequence[float] = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99),
    unit: str = "ms",
    scale: float = 1e6,
    title: str = "",
) -> str:
    """Render CDFs as a quantile table (one column per named series)."""
    names = list(series)
    headers = ["quantile"] + names
    rows = []
    for q in quantiles:
        row = [f"p{int(q * 100):02d}"]
        for name in names:
            xs, ps = series[name]
            if not xs:
                row.append("-")
                continue
            idx = min(range(len(ps)), key=lambda i: abs(ps[i] - q))
            row.append(f"{xs[idx] / scale:.3f}{unit}")
        rows.append(row)
    return render_table(headers, rows, title=title)


def render_histogram(
    dist: Dict[int, int],
    title: str = "",
    max_bar: int = 50,
    bucket_tail_at: int = 21,
) -> str:
    """Bar chart of a packets-per-train-length distribution."""
    total = sum(dist.values()) or 1
    buckets: Dict[str, int] = {}
    for length in sorted(dist):
        key = str(length) if length < bucket_tail_at else f">={bucket_tail_at}"
        buckets[key] = buckets.get(key, 0) + dist[length]
    lines = [title] if title else []
    for key, count in buckets.items():
        frac = count / total
        bar = "#" * max(1, round(frac * max_bar)) if count else ""
        lines.append(f"  len {key:>4}: {frac * 100:6.2f}% {bar}")
    return "\n".join(lines)
