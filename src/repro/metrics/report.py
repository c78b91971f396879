"""Plain-text tables for experiment output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; this module renders them consistently.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(parts: Sequence[str]) -> str:
        return "  ".join(part.ljust(widths[i]) for i, part in enumerate(parts)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    for row in cells:
        out.append(line(row))
    return "\n".join(out)


def format_series(name: str, points: Sequence[tuple[Any, Any]]) -> str:
    """Render an (x, y) series as two aligned columns."""
    return format_table(["x", name], list(points))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int) and abs(value) >= 10000:
        return f"{value:,d}"
    return str(value)


def human_bytes(n: int | float) -> str:
    """1536 -> '1.5 KiB'."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    raise AssertionError("unreachable")
