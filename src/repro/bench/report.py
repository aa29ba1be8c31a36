"""Plain-text table rendering for experiment results."""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render an aligned monospace table with a title rule."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [title, "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)

