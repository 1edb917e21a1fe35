"""Fixed-width table rendering for the result artefacts.

Every registry entry renders its paper table through this module, so all
result artefacts share one format (console text + CSV).
"""

from __future__ import annotations

import io
from typing import Optional, Sequence


class Table:
    """A simple column-aligned text table with an optional title."""

    def __init__(self, columns: Sequence[str], title: Optional[str] = None):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = list(columns)
        self.title = title
        self.rows: list[list[str]] = []
        self._separators: set[int] = set()

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def add_separator(self) -> None:
        """Horizontal rule before the next row (e.g. between table halves)."""
        self._separators.add(len(self.rows))

    def render(self) -> str:
        widths = [len(name) for name in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        out = io.StringIO()
        total = sum(widths) + 3 * (len(widths) - 1)
        if self.title:
            out.write(self.title + "\n")
            out.write("=" * max(total, len(self.title)) + "\n")
        header = " | ".join(name.ljust(width) for name, width in zip(self.columns, widths))
        out.write(header + "\n")
        out.write("-+-".join("-" * width for width in widths) + "\n")
        for index, row in enumerate(self.rows):
            if index in self._separators:
                out.write("-+-".join("-" * width for width in widths) + "\n")
            out.write(
                " | ".join(cell.ljust(width) for cell, width in zip(row, widths)) + "\n"
            )
        return out.getvalue()

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(cell.replace(",", ";") for cell in row))
        return "\n".join(lines) + "\n"


#: Column order of a bus-traffic table row (see :func:`channel_traffic_row`).
CHANNEL_TRAFFIC_COLUMNS = (
    "version", "bus transactions", "bus words", "bus wait [ms]", "polls",
)


def channel_traffic_row(version: str, stats, polls="n/a") -> tuple:
    """One bus-traffic table row from a channel's statistics.

    *stats* is a plain mapping or anything exposing ``as_dict()`` with
    ``transactions``, ``words`` and ``wait_fs`` keys (``ChannelStats``
    does, and so do cache-served experiment payloads); cells line up
    with :data:`CHANNEL_TRAFFIC_COLUMNS`.
    """
    data = stats if isinstance(stats, dict) else stats.as_dict()
    return (
        version,
        data["transactions"],
        data["words"],
        data["wait_fs"] / 1e12,
        polls,
    )


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
