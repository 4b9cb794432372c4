"""Plain-text result tables in the style of the paper's figures.

Every experiment module renders its output through :class:`Table`, so the
CLI, the benchmark harness and EXPERIMENTS.md all show the same rows the
paper reports.
"""

from __future__ import annotations

from typing import List, Sequence


class Table:
    """A fixed-width text table with a title and typed cells."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        """Append one row; floats are formatted to two decimals."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_format(cell) for cell in cells])

    def render(self) -> str:
        """Fixed-width text rendering with title and header rule."""
        widths = [
            max(len(col), *(len(row[i]) for row in self.rows)) if self.rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = [self.title]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering."""
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Comma-separated export (header row first; commas in cells quoted)."""

        def quote(cell: str) -> str:
            return f'"{cell}"' if ("," in cell or '"' in cell) else cell

        lines = [",".join(quote(c) for c in self.columns)]
        for row in self.rows:
            lines.append(",".join(quote(c) for c in row))
        return "\n".join(lines)

    def column(self, name: str) -> List[str]:
        """All formatted cells of the named column."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _format(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
