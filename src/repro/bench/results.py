"""Experiment result containers: tables, JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..trace.report import _table

__all__ = ["Series", "format_table"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """Plain-text aligned table of ``rows`` projected onto ``columns``."""
    return _table(columns, [[_fmt(r.get(c, "")) for c in columns] for r in rows])


@dataclass
class Series:
    """One experiment's output: parameterized rows, printable and saveable."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    notes: str = ""

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def table(self) -> str:
        head = f"== {self.experiment}: {self.title} =="
        if self.params:
            head += "\n" + ", ".join(f"{k}={_fmt(v)}" for k, v in self.params.items())
        body = format_table(self.columns, self.rows)
        out = f"{head}\n{body}"
        if self.notes:
            out += f"\n{self.notes}"
        return out

    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment}.json"
        payload = {
            "experiment": self.experiment,
            "title": self.title,
            "params": self.params,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        }
        path.write_text(json.dumps(payload, indent=2, default=str))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Series":
        data = json.loads(Path(path).read_text())
        return cls(
            experiment=data["experiment"],
            title=data["title"],
            columns=data["columns"],
            rows=data["rows"],
            params=data.get("params", {}),
            notes=data.get("notes", ""),
        )

    def column(self, name: str) -> list:
        return [r.get(name) for r in self.rows]
