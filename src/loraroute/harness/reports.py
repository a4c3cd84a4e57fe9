"""Experiment result container with plain-text serialization.

Every analysis in this package produces an :class:`ExperimentReport`.  Grid
kinds (heatmap, selection counts, ablation) hold a dense labeled matrix and
serialize to CSV whose first row names the axes, so any external plotter can
render them without knowing this package.  Record kinds (timing, alignment)
hold a list of flat dicts and serialize to JSON with an explicit ``axes``
list carrying the field names.  The package only writes reports; a reader
parses them with any CSV or JSON library.

Reports are value objects: building one twice from the same inputs yields
byte-identical serializations (timing kinds excepted — wall-clock values are
inherently run-dependent, though the schema is still stable).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ValidationError

Array = np.ndarray

GRID_KINDS = ("heatmap", "selection_counts", "ablation")
RECORD_KINDS = ("timing", "alignment")
REPORT_KINDS = GRID_KINDS + RECORD_KINDS


@dataclass(frozen=True)
class ExperimentReport:
    """One analysis result: a labeled grid or a list of records, plus metadata.

    Grid kinds use ``row_labels`` x ``col_labels`` with ``grid`` of matching
    shape; record kinds use ``records`` (all sharing one key set) and leave
    the grid fields empty.  ``metadata`` carries scalar run parameters
    (seeds, sample counts, derived summary numbers).
    """

    kind: str
    row_axis: str = "row"
    col_axis: str = "col"
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()
    grid: Array | None = None
    records: tuple[Mapping[str, object], ...] = ()
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in REPORT_KINDS:
            raise ValidationError(f"kind must be one of {REPORT_KINDS}, got {self.kind!r}")
        if self.kind in GRID_KINDS:
            if self.grid is None:
                raise ValidationError(f"{self.kind} report requires a grid")
            grid = np.asarray(self.grid, dtype=np.float64)
            if grid.ndim != 2:
                raise ValidationError(f"grid must be 2-D, got shape {grid.shape}")
            if grid.shape != (len(self.row_labels), len(self.col_labels)):
                raise ValidationError(
                    f"grid shape {grid.shape} does not match labels "
                    f"({len(self.row_labels)} rows, {len(self.col_labels)} cols)"
                )
            if not np.all(np.isfinite(grid)):
                raise ValidationError("grid contains non-finite values")
            object.__setattr__(self, "grid", grid)
        else:
            if self.grid is not None:
                raise ValidationError(f"{self.kind} report takes records, not a grid")
            keys = None
            for rec in self.records:
                if keys is None:
                    keys = tuple(rec.keys())
                elif tuple(rec.keys()) != keys:
                    raise ValidationError("all records must share one key set, in order")

    def record_fields(self) -> tuple[str, ...]:
        """Field names shared by all records (empty if there are none)."""
        return tuple(self.records[0].keys()) if self.records else ()

    # -- serialization ----------------------------------------------------------

    def to_csv(self) -> str:
        """Grid kinds only: CSV whose first row names both axes.

        The top-left cell is ``<row_axis>/<col_axis>`` followed by the column
        labels; each data row starts with its row label.  Floats are written
        with ``repr`` so parsing is lossless.
        """
        if self.kind not in GRID_KINDS:
            raise ValidationError(f"{self.kind} reports serialize to JSON, not CSV")
        lines = [",".join([f"{self.row_axis}/{self.col_axis}", *self.col_labels])]
        assert self.grid is not None
        for label, row in zip(self.row_labels, self.grid):
            lines.append(",".join([label, *(repr(float(x)) for x in row)]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Full JSON rendering; works for every kind.

        Record kinds put the shared field names in ``axes`` (the promised
        "first record names the axes" contract); grid kinds embed labels and
        rows directly.
        """
        body: dict[str, object] = {"kind": self.kind}
        if self.kind in GRID_KINDS:
            assert self.grid is not None
            body.update(
                {
                    "row_axis": self.row_axis,
                    "col_axis": self.col_axis,
                    "row_labels": list(self.row_labels),
                    "col_labels": list(self.col_labels),
                    "grid": [[float(x) for x in row] for row in self.grid],
                }
            )
        else:
            body.update(
                {
                    "axes": list(self.record_fields()),
                    "records": [dict(r) for r in self.records],
                }
            )
        body["metadata"] = dict(self.metadata)
        return json.dumps(body, sort_keys=False)


def save_report(report: ExperimentReport, path: str) -> None:
    """Write CSV for grid kinds, JSON for record kinds (by file content, not name)."""
    text = report.to_csv() if report.kind in GRID_KINDS else report.to_json()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def minmax_normalize_columns(grid: Array) -> Array:
    """Min-max normalize each column to [0, 1]; constant columns map to zero.

    Idempotent: a column already spanning [0, 1] has min 0 and max 1, so the
    transform is the identity on it, and an all-zero column stays all-zero.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.size == 0:
        raise ValidationError(f"expected a non-empty 2-D grid, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("grid contains non-finite values")
    lo = grid.min(axis=0, keepdims=True)
    span = grid.max(axis=0, keepdims=True) - lo
    out = np.zeros_like(grid)
    np.divide(grid - lo, span, out=out, where=span > 0.0)
    return out
