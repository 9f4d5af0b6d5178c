"""Weekly concentration ratio of submissions.

Articles are grouped per (scope, year, week number) where scope is either a
single journal's flow or the consolidated flow of all journals.  Within a
group of N articles the uniform daily rate is UD = N/7; an article received
on weekday k, one of n_k that week, gets the ratio

    RUD = n_k / UD = 7 * n_k / N

so RUD > 1 marks days receiving more than a uniform week would put there.

The ratios are columnar.  ``build_rud_dataset`` reads the corpus's feature
columns (``Corpus.columns``, one row per article in article-id order),
numbers the distinct (scope, year, week) keys with ``np.unique``, counts N
and n_k with ``bincount`` and returns a RudTable: numpy columns that index
back into the feature columns, so the regression designs and the panel
read the same rows without a per-article object.  Iterating a table
gives one ``RudObservation`` named tuple per row, built from the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date
from typing import Iterator, NamedTuple

import numpy as np

from .corpus import Corpus, FeatureColumns, write_table
from .diststat import apply_transform_steps_array

CONSOLIDATED = "consolidated"
#: the groupings build_rud_dataset takes
SCOPES = (CONSOLIDATED, "journal")


class RudObservation(NamedTuple):
    """One row of a RudTable: an article's ratio and its week cell."""

    article_id: int
    scope: str
    journal: str
    received: date
    year: int
    week_number: int
    weekday: int
    day_count: int
    week_total: int
    rud: float


@dataclass(frozen=True, eq=False)
class RudTable:
    """Per-article ratios under one grouping scope ("journal" or
    "consolidated"), as numpy columns.

    Row i is the article at position ``row[i]`` of ``columns``, the
    corpus's feature columns, and its scope label is ``labels[scope[i]]``.
    A full table has a row for every article, in article-id order.
    Iterating gives one RudObservation per row.
    """

    labels: tuple[str, ...]
    columns: FeatureColumns
    row: np.ndarray
    scope: np.ndarray
    day_count: np.ndarray
    week_total: np.ndarray
    rud: np.ndarray

    def __len__(self) -> int:
        return self.row.size

    @property
    def year(self) -> np.ndarray:
        return self.columns.year[self.row]

    def by_scope(self) -> dict[str, "RudTable"]:
        """One table per scope label that has rows, in label order; each
        keeps its rows in order."""
        tables = {}
        for k, label in enumerate(self.labels):
            rows = self.scope == k
            if rows.any():
                tables[label] = replace(
                    self, row=self.row[rows], scope=self.scope[rows],
                    day_count=self.day_count[rows],
                    week_total=self.week_total[rows], rud=self.rud[rows])
        return tables

    def __iter__(self) -> Iterator[RudObservation]:
        cols, row = self.columns, self.row
        return map(RudObservation._make, zip(
            cols.article_id[row].tolist(),
            map(self.labels.__getitem__, self.scope.tolist()),
            map(cols.journals.__getitem__, cols.journal[row].tolist()),
            map(date.fromordinal, cols.received[row].tolist()),
            cols.year[row].tolist(), cols.week_number[row].tolist(),
            cols.weekday[row].tolist(), self.day_count.tolist(),
            self.week_total.tolist(), self.rud.tolist()))


def build_rud_dataset(corpus: Corpus, scope: str = CONSOLIDATED
                      ) -> RudTable:
    """Per-article RUD under the given grouping scope, in article-id order.

    Week cells are the distinct (scope, year, week) keys; ``bincount``
    gives each cell's total N and each (cell, weekday) count n_k, and
    RUD = n_k / (N / 7.0).
    """
    cols = corpus.columns
    if scope == "journal":
        labels, code = cols.journals, cols.journal
    elif scope == CONSOLIDATED:
        labels, code = (CONSOLIDATED,), np.zeros(len(cols), dtype=np.int64)
    else:
        raise ValueError(f"unknown scope {scope!r}")
    # years are 1..9999 and week numbers 1..54
    _, cell = np.unique((code * 10_000 + cols.year) * 64 + cols.week_number,
                        return_inverse=True)
    cell = cell.reshape(-1)
    day = cell * 7 + cols.weekday - 1
    week_total = np.bincount(cell)[cell]
    day_count = np.bincount(day)[day]
    return RudTable(labels=labels, columns=cols, row=np.arange(len(cols)),
                    scope=code, day_count=day_count, week_total=week_total,
                    rud=day_count / (week_total / 7.0))


RUD_CSV_COLUMNS = ("article_id", "scope", "year", "week", "weekday",
                   "n_k", "N", "rud")


def write_rud_csv(table: RudTable, path: str) -> None:
    cols = table.columns
    write_table(path, RUD_CSV_COLUMNS, zip(
        cols.article_id[table.row].tolist(),
        [table.labels[k] for k in table.scope.tolist()],
        table.year.tolist(), cols.week_number[table.row].tolist(),
        cols.weekday[table.row].tolist(), table.day_count.tolist(),
        table.week_total.tolist(), table.rud.tolist()))


def attach_transform(table: RudTable, spec
                     ) -> tuple[np.ndarray, np.ndarray]:
    """y* and y** of every ratio under ``spec``, in row order.

    ``spec`` is a diststat.TransformSpec.  A ratio outside the transform's
    domain raises the ValueError of the first such row.
    """
    return apply_transform_steps_array(table.rud, spec)
