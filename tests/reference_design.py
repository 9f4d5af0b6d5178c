"""Oracle for the columnar design build.

``reference_build_design`` is the row-wise design build as it was before
the superset matrix: every (observation, term) pair goes through the
``_term_value`` dispatcher, a row missing a covariate (absent LTO) is
dropped as soon as it is met, and the kept rows become the matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dwe.linmod import (CONTINENT_TERMS, SEASON_TERMS, DesignMatrix,
                        ModelSpec)
from dwe.lsq import CONST, drop_degenerate_columns
from reference_corpus import DerivedFeatures


def _term_value(term: str, f: DerivedFeatures) -> float | None:
    if term == CONST:
        return 1.0
    if term == "monday":
        return float(f.weekday == 1)
    if term == "tuesday":
        return float(f.weekday == 2)
    if term == "wednesday":
        return float(f.weekday == 3)
    if term == "thursday":
        return float(f.weekday == 4)
    if term == "weekend":
        return float(f.is_weekend)
    if term in SEASON_TERMS:
        return float(f.season == term)
    if term in CONTINENT_TERMS:
        return float(f.continent == term)
    if term == "christmas":
        return float(f.is_christmas)
    if term == "log10_authors":
        return f.log10_authors
    if term == "log10_hdi":
        return f.log10_hdi
    if term == "log10_lto":
        return f.log10_lto  # may be None -> listwise drop
    raise ValueError(f"unknown term {term!r}")


def reference_build_design(features: Sequence[DerivedFeatures],
                           y: Sequence[float],
                           spec: ModelSpec) -> DesignMatrix:
    rows: list[list[float]] = []
    yvals: list[float] = []
    n_dropped_rows = 0
    for f, y_value in zip(features, y):
        vals = []
        missing = False
        for term in spec.terms:
            v = _term_value(term, f)
            if v is None:
                missing = True
                break
            vals.append(v)
        if missing:
            n_dropped_rows += 1
            continue
        rows.append(vals)
        yvals.append(y_value)
    if not rows:
        raise ValueError(f"no usable observations for model {spec.model_id}")
    X, columns, dropped = drop_degenerate_columns(
        np.asarray(rows, dtype=float), spec.terms)
    if X.shape[0] <= X.shape[1]:
        raise ValueError(
            f"{X.shape[0]} rows for {X.shape[1]} columns in "
            f"model {spec.model_id}")
    return DesignMatrix(y=np.asarray(yvals, dtype=float), X=X,
                        columns=tuple(columns),
                        dropped_columns=tuple(dropped),
                        n_dropped_rows=n_dropped_rows)

