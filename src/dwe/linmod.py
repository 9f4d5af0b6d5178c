"""Dummy-variable regression models over transformed weekly ratios.

The model ladder M1..M9 regresses the transformed ratio y** on cumulative
blocks of regressors (reference categories in parentheses):

    M1  weekday dummies: monday..thursday + weekend      (friday)
    M2  season dummies: spring, summer, fall             (winter)
    M3  continent dummies: america, africa, asia, oceania (europe)
    M4  weekday + season        M5  + continents
    M6  + christmas window      M7  + log10 author count
    M8  + log10 HDI             M9  + log10 LTO

The weekend dummy follows each country's dated weekend schedule, so e.g. a
Friday submission from a Fri/Sat-weekend country scores 1 and its Sundays
fall into the reference day.  Estimators: classical OLS (QR-based) and
robust M-estimation with the Tukey bisquare weight

    w(u) = (1 - (u/c)^2)^2  for |u| < c, else 0,   c = 4.685

iterated with a median-centered MAD scale (MAD/0.6745) recomputed each
step.  Robust t statistics use the normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import CONTINENTS, SEASONS, Corpus, FeatureColumns, \
    write_table
from .diststat import (TestResult, TransformSpec, chi_square_test,
                       fit_transform_spec, jarque_bera, moments)
from .lsq import (CONST, FitResult, classical_inference,
                  drop_degenerate_columns, qr_solve, t_inference,
                  xtx_inverse)
from .rud import CONSOLIDATED, attach_transform, \
    build_rud_dataset

WEEKDAY_TERMS = ("monday", "tuesday", "wednesday", "thursday", "weekend")
SEASON_TERMS = ("spring", "summer", "fall")
CONTINENT_TERMS = ("america", "africa", "asia", "oceania")

MODEL_TERMS: dict[str, tuple[str, ...]] = {
    "M1": (CONST,) + WEEKDAY_TERMS,
    "M2": (CONST,) + SEASON_TERMS,
    "M3": (CONST,) + CONTINENT_TERMS,
    "M4": (CONST,) + WEEKDAY_TERMS + SEASON_TERMS,
    "M5": (CONST,) + WEEKDAY_TERMS + SEASON_TERMS + CONTINENT_TERMS,
    "M6": (CONST,) + WEEKDAY_TERMS + SEASON_TERMS + CONTINENT_TERMS
          + ("christmas",),
    "M7": (CONST,) + WEEKDAY_TERMS + SEASON_TERMS + CONTINENT_TERMS
          + ("christmas", "log10_authors"),
    "M8": (CONST,) + WEEKDAY_TERMS + SEASON_TERMS + CONTINENT_TERMS
          + ("christmas", "log10_authors", "log10_hdi"),
    "M9": (CONST,) + WEEKDAY_TERMS + SEASON_TERMS + CONTINENT_TERMS
          + ("christmas", "log10_authors", "log10_hdi", "log10_lto"),
}

BISQUARE_C = 4.685
MAD_NORMALIZER = 0.6745
#: IRLS stops once no coefficient moves by this much, or after RLS_MAX_ITER
RLS_TOL = 1e-8
RLS_MAX_ITER = 200
METHODS = ("ols", "rls")

DEFAULT_WINDOWS = ((2000, 2004), (2005, 2007), (2008, 2010),
                   (2011, 2013), (2014, 2016))


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    terms: tuple[str, ...]


def standard_model(model_id: str) -> ModelSpec:
    if model_id not in MODEL_TERMS:
        raise ValueError(f"unknown model {model_id!r}; have M1..M9")
    return ModelSpec(model_id=model_id, terms=MODEL_TERMS[model_id])


#: every term a model may use, in the column order of the superset matrix
DESIGN_TERMS = MODEL_TERMS["M9"]


def superset_matrix(cols: FeatureColumns) -> np.ndarray:
    """One row per article and one float column per DESIGN_TERMS.

    Dummies are 1.0/0.0, the log covariates are the articles' own values,
    and an absent LTO is NaN.
    """
    values = {CONST: np.ones(len(cols)), "weekend": cols.is_weekend,
              "christmas": cols.is_christmas,
              "log10_authors": cols.log10_authors,
              "log10_hdi": cols.log10_hdi, "log10_lto": cols.log10_lto}
    for day, term in enumerate(WEEKDAY_TERMS[:4], start=1):
        values[term] = cols.weekday == day
    for term in SEASON_TERMS:
        values[term] = cols.season == SEASONS.index(term)
    for term in CONTINENT_TERMS:
        values[term] = cols.continent == CONTINENTS.index(term)
    return np.column_stack([values[t] for t in DESIGN_TERMS])


@dataclass(frozen=True)
class DesignMatrix:
    y: np.ndarray
    X: np.ndarray
    columns: tuple[str, ...]
    dropped_columns: tuple[str, ...]
    n_dropped_rows: int

    @property
    def n(self) -> int:
        return self.y.size


def build_design(features: np.ndarray, y: np.ndarray,
                 spec: ModelSpec) -> DesignMatrix:
    """Assemble y** and the model's columns.

    ``features`` holds rows of the superset matrix (see
    ``superset_matrix``) and ``y`` the transformed ratios of those rows.
    Rows missing a required covariate (absent LTO) are listwise-dropped.
    Zero-variance columns (a category with no members in the data) and
    exactly collinear columns are removed and reported, never silently
    zero-padded.  Requires more rows than surviving columns.
    """
    for term in spec.terms:
        if term not in DESIGN_TERMS:
            raise ValueError(f"unknown term {term!r}")
    X = features[:, [DESIGN_TERMS.index(t) for t in spec.terms]]
    complete = ~np.isnan(X).any(axis=1)
    n_dropped_rows = int(complete.size - np.count_nonzero(complete))
    if n_dropped_rows:
        X, y = X[complete], y[complete]
    if not X.shape[0]:
        raise ValueError(f"no usable observations for model {spec.model_id}")
    X, columns, dropped = drop_degenerate_columns(X, spec.terms)
    if X.shape[0] <= X.shape[1]:
        raise ValueError(
            f"{X.shape[0]} rows for {X.shape[1]} columns in "
            f"model {spec.model_id}")
    return DesignMatrix(y=np.ascontiguousarray(y, dtype=float), X=X,
                        columns=tuple(columns),
                        dropped_columns=tuple(dropped),
                        n_dropped_rows=n_dropped_rows)


def ols_fit(design: DesignMatrix) -> FitResult:
    """Classical least squares with conventional t inference.

    R-squared is centred when the design has a constant column and
    uncentred otherwise; a constant dependent variable raises.
    """
    X, y = design.X, design.y
    beta, R = qr_solve(X, y, design.columns)
    fit = classical_inference(X, y, beta, R, design.columns,
                              centered=CONST in design.columns)
    if fit.tss <= 0.0:
        raise ValueError("constant dependent variable")
    return fit


def bisquare_weight(u, c: float = BISQUARE_C):
    """Tukey bisquare weight; 1 at u=0, 0 at |u| >= c."""
    u = np.asarray(u, dtype=float)
    w = np.zeros_like(u)
    inside = np.abs(u) < c
    w[inside] = (1.0 - (u[inside] / c) ** 2) ** 2
    return w


def _mad_scale(resid: np.ndarray) -> float:
    centered = resid - np.median(resid)
    return float(np.median(np.abs(centered))) / MAD_NORMALIZER


def rls_fit(design: DesignMatrix, c: float = BISQUARE_C) -> FitResult:
    """Iteratively reweighted bisquare M-estimation, OLS start.

    The scale is the median-centered MAD over 0.6745, recomputed every
    iteration.  Convergence: max coefficient change below ``RLS_TOL``.
    Standard errors use the usual M-estimator asymptotic covariance and
    normal-approximation p-values; R-squared is the weighted version under
    the final weights.  A saturated design (n = p) has no residuals to
    weight, so it gets ``ols_fit``'s exact coefficients and NaN inference;
    on fewer rows than columns ``ols_fit`` raises naming dependent columns.
    """
    X, y = design.X, design.y
    n, p = X.shape
    if n <= p:
        return ols_fit(design)
    # the OLS start; its R also gives the final covariance's (X'X)^-1
    beta, R = qr_solve(X, y, design.columns)
    # dgeqrf reads Fortran order, so weight a Fortran-ordered copy of X
    X_f = np.asfortranarray(X)
    w = np.ones(n)
    scale = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, RLS_MAX_ITER + 1):
        resid = y - X @ beta
        scale = _mad_scale(resid)
        if scale <= 0.0:
            # (near-)exact fit on more than half the sample
            w = (np.abs(resid) <= 1e-12 * max(1.0, float(np.abs(y).max())))
            w = w.astype(float)
            converged = True
            break
        u = resid / scale
        w = bisquare_weight(u, c)
        if not np.any(w > 0.0):
            raise ValueError(
                f"every observation lies beyond c={c} scale units; "
                "robust fit impossible")
        sw = np.sqrt(w)
        beta_new, _ = qr_solve(X_f * sw[:, None], y * sw, design.columns)
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if delta < RLS_TOL:
            converged = True
            break

    resid = y - X @ beta
    df = n - p
    scale = _mad_scale(resid)
    if scale > 0.0:
        u = resid / scale
        psi = u * bisquare_weight(u, c)
        inside = np.abs(u) < c
        dpsi = np.zeros_like(u)
        ui = u[inside] / c
        dpsi[inside] = (1.0 - ui ** 2) * (1.0 - 5.0 * ui ** 2)
        mean_dpsi = float(np.mean(dpsi))
        if mean_dpsi > 0.0:
            kappa = (float(np.sum(psi ** 2)) / df) * scale ** 2 \
                / mean_dpsi ** 2
            se = np.sqrt(np.maximum(kappa * np.diag(xtx_inverse(R)), 0.0))
        else:
            se = np.full(p, math.nan)
    else:
        se = np.zeros(p)
    t, pvals, marks = t_inference(beta, se)

    wsum = float(w.sum())
    r2 = tss_w = math.nan
    if wsum > 0.0:
        ybar_w = float(np.sum(w * y)) / wsum
        tss_w = float(np.sum(w * (y - ybar_w) ** 2))
        rss_w = float(np.sum(w * resid ** 2))
        r2 = 1.0 - rss_w / tss_w if tss_w > 0 else math.nan
    return FitResult(
        columns=design.columns, coefficients=beta, standard_errors=se,
        t_stats=t, p_values=pvals, stars=marks, r_squared=r2, n=n,
        residuals=resid, tss=tss_w, converged=converged,
        iterations=iterations, weights=w)


# -- diagnostics ------------------------------------------------------------

def _with_const(design: DesignMatrix) -> tuple[np.ndarray, tuple[str, ...]]:
    """The design's matrix and columns, led by a constant column unless
    ``const`` is already one of them."""
    if CONST in design.columns:
        return design.X, design.columns
    return (np.hstack([np.ones((design.n, 1)), design.X]),
            (CONST,) + design.columns)


def vif(design: DesignMatrix) -> dict[str, float]:
    """Variance inflation factors of the non-constant columns off one
    factorisation of the const-led design: VIF_j = 1/(1 - R_j^2) =
    [(X'X)^-1]_jj sum((x_j - mean x_j)^2), inf from 1e12 on."""
    X, columns = _with_const(design)
    xtx_inv = xtx_inverse(qr_solve(X, design.y, columns)[1])
    tss = np.sum((X - X.mean(axis=0)) ** 2, axis=0)
    return {name: math.inf if v >= 1e12 else float(v)
            for name, v in zip(columns, np.diag(xtx_inv) * tss)
            if name != CONST}


def _lm_test(e2: np.ndarray, X: np.ndarray, columns: Sequence[str],
             name: str) -> TestResult:
    """n R^2 of the auxiliary regression of e2 on X (const-led), against
    chi^2 at 5% with one degree of freedom per non-constant column of X;
    a constant e2 scores 0.  Raises when X has no such column."""
    df = X.shape[1] - 1
    if df < 1:
        raise ValueError(f"no auxiliary regressors for the {name} test")
    beta, R = qr_solve(X, e2, columns)
    fit = classical_inference(X, e2, beta, R, columns, centered=True)
    return chi_square_test(
        X.shape[0] * fit.r_squared if fit.tss > 0.0 else 0.0, df)


def breusch_pagan(design: DesignMatrix, fit: FitResult) -> TestResult:
    """n R^2 of the squared-residual auxiliary regression on the design."""
    return _lm_test(fit.residuals ** 2, *_with_const(design), "Breusch-Pagan")


def white_test(design: DesignMatrix, fit: FitResult) -> TestResult:
    """Auxiliary regression on levels, squares, and cross products.

    ``drop_degenerate_columns`` removes the constant auxiliary columns and
    the collinear ones, such as a dummy's square, which duplicates its
    level.
    """
    base = [(design.X[:, j], name) for j, name in enumerate(design.columns)
            if name != CONST]
    aux = base + [(c * c, f"{l}^2") for c, l in base] + [
        (a * b, f"{la}*{lb}") for (a, la), (b, lb) in combinations(base, 2)]
    X = np.column_stack([np.ones(design.n)] + [c for c, _ in aux])
    X, columns, _ = drop_degenerate_columns(X, [CONST] + [l for _, l in aux])
    return _lm_test(fit.residuals ** 2, X, columns, "White")


def residual_jb(fit: FitResult) -> TestResult:
    return jarque_bera(moments(fit.residuals))


# -- rolling windows --------------------------------------------------------

class RollRow(NamedTuple):
    """A regress.csv row in ``RollReport.CSV_COLUMNS`` order."""

    scope: str
    window: str
    model_id: str
    term: str
    coefficient: float | None
    stars: str
    marker: str
    n: int


@dataclass(frozen=True)
class RollReport:
    rows: tuple[RollRow, ...]

    CSV_COLUMNS = ("scope", "window", "model", "term", "coefficient",
                   "stars", "marker", "n")

    def to_csv(self, path: str) -> None:
        write_table(path, self.CSV_COLUMNS, self.rows)


def validate_windows(windows: Sequence[tuple[int, int]]) -> None:
    spans = sorted(windows)
    for y0, y1 in spans:
        if y1 < y0:
            raise ValueError(f"window {y0}-{y1} ends before it starts")
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        if b0 <= a1:
            raise ValueError(f"windows {a0}-{a1} and {b0}-{b1} overlap")


def _marker_row(cell: tuple[str, str, str], marker: str) -> RollRow:
    """The one row of a (scope, window, model) cell with no fit."""
    return RollRow(*cell, "", None, "", marker, 0)


def _cell_rows(cell: tuple[str, str, str], method: str, x: np.ndarray,
               y: np.ndarray) -> list[RollRow]:
    """A (scope, window, model) cell's rows: one per fitted term and the
    ``_adjusted_r2`` row, or the marker row of an empty window or a failed
    fit.  A term with no finite positive standard error is marked "?"; a
    robust fit that does not converge is refitted by OLS and its
    ``_adjusted_r2`` row marked "not-converged"."""
    if not y.size:
        return [_marker_row(cell, "empty")]
    try:
        design = build_design(x, y, standard_model(cell[2]))
        fit = ols_fit(design) if method == "ols" else rls_fit(design)
        fallback = not fit.converged
        if fallback:
            fit = ols_fit(design)
    except ValueError as exc:
        return [_marker_row(cell, f"failed: {exc}")]
    se = fit.standard_errors
    se_ok = (np.isfinite(se) & (se > 0.0)).tolist()
    rows = [RollRow(*cell, term, coef, star if ok else "", "" if ok else "?",
                    fit.n)
            for term, coef, star, ok in zip(fit.columns,
                                             fit.coefficients.tolist(),
                                             fit.stars, se_ok)]
    rows.append(RollRow(*cell, "_adjusted_r2", float(fit.adjusted_r_squared),
                        "", "not-converged" if fallback else "", fit.n))
    return rows


def roll_window_run(corpus: Corpus,
                    windows: Sequence[tuple[int, int]] = DEFAULT_WINDOWS,
                    model_ids: Sequence[str] = tuple(MODEL_TERMS),
                    method: str = "ols", *,
                    scopes: Sequence[str],
                    transform_specs: Mapping[str, TransformSpec]
                    | None = None) -> RollReport:
    """Fit every model per (scope, window) and tabulate the coefficients.

    The transform spec for a scope is fitted once on that scope's full
    sample unless supplied.  Each cell's rows come from ``_cell_rows``; a
    scope whose transform fails leaves a "failed: ..." marker row per cell.
    An unknown method raises before any fit.

    The superset matrix is built once; a window gathers its rows from it
    by a mask over its scope's rows, and a model is a column slice.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"have {' or '.join(METHODS)}")
    validate_windows(windows)
    consolidated = build_rud_dataset(corpus)
    per_journal = build_rud_dataset(corpus, "journal").by_scope()
    features = superset_matrix(corpus.columns)
    labels = [f"{y0}-{y1}" for y0, y1 in windows]
    rows: list[RollRow] = []
    for scope in scopes:
        table = consolidated if scope == CONSOLIDATED \
            else per_journal.get(scope)
        if table is None:
            raise ValueError(f"unknown scope {scope!r}")
        try:
            if transform_specs and scope in transform_specs:
                spec = transform_specs[scope]
            else:
                spec = fit_transform_spec(table.rud).spec
            _, y_scope = attach_transform(table, spec)
        except ValueError as exc:
            rows.extend(_marker_row((scope, label, model_id),
                                    f"failed: {exc}")
                        for label in labels for model_id in model_ids)
            continue
        for (y0, y1), label in zip(windows, labels):
            in_window = (table.year >= y0) & (table.year <= y1)
            x_window = features[table.row[in_window]]
            y_window = y_scope[in_window]
            for model_id in model_ids:
                rows.extend(_cell_rows((scope, label, model_id), method,
                                       x_window, y_window))
    return RollReport(rows=tuple(rows))
