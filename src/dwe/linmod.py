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

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import linalg as _sla
from scipy import stats as _sps

from .corpus import Corpus
from .diststat import (MomentSummary, TestResult, TransformSpec,
                       chi_square_critical, fit_transform_spec, jarque_bera,
                       moments)
from .rud import CONSOLIDATED, RudObservation, attach_transform, \
    build_rud_dataset

CONST = "const"

WEEKDAY_TERMS = ("monday", "tuesday", "wednesday", "thursday", "weekend")
SEASON_TERMS = ("spring", "summer", "fall")
CONTINENT_TERMS = ("america", "africa", "asia", "oceania")
COVARIATE_TERMS = ("christmas", "log10_authors", "log10_hdi", "log10_lto")

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

DEFAULT_WINDOWS = ((2000, 2004), (2005, 2007), (2008, 2010),
                   (2011, 2013), (2014, 2016))


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    terms: tuple[str, ...]
    method: str = "ols"

    def __post_init__(self) -> None:
        if self.method not in ("ols", "rls"):
            raise ValueError(f"unknown method {self.method!r}")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate terms")


def standard_model(model_id: str, method: str = "ols") -> ModelSpec:
    if model_id not in MODEL_TERMS:
        raise ValueError(f"unknown model {model_id!r}; have M1..M9")
    return ModelSpec(model_id=model_id, terms=MODEL_TERMS[model_id],
                     method=method)


def _term_value(term: str, o: RudObservation) -> float | None:
    f = o.features
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

    @property
    def p(self) -> int:
        return self.X.shape[1]


def _drop_dependent(X: np.ndarray, columns: list[str]
                    ) -> tuple[np.ndarray, list[str], list[str]]:
    """Remove exactly collinear columns (pivoted-QR rank reveal)."""
    if X.shape[1] == 0:
        return X, columns, []
    _, R, piv = _sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank == X.shape[1]:
        return X, columns, []
    keep = sorted(piv[:rank])
    dropped = [columns[i] for i in sorted(piv[rank:])]
    return X[:, keep], [columns[i] for i in keep], dropped


def build_design(observations: Sequence[RudObservation],
                 spec: ModelSpec) -> DesignMatrix:
    """Assemble y** and the model's columns.

    Rows missing a required covariate (absent LTO) are listwise-dropped.
    Zero-variance columns (a category with no members in the data) and
    exactly collinear columns are removed and reported, never silently
    zero-padded.  Requires more rows than surviving columns.
    """
    rows: list[list[float]] = []
    yvals: list[float] = []
    n_dropped_rows = 0
    for o in observations:
        if o.y_star_star is None:
            raise ValueError(
                f"observation {o.article_id} has no transformed value; "
                "apply a transform spec first")
        vals = []
        missing = False
        for term in spec.terms:
            v = _term_value(term, o)
            if v is None:
                missing = True
                break
            vals.append(v)
        if missing:
            n_dropped_rows += 1
            continue
        rows.append(vals)
        yvals.append(o.y_star_star)
    if not rows:
        raise ValueError(f"no usable observations for model {spec.model_id}")
    X = np.asarray(rows, dtype=float)
    y = np.asarray(yvals, dtype=float)
    columns = list(spec.terms)

    dropped: list[str] = []
    keep_idx = []
    for j, name in enumerate(columns):
        col = X[:, j]
        if name != CONST and float(col.max()) == float(col.min()):
            dropped.append(name)
        else:
            keep_idx.append(j)
    X = X[:, keep_idx]
    columns = [columns[j] for j in keep_idx]

    X, columns, dep = _drop_dependent(X, columns)
    dropped.extend(dep)

    if X.shape[0] <= X.shape[1]:
        raise ValueError(
            f"{X.shape[0]} rows for {X.shape[1]} columns in "
            f"model {spec.model_id}")
    return DesignMatrix(y=y, X=X, columns=tuple(columns),
                        dropped_columns=tuple(dropped),
                        n_dropped_rows=n_dropped_rows)


def _stars(p: float) -> str:
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return ""


@dataclass(frozen=True)
class FitResult:
    method: str
    columns: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    stars: tuple[str, ...]
    r_squared: float
    adjusted_r_squared: float
    f_stat: float
    f_p_value: float
    f_significant_1pct: bool
    n: int
    df_resid: int
    residuals: np.ndarray
    fitted: np.ndarray
    converged: bool = True
    iterations: int = 0
    weights: np.ndarray | None = None
    dropped_columns: tuple[str, ...] = ()
    n_dropped_rows: int = 0

    def coefficient(self, term: str) -> float:
        return float(self.coefficients[self.columns.index(term)])


def _qr_solve(X: np.ndarray, y: np.ndarray,
              columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(beta, (X'X)^-1) via QR; raises naming dependent columns."""
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    tol = max(X.shape) * np.finfo(float).eps * (diag.max() if diag.size
                                                else 0.0)
    if diag.size and diag.min() <= tol:
        _, _, piv = _sla.qr(X, mode="economic", pivoting=True)
        rank = int(np.sum(diag > tol))
        dependent = [columns[i] for i in sorted(piv[rank:])]
        raise ValueError(f"design is rank deficient; dependent columns: "
                         f"{', '.join(dependent)}")
    beta = _sla.solve_triangular(R, Q.T @ y)
    r_inv = _sla.solve_triangular(R, np.eye(R.shape[0]))
    return beta, r_inv @ r_inv.T


def ols_fit(design: DesignMatrix, f_alpha: float = 0.01) -> FitResult:
    """Classical least squares with conventional t/F inference."""
    X, y = design.X, design.y
    n, p = X.shape
    beta, xtx_inv = _qr_solve(X, y, design.columns)
    fitted = X @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    df = n - p
    if df > 0:
        sigma2 = rss / df
        se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(se > 0, beta / se, np.inf * np.sign(beta))
        pvals = 2.0 * _sps.t.sf(np.abs(t), df)
    else:
        # saturated design: coefficients are exact, inference undefined
        se = np.full(p, math.nan)
        t = np.full(p, math.nan)
        pvals = np.full(p, math.nan)
    tss = float(np.sum((y - y.mean()) ** 2)) if CONST in design.columns \
        else float(y @ y)
    if tss <= 0.0:
        raise ValueError("constant dependent variable")
    r2 = 1.0 - rss / tss
    adj = 1.0 - (1.0 - r2) * (n - 1) / df if df > 0 else math.nan
    if p > 1 and df > 0:
        f_stat = (r2 / (p - 1)) / ((1.0 - r2) / df) if r2 < 1.0 else math.inf
        f_p = float(_sps.f.sf(f_stat, p - 1, df))
    else:
        f_stat, f_p = math.nan, math.nan
    return FitResult(
        method="ols", columns=design.columns, coefficients=beta,
        standard_errors=se, t_stats=t, p_values=pvals,
        stars=tuple(_stars(pv) for pv in pvals),
        r_squared=r2, adjusted_r_squared=adj,
        f_stat=f_stat, f_p_value=f_p,
        f_significant_1pct=bool(f_p <= f_alpha) if not math.isnan(f_p)
        else False,
        n=n, df_resid=df, residuals=resid, fitted=fitted,
        dropped_columns=design.dropped_columns,
        n_dropped_rows=design.n_dropped_rows)


def bisquare_weight(u, c: float = BISQUARE_C):
    """Tukey bisquare weight; 1 at u=0, 0 at |u| >= c."""
    u = np.asarray(u, dtype=float)
    w = np.zeros_like(u)
    inside = np.abs(u) < c
    w[inside] = (1.0 - (u[inside] / c) ** 2) ** 2
    if w.ndim == 0:
        return float(w)
    return w


def _mad_scale(resid: np.ndarray) -> float:
    centered = resid - np.median(resid)
    return float(np.median(np.abs(centered))) / MAD_NORMALIZER


def rls_fit(design: DesignMatrix, c: float = BISQUARE_C,
            tol: float = 1e-8, max_iter: int = 200) -> FitResult:
    """Iteratively reweighted bisquare M-estimation, OLS start.

    The scale is the median-centered MAD over 0.6745, recomputed every
    iteration.  Convergence: max coefficient change below ``tol``.
    Standard errors use the usual M-estimator asymptotic covariance and
    normal-approximation p-values; R-squared is the weighted version under
    the final weights.
    """
    X, y = design.X, design.y
    n, p = X.shape
    beta, _ = _qr_solve(X, y, design.columns)
    w = np.ones(n)
    scale = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
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
        beta_new, _ = _qr_solve(X * sw[:, None], y * sw, design.columns)
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if delta < tol:
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
        _, xtx_inv = _qr_solve(X, y, design.columns)
        if mean_dpsi > 0.0:
            kappa = (float(np.sum(psi ** 2)) / df) * scale ** 2 \
                / mean_dpsi ** 2
            se = np.sqrt(np.maximum(kappa * np.diag(xtx_inv), 0.0))
        else:
            se = np.full(p, math.nan)
    else:
        se = np.zeros(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    pvals = 2.0 * _sps.norm.sf(np.abs(t))

    wsum = float(w.sum())
    if wsum > 0.0:
        ybar_w = float(np.sum(w * y)) / wsum
        tss_w = float(np.sum(w * (y - ybar_w) ** 2))
        rss_w = float(np.sum(w * resid ** 2))
        r2 = 1.0 - rss_w / tss_w if tss_w > 0 else math.nan
    else:
        r2 = math.nan
    adj = 1.0 - (1.0 - r2) * (n - 1) / df if not math.isnan(r2) else math.nan
    if p > 1 and not math.isnan(r2) and r2 < 1.0:
        f_stat = (r2 / (p - 1)) / ((1.0 - r2) / df)
        f_p = float(_sps.f.sf(f_stat, p - 1, df))
    else:
        f_stat, f_p = math.nan, math.nan
    return FitResult(
        method="rls", columns=design.columns, coefficients=beta,
        standard_errors=se, t_stats=t, p_values=pvals,
        stars=tuple(_stars(pv) for pv in pvals),
        r_squared=r2, adjusted_r_squared=adj,
        f_stat=f_stat, f_p_value=f_p,
        f_significant_1pct=bool(f_p <= 0.01) if not math.isnan(f_p)
        else False,
        n=n, df_resid=df, residuals=resid, fitted=X @ beta,
        converged=converged, iterations=iterations, weights=w,
        dropped_columns=design.dropped_columns,
        n_dropped_rows=design.n_dropped_rows)


def fit_model(design: DesignMatrix, method: str = "ols", **kw) -> FitResult:
    if method == "ols":
        return ols_fit(design, **kw)
    if method == "rls":
        return rls_fit(design, **kw)
    raise ValueError(f"unknown method {method!r}")


# -- diagnostics ------------------------------------------------------------

def _aux_r_squared(target: np.ndarray, X: np.ndarray) -> float:
    """R^2 of a least-squares regression of target on X (const included)."""
    beta, _ = np.linalg.lstsq(X, target, rcond=None)[:2]
    resid = target - X @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((target - target.mean()) ** 2))
    if tss <= 0.0:
        return 0.0
    return 1.0 - rss / tss


def vif(design: DesignMatrix) -> dict[str, float]:
    """Variance inflation factors of the non-constant columns."""
    out: dict[str, float] = {}
    const_col = np.ones((design.n, 1))
    for j, name in enumerate(design.columns):
        if name == CONST:
            continue
        target = design.X[:, j]
        others = np.delete(design.X, j, axis=1)
        if CONST not in design.columns:
            others = np.hstack([const_col, others])
        r2 = _aux_r_squared(target, others)
        out[name] = math.inf if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return out


def _dedupe_columns(cols: list[np.ndarray], labels: list[str]
                    ) -> tuple[list[np.ndarray], list[str], bool]:
    kept: list[np.ndarray] = []
    kept_labels: list[str] = []
    dropped_any = False
    for col, label in zip(cols, labels):
        if float(col.max()) == float(col.min()):
            dropped_any = True
            continue
        if any(np.array_equal(col, k) for k in kept):
            dropped_any = True
            continue
        kept.append(col)
        kept_labels.append(label)
    return kept, kept_labels, dropped_any


def breusch_pagan(design: DesignMatrix, fit: FitResult,
                  alpha: float = 0.05) -> TestResult:
    """n R^2 of the squared-residual auxiliary regression on the design."""
    e2 = fit.residuals ** 2
    X = design.X if CONST in design.columns else np.hstack(
        [np.ones((design.n, 1)), design.X])
    p_aux = X.shape[1]
    stat = design.n * _aux_r_squared(e2, X)
    df = p_aux - 1
    crit = chi_square_critical(df, alpha)
    return TestResult(statistic=stat, df=df, critical_value=crit,
                      p_value=float(_sps.chi2.sf(stat, df)), alpha=alpha,
                      reject_null=stat > crit)


def white_test(design: DesignMatrix, fit: FitResult,
               alpha: float = 0.05) -> TestResult:
    """Auxiliary regression on levels, squares, and cross products.

    Dummy squares duplicate their levels and are removed, as are any other
    duplicated or constant auxiliary columns; the note records this.
    """
    e2 = fit.residuals ** 2
    base = [(design.X[:, j], design.columns[j])
            for j in range(design.p) if design.columns[j] != CONST]
    cols = [c for c, _ in base]
    labels = [l for _, l in base]
    for c, l in base:
        cols.append(c * c)
        labels.append(f"{l}^2")
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            cols.append(base[i][0] * base[j][0])
            labels.append(f"{base[i][1]}*{base[j][1]}")
    kept, kept_labels, dropped = _dedupe_columns(cols, labels)
    X = np.hstack([np.ones((design.n, 1))]
                  + [k[:, None] for k in kept])
    X, kept_labels, dep = _drop_dependent(X, [CONST] + kept_labels)
    dropped = dropped or bool(dep)
    df = X.shape[1] - 1
    if df < 1:
        raise ValueError("no auxiliary regressors for the White test")
    stat = design.n * _aux_r_squared(e2, X)
    crit = chi_square_critical(df, alpha)
    return TestResult(statistic=stat, df=df, critical_value=crit,
                      p_value=float(_sps.chi2.sf(stat, df)), alpha=alpha,
                      reject_null=stat > crit,
                      note="duplicated auxiliary columns dropped"
                      if dropped else "")


def residual_jb(fit: FitResult, alpha: float = 0.05) -> TestResult:
    return jarque_bera(moments(fit.residuals), alpha)


@dataclass(frozen=True)
class Diagnostics:
    vif: Mapping[str, float]
    breusch_pagan: TestResult
    white: TestResult
    residual_normality: TestResult


def diagnose(design: DesignMatrix, fit: FitResult,
             alpha: float = 0.05) -> Diagnostics:
    return Diagnostics(vif=vif(design),
                       breusch_pagan=breusch_pagan(design, fit, alpha),
                       white=white_test(design, fit, alpha),
                       residual_normality=residual_jb(fit, alpha))


# -- rolling windows --------------------------------------------------------

@dataclass(frozen=True)
class RollRow:
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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_COLUMNS)
            for r in self.rows:
                coeff = "" if r.coefficient is None else repr(r.coefficient)
                w.writerow([r.scope, r.window, r.model_id, r.term, coeff,
                            r.stars, r.marker, r.n])

    @classmethod
    def from_csv(cls, path: str) -> "RollReport":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != cls.CSV_COLUMNS:
                raise ValueError(f"{path}: bad roll header {header!r}")
            rows = []
            for line in reader:
                if not line:
                    continue
                rows.append(RollRow(
                    scope=line[0], window=line[1], model_id=line[2],
                    term=line[3],
                    coefficient=float(line[4]) if line[4] else None,
                    stars=line[5], marker=line[6], n=int(line[7])))
        return cls(rows=tuple(rows))


def _validate_windows(windows: Sequence[tuple[int, int]]) -> None:
    spans = sorted(windows)
    for y0, y1 in spans:
        if y1 < y0:
            raise ValueError(f"window {y0}-{y1} ends before it starts")
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        if b0 <= a1:
            raise ValueError(f"windows {a0}-{a1} and {b0}-{b1} overlap")


def roll_window_run(corpus: Corpus,
                    windows: Sequence[tuple[int, int]] = DEFAULT_WINDOWS,
                    model_ids: Sequence[str] = tuple(MODEL_TERMS),
                    method: str = "ols",
                    scopes: Sequence[str] | None = None,
                    transform_specs: Mapping[str, TransformSpec]
                    | None = None,
                    fallback_to_ols: bool = True) -> RollReport:
    """Fit every model per (scope, window) and tabulate the coefficients.

    Scopes default to the consolidated flow plus each journal.  The
    transform spec for a scope is fitted once on that scope's full sample
    unless supplied.  Cells whose standard error cannot be computed are
    marked "?"; an empty window leaves a single n=0 marker row per model;
    a failed fit leaves a "failed: ..." marker row.  A non-converged robust
    fit falls back to OLS when ``fallback_to_ols``.
    """
    _validate_windows(windows)
    per_journal = build_rud_dataset(corpus, "journal")
    datasets: dict[str, list[RudObservation]] = {CONSOLIDATED:
                                                 build_rud_dataset(corpus)}
    for o in per_journal:
        datasets.setdefault(o.scope, []).append(o)
    if scopes is None:
        scopes = [CONSOLIDATED] + [s for s in sorted(datasets)
                                   if s != CONSOLIDATED]
    rows: list[RollRow] = []
    for scope in scopes:
        if scope not in datasets:
            raise ValueError(f"unknown scope {scope!r}")
        observations = datasets[scope]
        try:
            if transform_specs and scope in transform_specs:
                spec = transform_specs[scope]
            else:
                spec = fit_transform_spec([o.rud for o in observations]).spec
            observations = attach_transform(observations, spec)
        except ValueError as exc:
            for y0, y1 in windows:
                for model_id in model_ids:
                    rows.append(RollRow(
                        scope=scope, window=f"{y0}-{y1}", model_id=model_id,
                        term="", coefficient=None, stars="",
                        marker=f"failed: {exc}", n=0))
            continue
        for y0, y1 in windows:
            label = f"{y0}-{y1}"
            in_window = [o for o in observations
                         if y0 <= o.features.year <= y1]
            for model_id in model_ids:
                if not in_window:
                    rows.append(RollRow(scope=scope, window=label,
                                        model_id=model_id, term="",
                                        coefficient=None, stars="",
                                        marker="empty", n=0))
                    continue
                try:
                    design = build_design(in_window,
                                          standard_model(model_id, method))
                    fit = fit_model(design, method)
                    if method == "rls" and not fit.converged \
                            and fallback_to_ols:
                        fit = ols_fit(design)
                except ValueError as exc:
                    rows.append(RollRow(scope=scope, window=label,
                                        model_id=model_id, term="",
                                        coefficient=None, stars="",
                                        marker=f"failed: {exc}", n=0))
                    continue
                for j, term in enumerate(fit.columns):
                    se = fit.standard_errors[j]
                    se_ok = bool(np.isfinite(se) and se > 0.0)
                    rows.append(RollRow(
                        scope=scope, window=label, model_id=model_id,
                        term=term,
                        coefficient=float(fit.coefficients[j]),
                        stars=fit.stars[j] if se_ok else "",
                        marker="" if se_ok else "?", n=fit.n))
                rows.append(RollRow(
                    scope=scope, window=label, model_id=model_id,
                    term="_adjusted_r2",
                    coefficient=float(fit.adjusted_r_squared), stars="",
                    marker="" if fit.converged else "not-converged",
                    n=fit.n))
    return RollReport(rows=tuple(rows))
