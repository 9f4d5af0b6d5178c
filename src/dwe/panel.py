"""Daily country-level panel and random-effects EGLS estimation.

Articles are aggregated into (country, day) cells over a fixed day range,
held as columns (``PanelData``): the cell outcome is the mean log10 ratio
of the articles received that day from that country, the author covariate
is the mean log10 author count, and the calendar dummies (weekday, season,
Christmas window, country-specific weekend) and country covariates are the
corpus feature columns of that day and country; the last column is a
deterministic trend, the log10 of the day index.

Estimation is error-components GLS: variance components come from a
pooled-OLS residual decomposition (within-country residual variance for the
idiosyncratic part; group-mean residual dispersion, less its idiosyncratic
share, for the country effect), then each country is quasi-demeaned by

    theta_c = 1 - sqrt(s2_id / (s2_id + T_c * s2_country))

and the transformed data refit by OLS.  A negative country-variance moment
is clamped to zero (flagged), which collapses the estimator to pooled OLS.

The cells are unweighted by default (weighting "none").  "multiply"
reproduces a literal cell-size weighting: the outcome and the continuous
regressors (not the dummies) of every cell are multiplied by the cell's
article count before estimation.  "wls" is a conventional sqrt-weight WLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .linmod import CONTINENT_TERMS, DESIGN_TERMS, superset_matrix
from .lsq import FitResult, classical_inference, drop_degenerate_columns, \
    qr_solve
from .rud import CONSOLIDATED, build_rud_dataset

#: panel column order: the M9 terms but the continents, then the trend
PANEL_COLUMNS = tuple(t for t in DESIGN_TERMS
                      if t not in CONTINENT_TERMS) + ("trend",)

CONTINUOUS_COLUMNS = ("log10_authors", "log10_hdi", "log10_lto", "trend")

#: re_egls_fit's cell-size weightings
WEIGHTINGS = ("none", "multiply", "wls")


@dataclass(frozen=True, eq=False)
class PanelData:
    """The cells in (country, day) order: row i of ``cells`` is cell i's
    design row in PANEL_COLUMNS order, with a NaN ``log10_lto`` where the
    country has none (the fit drops and counts such cells).  ``country``
    indexes ``countries`` and ``t`` is the day index, 1 on ``start``."""

    cells: np.ndarray
    y: np.ndarray
    n_ct: np.ndarray
    country: np.ndarray
    t: np.ndarray
    start: date
    end: date
    countries: tuple[str, ...]


def log_trend(t: np.ndarray) -> np.ndarray:
    """The trend column of day indices ``t``: ``math.log10`` of each."""
    return np.array([math.log10(v) for v in t.tolist()])


def _cell_means(values: np.ndarray, starts: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """``np.mean(values[a:a + n])`` for each start a and size n, bit for
    bit, with one pass per distinct size instead of a call per cell: a
    C-ordered block's row mean sums each row as np.mean sums the slice."""
    means = np.empty(len(starts))
    for n in np.unique(sizes).tolist():
        which = np.flatnonzero(sizes == n)
        means[which] = values[starts[which, None] + np.arange(n)].mean(axis=1)
    return means


def check_end(start: date, end: date) -> date:
    if end < start:
        raise ValueError(f"range ends before it starts: {start}..{end}")
    return end


def check_top_n(top_n: int) -> int:
    if top_n < 1:
        raise ValueError(f"the panel needs at least 1 country, "
                         f"got top_n = {top_n}")
    return top_n


def build_panel(corpus: Corpus, start: date, end: date, top_n: int = 11,
                scope: str = CONSOLIDATED) -> PanelData:
    """Aggregate per-article ratios into (country, day) cells.

    Ratios are computed over the full corpus first (an article's week group
    is its journal's whole flow, not the panel subset), then restricted to
    the day range and the top_n countries by article count inside it.
    Cells exist only for populated (country, day) pairs; each averages its
    articles in article-id order.
    """
    check_end(start, end)
    check_top_n(top_n)
    ratios = build_rud_dataset(corpus, scope)  # row i is article i
    cols = ratios.columns
    in_range = (cols.received >= start.toordinal()) \
        & (cols.received <= end.toordinal())
    counts = np.bincount(cols.country[in_range],
                         minlength=len(cols.countries))
    present = np.flatnonzero(counts)
    # country codes follow ISO order, so a stable sort breaks count ties
    top = present[np.argsort(-counts[present], kind="stable")][:top_n]
    if top.size < top_n:
        raise ValueError(
            f"only {top.size} countries have articles in range, "
            f"need {top_n}")
    top = np.sort(top)

    # day ordinals stay below 10**7, so the key orders by (country, day)
    key = cols.country * 10**7 + cols.received
    picked = np.flatnonzero(in_range & np.isin(cols.country, top))
    picked = picked[np.argsort(key[picked], kind="stable")]
    starts = np.flatnonzero(np.diff(key[picked], prepend=-1))
    n_ct = np.diff(starts, append=picked.size)
    # math.log10 of each distinct ratio, as the row-wise means took it
    values, value = np.unique(ratios.rud[picked], return_inverse=True)
    log_rud = np.array([math.log10(v) for v in values.tolist()])[value]
    log_authors = cols.log10_authors[picked]

    # a cell's day and country features are those of its first article;
    # the per-cell mean author count replaces that article's own
    first = picked[starts]
    t = cols.received[first] - start.toordinal() + 1
    cells = np.column_stack([superset_matrix(cols)[np.ix_(first, [
        DESIGN_TERMS.index(term) for term in PANEL_COLUMNS[:-1]])],
        log_trend(t)])
    cells[:, PANEL_COLUMNS.index("log10_authors")] = _cell_means(
        log_authors, starts, n_ct)
    return PanelData(
        cells=cells, y=_cell_means(log_rud, starts, n_ct),
        n_ct=n_ct, country=np.searchsorted(top, cols.country[first]),
        t=t, start=start, end=end,
        countries=tuple(cols.countries[k] for k in top.tolist()))


@dataclass(frozen=True, kw_only=True)
class PanelFit(FitResult):
    """The OLS fit of the quasi-demeaned cells, with the panel's facts."""

    sigma2_country: float
    sigma2_idio: float
    rho_share: float      # sigma2_country / (sigma2_country + sigma2_idio)
    rho_ratio: float      # sigma2_country / sigma2_idio
    theta: Mapping[str, float]
    n_cells: int
    n_countries: int
    clamped: bool
    dropped_columns: tuple[str, ...]
    n_dropped_rows: int


def re_egls_fit(panel: PanelData, weighting: str = "none") -> PanelFit:
    """Random-effects EGLS over the panel cells (see module docstring)."""
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    usable = ~np.isnan(panel.cells[:, PANEL_COLUMNS.index("log10_lto")])
    codes, g = np.unique(panel.country[usable], return_inverse=True)
    return _egls_fit(panel.cells[usable], panel.y[usable],
                     panel.n_ct[usable].astype(float), g,
                     [panel.countries[c] for c in codes.tolist()],
                     weighting, n_dropped_rows=int(np.count_nonzero(~usable)))


def _egls_fit(X: np.ndarray, y: np.ndarray, n_ct: np.ndarray,
              g: np.ndarray, countries: Sequence[str], weighting: str,
              n_dropped_rows: int) -> PanelFit:
    """The estimator on the usable cells' design rows: ``g`` maps each
    row to its country, an index into ``countries``."""
    if not y.size:
        raise ValueError("no usable panel cells")
    if weighting == "multiply":
        y = y * n_ct
        for j in map(PANEL_COLUMNS.index, CONTINUOUS_COLUMNS):
            X[:, j] = X[:, j] * n_ct
    elif weighting == "wls":
        sw = np.sqrt(n_ct)
        y, X = y * sw, X * sw[:, None]

    X, labels, dropped = drop_degenerate_columns(X, PANEL_COLUMNS)

    M, p = X.shape
    N = len(countries)
    T_c = np.bincount(g, minlength=N).astype(float)
    if M <= p + N:
        raise ValueError(f"{M} cells cannot support {p} columns "
                         f"and {N} country means")

    beta_pooled, _ = qr_solve(X, y, labels)
    resid = y - X @ beta_pooled

    group_mean_resid = np.bincount(g, weights=resid, minlength=N) / T_c
    within_resid = resid - group_mean_resid[g]

    # count columns with any within-country variation (the country-fixed
    # ones and the constant carry none and drop out of the within df)
    Xbar = np.vstack([np.bincount(g, weights=X[:, j], minlength=N) / T_c
                      for j in range(p)]).T
    within_X = X - Xbar[g]
    k_within = int(np.sum(np.max(np.abs(within_X), axis=0) > 1e-10))
    df_within = M - N - k_within
    if df_within <= 0:
        raise ValueError("not enough cells for the within residual variance")
    sigma2_idio = float(within_resid @ within_resid) / df_within

    # columns flat within every country (constant, HDI, LTO) soak up
    # k_between of the N between degrees of freedom, for the country
    # effect and the averaged noise alike; dividing the between sum of
    # squares by N - k_between recenters the moment
    k_between = p - k_within
    df_between = N - k_between
    if df_between <= 0:
        raise ValueError(f"{N} countries cannot support {k_between} "
                         "country-level columns in the between variance")
    raw_between = float(np.sum(group_mean_resid ** 2)) / df_between \
        - sigma2_idio * float(np.mean(1.0 / T_c))
    clamped = raw_between < 0.0
    sigma2_country = max(0.0, raw_between)

    if sigma2_idio > 0.0:
        theta_by_code = 1.0 - np.sqrt(
            sigma2_idio / (sigma2_idio + T_c * sigma2_country))
    else:
        theta_by_code = np.ones(N)  # full demeaning when no noise variance

    ybar = np.bincount(g, weights=y, minlength=N) / T_c
    y_t = y - theta_by_code[g] * ybar[g]
    X_t = X - theta_by_code[g][:, None] * Xbar[g]

    # R^2 is always centred, and a constant transformed outcome gives NaN
    beta, R = qr_solve(X_t, y_t, labels)
    fit = classical_inference(X_t, y_t, beta, R, labels, centered=True)

    denom = sigma2_country + sigma2_idio
    return PanelFit(
        **vars(fit), sigma2_country=sigma2_country, sigma2_idio=sigma2_idio,
        rho_share=sigma2_country / denom if denom > 0 else math.nan,
        rho_ratio=(sigma2_country / sigma2_idio if sigma2_idio > 0
                   else math.inf if sigma2_country > 0 else math.nan),
        theta={iso: float(theta_by_code[i])
               for i, iso in enumerate(countries)},
        n_cells=M, n_countries=N, clamped=clamped,
        dropped_columns=tuple(dropped), n_dropped_rows=n_dropped_rows)
