"""Least-squares core shared by the model ladder, its diagnostics and the
country panel: the QR solve, the degenerate-column drop, the classical
inference and the one record of a fit, ``FitResult``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg as _sla
from scipy.linalg import lapack as _lapack

from .diststat import norm_sf, t_sf

CONST = "const"


def _rank_tolerance(shape: tuple[int, int], diag: np.ndarray) -> float:
    """max(n, p) eps max|R_ii|, for an n x p matrix whose R has the
    absolute diagonal ``diag``: an entry at or below it counts as zero."""
    return max(shape) * np.finfo(float).eps * (diag.max() if diag.size
                                               else 0.0)


def _pivoted_rank(X: np.ndarray) -> tuple[np.ndarray, int]:
    """The column order of X's pivoted QR and its rank, the count of
    |R_ii| above ``_rank_tolerance``: the one rank rule, so the columns
    past the rank are the dependent ones."""
    _, R, piv = _sla.qr(X, mode="raw", pivoting=True)
    diag = np.abs(np.diag(R))
    return piv, int(np.sum(diag > _rank_tolerance(X.shape, diag)))


def qr_solve(X: np.ndarray, y: np.ndarray,
             columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(beta, R) from the Householder factor X = QR; Q is never formed,
    dormqr applies Q' to y.  When R has a zero diagonal entry, or X fewer
    rows than columns, raises naming the columns its pivoted QR puts past
    the rank, at least the last pivot."""
    n, p = X.shape
    if n >= p:
        lwork = int(_lapack.dgeqrf_lwork(n, p)[0])
        qr, tau, _, _ = _lapack.dgeqrf(X, lwork=lwork)
        R = np.triu(qr[:p])
        diag = np.abs(np.diag(R))
        if not (diag.size and diag.min() <= _rank_tolerance(X.shape, diag)):
            c = y[:, None]
            lwork = int(_lapack.dormqr("L", "T", qr, tau, c, -1)[1][0])
            qty = _lapack.dormqr("L", "T", qr, tau, c, lwork)[0]
            return _sla.solve_triangular(R, qty[:p, 0]), R
    piv, rank = _pivoted_rank(X)
    dependent = [columns[i] for i in sorted(piv[min(rank, p - 1):])]
    raise ValueError(f"design is rank deficient; dependent columns: "
                     f"{', '.join(dependent)}")


def xtx_inverse(R: np.ndarray) -> np.ndarray:
    """(X'X)^-1 = R^-1 R^-T from the triangular factor ``qr_solve``
    returns."""
    r_inv = _sla.solve_triangular(R, np.eye(R.shape[0]))
    return r_inv @ r_inv.T


def drop_degenerate_columns(X: np.ndarray, columns: Sequence[str]
                            ) -> tuple[np.ndarray, list[str], list[str]]:
    """Remove zero-variance columns (all but ``const``), then exactly
    collinear ones (pivoted-QR rank reveal).

    Returns the kept matrix, its column names and the dropped names, the
    zero-variance ones first.
    """
    flat = [name != CONST and float(X[:, j].max()) == float(X[:, j].min())
            for j, name in enumerate(columns)]
    keep = [j for j, is_flat in enumerate(flat) if not is_flat]
    dropped = [name for name, is_flat in zip(columns, flat) if is_flat]
    X = X[:, keep]
    columns = [columns[j] for j in keep]
    if X.shape[1] == 0:
        return X, columns, dropped
    piv, rank = _pivoted_rank(X)
    if rank == X.shape[1]:
        return X, columns, dropped
    keep = sorted(piv[:rank])
    dropped.extend(columns[i] for i in sorted(piv[rank:]))
    return X[:, keep], [columns[i] for i in keep], dropped


def stars(p: float) -> str:
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return ""


def t_inference(beta: np.ndarray, se: np.ndarray, df: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """t = beta/se (a zero se gives a signed infinity, a NaN se a NaN t
    and p and no star), two-sided p-values from Student's t on ``df``
    degrees of freedom, or the normal when ``df`` is None, and stars."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = beta / se
    a = np.abs(t)
    pvals = 2.0 * (norm_sf(a) if df is None else t_sf(a, df))
    return t, pvals, tuple(stars(pv) for pv in pvals)


@dataclass(frozen=True)
class FitResult:
    """One least-squares fit; a robust one adds its IRLS facts."""

    columns: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    stars: tuple[str, ...]
    r_squared: float           # NaN when tss is not positive
    n: int
    residuals: np.ndarray
    tss: float                 # the total sum of squares R^2 is taken on
    converged: bool = True
    iterations: int = 0
    weights: np.ndarray | None = None

    @property
    def adjusted_r_squared(self) -> float:
        """1 - (1 - R^2)(n - 1)/(n - p); NaN with R^2 or when n <= p."""
        df = self.n - len(self.columns)
        return 1.0 - (1.0 - self.r_squared) * (self.n - 1) / df \
            if df > 0 else math.nan

    def coefficient(self, term: str) -> float:
        return float(self.coefficients[self.columns.index(term)])


def classical_inference(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                        R: np.ndarray, columns: Sequence[str],
                        centered: bool) -> FitResult:
    """The inference of ``qr_solve``'s (beta, R): se = sqrt(s^2
    diag((X'X)^-1)) with s^2 = RSS/(n - p), t-based p-values, and R^2
    against the centred total sum of squares, or the uncentred one when
    ``centered`` is false.  A saturated design (n = p) has exact
    coefficients and NaN inference, and forms no (X'X)^-1."""
    n, p = X.shape
    resid = y - X @ beta
    rss = float(resid @ resid)
    df = n - p
    if df > 0:
        se = np.sqrt(np.maximum(rss / df * np.diag(xtx_inverse(R)), 0.0))
        t, pvals, marks = t_inference(beta, se, df)
    else:
        se, t, pvals = np.full((3, p), math.nan)
        marks = ("",) * p
    tss = float(np.sum((y - y.mean()) ** 2)) if centered else float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0 else math.nan
    return FitResult(columns=tuple(columns), coefficients=beta,
                     standard_errors=se, t_stats=t, p_values=pvals,
                     stars=marks, r_squared=r2, n=n, residuals=resid,
                     tss=tss)
