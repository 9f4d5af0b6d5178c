"""Oracle for the least-squares solve and the diagnostics built on it.

``qr_solve`` is the solve as it was before it worked from the Householder
factor: ``np.linalg.qr`` forms the full n x p Q, beta solves R beta = Q'y,
and a diagonal entry of R at or below max(n, p) eps max|R_ii| raises,
naming the columns a pivoted QR puts past the rank, which counts that
QR's own diagonal by the same tolerance (at least the last pivot).

``vif``, ``breusch_pagan_statistic`` and ``white_statistic`` are the
diagnostics as they were before they solved through ``qr_solve``: each
auxiliary R^2 comes from its own ``np.linalg.lstsq`` fit, one per column
for VIF.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy import linalg as _sla

from dwe.linmod import DesignMatrix, _with_const
from dwe.lsq import CONST, FitResult, drop_degenerate_columns


def _tolerance(shape: tuple[int, int], diag: np.ndarray) -> float:
    return max(shape) * np.finfo(float).eps * (diag.max() if diag.size
                                               else 0.0)


def qr_solve(X: np.ndarray, y: np.ndarray,
             columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(beta, (X'X)^-1) via QR; raises naming dependent columns."""
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.size and diag.min() <= _tolerance(X.shape, diag):
        _, R_piv, piv = _sla.qr(X, mode="economic", pivoting=True)
        diag_piv = np.abs(np.diag(R_piv))
        rank = int(np.sum(diag_piv > _tolerance(X.shape, diag_piv)))
        dependent = [columns[i]
                     for i in sorted(piv[min(rank, X.shape[1] - 1):])]
        raise ValueError(f"design is rank deficient; dependent columns: "
                         f"{', '.join(dependent)}")
    beta = _sla.solve_triangular(R, Q.T @ y)
    r_inv = _sla.solve_triangular(R, np.eye(R.shape[0]))
    return beta, r_inv @ r_inv.T


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
    X, columns = _with_const(design)
    out: dict[str, float] = {}
    for j, name in enumerate(columns):
        if name != CONST:
            r2 = _aux_r_squared(X[:, j], np.delete(X, j, axis=1))
            out[name] = math.inf if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return out


def breusch_pagan_statistic(design: DesignMatrix,
                            fit: FitResult) -> tuple[float, int]:
    """(n R^2, df) of the squared residuals on the const-led design."""
    X = _with_const(design)[0]
    return X.shape[0] * _aux_r_squared(fit.residuals ** 2, X), X.shape[1] - 1


def white_matrix(design: DesignMatrix) -> np.ndarray:
    """The White auxiliary matrix: a constant, the levels, squares and
    cross products, less the degenerate columns."""
    base = [(design.X[:, j], name) for j, name in enumerate(design.columns)
            if name != CONST]
    aux = base + [(c * c, f"{l}^2") for c, l in base] + [
        (a * b, f"{la}*{lb}") for (a, la), (b, lb) in combinations(base, 2)]
    X = np.column_stack([np.ones(design.n)] + [c for c, _ in aux])
    X, _, _ = drop_degenerate_columns(X, [CONST] + [l for _, l in aux])
    return X


def white_statistic(design: DesignMatrix,
                    fit: FitResult) -> tuple[float, int]:
    """(n R^2, df) of the squared residuals on ``white_matrix``."""
    X = white_matrix(design)
    return X.shape[0] * _aux_r_squared(fit.residuals ** 2, X), X.shape[1] - 1
