"""Oracle for the least-squares solve.

``qr_solve`` is the solve as it was before it worked from the Householder
factor: ``np.linalg.qr`` forms the full n x p Q, beta solves R beta = Q'y,
and a diagonal entry of R at or below max(n, p) eps max|R_ii| raises,
naming the columns a pivoted QR puts past the rank.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import linalg as _sla


def qr_solve(X: np.ndarray, y: np.ndarray,
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
