"""The least-squares core and the two ways its callers read it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import design_from_arrays, tiny_panel
from dwe import linmod, lsq, panel
from dwe.panel import PANEL_COLUMNS


class TestDropDegenerateColumns:
    def test_zero_variance_then_collinear(self):
        x = np.arange(8.0)
        X = np.column_stack([np.ones(8), np.zeros(8), x, 0.5 * x,
                             np.full(8, 2.0), x ** 2])
        names = ["const", "empty", "x", "x_half", "flat", "x2"]
        kept, cols, dropped = lsq.drop_degenerate_columns(X, names)
        assert cols == ["const", "x", "x2"]
        assert dropped == ["empty", "flat", "x_half"]
        assert np.array_equal(kept, X[:, [0, 2, 5]])

    def test_constant_column_is_kept(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        kept, cols, dropped = lsq.drop_degenerate_columns(X, ["const", "x"])
        assert cols == ["const", "x"] and dropped == []
        assert np.array_equal(kept, X)


class TestCallersDiffer:
    def test_constant_outcome_raises_in_ols_but_is_nan_in_the_core(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.full(6, 2.0)
        with pytest.raises(ValueError, match="constant dependent"):
            linmod.ols_fit(design_from_arrays(y, X, ["const", "x"]))
        # the panel takes the core's answer as it is
        beta, xtx_inv = lsq.qr_solve(X, y, ["const", "x"])
        fit = lsq.classical_inference(X, y, beta, xtx_inv, ["const", "x"],
                                      centered=True)
        assert fit.tss == 0.0
        assert math.isnan(fit.r_squared)
        assert math.isnan(fit.adjusted_r_squared)

    def test_ols_uncentres_without_const_but_the_panel_centres(self):
        # an unbalanced panel: theta differs by country, so the
        # quasi-demeaned intercept column is no longer constant
        full = tiny_panel(2, n_countries=3, T=12)
        keep = ~((full.country == full.countries.index("C00"))
                 & (full.t > 6))
        data = replace(full, cells=full.cells[keep], y=full.y[keep],
                       n_ct=full.n_ct[keep], country=full.country[keep],
                       t=full.t[keep])
        fit = panel.re_egls_fit(data)

        idx = [PANEL_COLUMNS.index(name) for name in fit.columns]
        X = panel.panel_design(data, "log10")[:, idx]
        y = data.y
        codes, g = np.unique(data.country, return_inverse=True)
        T_c = np.bincount(g).astype(float)
        theta = np.asarray([fit.theta[data.countries[code]]
                            for code in codes])[g]
        ybar = np.bincount(g, weights=y) / T_c
        Xbar = np.column_stack([np.bincount(g, weights=X[:, j]) / T_c
                                for j in range(X.shape[1])])
        y_t = y - theta * ybar[g]
        X_t = X - theta[:, None] * Xbar[g]
        assert np.ptp(X_t[:, fit.columns.index("const")]) > 1e-3

        M, p = X_t.shape
        ols = linmod.ols_fit(design_from_arrays(
            y_t, X_t, ["intercept_t" if n == "const" else n
                       for n in fit.columns]))
        assert ols.coefficients == pytest.approx(fit.coefficients,
                                                 rel=1e-9, abs=1e-12)
        rss = float(ols.residuals @ ols.residuals)
        centred = 1.0 - rss / float(np.sum((y_t - y_t.mean()) ** 2))
        uncentred = 1.0 - rss / float(y_t @ y_t)
        assert ols.r_squared == pytest.approx(uncentred, rel=1e-12)
        assert fit.adjusted_r_squared == pytest.approx(
            1.0 - (1.0 - centred) * (M - 1) / (M - p), rel=1e-9)
        assert abs(fit.adjusted_r_squared - ols.adjusted_r_squared) > 1e-3
