"""The least-squares core and the two ways its callers read it."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_lsq
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


@st.composite
def solve_inputs(draw):
    """(X, y) of one of three kinds: a plain design (a constant, then
    alternately dummy and normal columns); that design square-root
    weighted by bisquare weights of its OLS residuals, as an IRLS step
    weights it; or an ill-conditioned design, its columns scaled over
    eight decades and the last within 1e-6 of a multiple of the first."""
    kind = draw(st.sampled_from(("plain", "weighted", "ill")))
    p = draw(st.integers(1, 8))
    n = draw(st.integers(p + 1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = np.column_stack([np.ones(n)] + [
        rng.integers(0, 2, n).astype(float) if j % 2 else rng.normal(size=n)
        for j in range(1, p)])
    noise = draw(st.sampled_from((0.01, 1.0, 100.0)))
    y = X @ rng.normal(size=p) + noise * rng.normal(size=n)
    if kind == "weighted":
        resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        scale = np.median(np.abs(resid - np.median(resid))) / 0.6745
        sw = np.sqrt(linmod.bisquare_weight(resid / scale))
        X, y = np.asfortranarray(X) * sw[:, None], y * sw
    elif kind == "ill":
        X = X * 10.0 ** rng.uniform(-4.0, 4.0, size=p)
        if p > 1:
            X[:, -1] = 3.0 * X[:, 0] * (1.0 + 1e-6 * rng.normal(size=n))
    return X, y


class TestQrSolveAgainstReference:
    """The solve from the Householder factor against the one that formed
    Q (``reference_lsq``)."""

    @settings(max_examples=300, deadline=None)
    @given(solve_inputs())
    def test_matches_reference(self, drawn):
        X, y = drawn
        columns = [f"x{j}" for j in range(X.shape[1])]
        try:
            beta_ref, xtx_ref = reference_lsq.qr_solve(X, y, columns)
        except ValueError as err:
            # a zero or duplicate dummy column: the same message
            with pytest.raises(ValueError) as got:
                lsq.qr_solve(X, y, columns)
            assert str(got.value) == str(err)
            return
        beta, xtx_inv = lsq.qr_solve(X, y, columns)
        # the same dgeqrf gives the same R
        assert np.array_equal(xtx_inv, xtx_ref)
        # Q'y is rounded differently; an error of order eps ||y|| in it
        # moves beta by at most ||R^-1|| = cond(X) / ||X|| times as much
        norm_X = np.linalg.norm(X, 2)
        assert np.linalg.norm(beta - beta_ref) <= 1e-14 * np.linalg.cond(X) \
            * (np.linalg.norm(beta_ref) + np.linalg.norm(y) / norm_X)
        se, se_ref = (lsq.classical_inference(
            X, y, b, xtx_inv, columns, centered=True).standard_errors
            for b in (beta, beta_ref))
        # y - X beta itself is rounded by about eps ||X|| ||beta||, which
        # no solve removes; se = ||y - X beta|| sqrt(diag / df) carries it
        n, p = X.shape
        slack = 1e-14 * norm_X * np.linalg.norm(beta_ref) \
            * np.sqrt(np.diag(xtx_ref) / (n - p))
        assert np.all(np.abs(se - se_ref) <= 1e-12 * se_ref + slack)

    def test_rank_deficient_names_the_reference_columns(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x, 2.0 * x + 1.0, x ** 2])
        y = x ** 2 - x
        columns = ["const", "x", "x_affine", "x2"]
        with pytest.raises(ValueError) as want:
            reference_lsq.qr_solve(X, y, columns)
        with pytest.raises(ValueError) as got:
            lsq.qr_solve(X, y, columns)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            "design is rank deficient; dependent columns: ")


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
