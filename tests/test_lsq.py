"""The least-squares core and the two ways its callers read it."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_lsq
from conftest import design_from_arrays, make_planted, tiny_panel
from dwe import diststat, linmod, lsq, panel, rud
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
        beta, R = lsq.qr_solve(X, y, columns)
        # the same dgeqrf gives the same R
        assert np.array_equal(lsq.xtx_inverse(R), xtx_ref)
        # Q'y is rounded differently; an error of order eps ||y|| in it
        # moves beta by at most ||R^-1|| = cond(X) / ||X|| times as much
        norm_X = np.linalg.norm(X, 2)
        assert np.linalg.norm(beta - beta_ref) <= 1e-14 * np.linalg.cond(X) \
            * (np.linalg.norm(beta_ref) + np.linalg.norm(y) / norm_X)
        se, se_ref = (lsq.classical_inference(
            X, y, b, R, columns, centered=True).standard_errors
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


def _dependent(error):
    """The columns a rank error of ``qr_solve`` names."""
    head = "design is rank deficient; dependent columns: "
    assert str(error).startswith(head)
    return str(error)[len(head):].split(", ")


def _named(X, columns):
    """The columns ``qr_solve`` names as dependent in X, or None when it
    solves X."""
    try:
        lsq.qr_solve(X, np.zeros(X.shape[0]), columns)
    except ValueError as exc:
        return _dependent(exc)
    return None


@st.composite
def planted_designs(draw):
    """(X, columns): a constant and one to five independent columns
    (normal, dummy, or the indicator of one row), with one to four zero,
    duplicate or affine (a + b x) columns planted at random positions,
    before independent ones too; n exceeds the column count.  Every
    drawn number lies on the grid of 2^-20, so a + b x is exact, and is
    drawn from a continuum, so that only copies tie in the pivoting."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(("zero", "duplicate", "affine")),
                          min_size=1, max_size=4))
    n = draw(st.integers(k + len(kinds) + 2, 40))

    def drawn(low, high, size=None):
        return np.round(rng.uniform(low, high, size) * 2 ** 20) / 2 ** 20

    def independent(kind):
        if kind == "normal":
            return drawn(-2.0, 2.0, n)
        if kind == "dummy":
            return (rng.random(n) < rng.uniform(0.1, 0.9)) * drawn(0.5, 2.0)
        return np.eye(n)[draw(st.integers(0, n - 1))] * drawn(0.5, 2.0)

    base = [("const", np.ones(n))] + [
        (f"x{j}", independent(draw(st.sampled_from(
            ("normal", "dummy", "row")))))
        for j in range(k)]
    assume(np.linalg.matrix_rank(np.column_stack([c for _, c in base]))
           == k + 1)
    cols = list(base)
    for i, kind in enumerate(kinds):
        x = base[draw(st.integers(1, k))][1]
        a, b = drawn(0.5, 4.0, 2) * rng.choice((-1.0, 1.0), 2)
        column = {"zero": np.zeros(n), "duplicate": x.copy(),
                  "affine": a + b * x}[kind]
        cols.insert(draw(st.integers(0, len(cols))), (f"{kind}{i}", column))
    return np.column_stack([c for _, c in cols]), [name for name, _ in cols]


class TestRankRule:
    """``qr_solve`` and ``drop_degenerate_columns`` count a design's rank
    by the one pivoted-QR rule, so they name the same columns."""

    def test_duplicate_before_an_independent_column(self):
        # the unpivoted diagonal of [e0, e0, e1] has two zeros; only e0b
        # depends on the others
        e = np.eye(6)
        X = np.column_stack([e[0], e[0], e[1]])
        columns = ["e0", "e0b", "e1"]
        assert _named(X, columns) == ["e0b"]
        assert lsq.drop_degenerate_columns(X, columns)[2] == ["e0b"]

    @settings(max_examples=300, deadline=None)
    @given(planted_designs())
    def test_named_columns_are_the_drop(self, drawn):
        X, columns = drawn
        named = _named(X, columns)
        # the unpivoted diagonal that decides whether to solve can miss a
        # dependence the pivoted rank finds (in about 1 of 7,000 draws,
        # each on fewer than 10 rows); then nothing is named
        assume(named is not None)
        # the drop removes the zero columns as flat and factors the rest,
        # so its flat and collinear drops together are the named columns.
        # Which of two copies the pivoting keeps is a tie that rounding
        # breaks, and the zero columns change the rounding, so compare
        # the columns' values, not their names
        dropped = lsq.drop_degenerate_columns(X, columns)[2]
        values = [sorted(X[:, columns.index(name)].tobytes() for name in names)
                  for names in (named, dropped)]
        assert values[0] == values[1]
        assert len(named) == X.shape[1] - np.linalg.matrix_rank(X)
        keep = [j for j, name in enumerate(columns) if name not in named]
        lsq.qr_solve(X[:, keep], np.ones(X.shape[0]),
                     [columns[j] for j in keep])

    @pytest.mark.parametrize("fit", [
        lambda d: lsq.qr_solve(d.X, d.y, d.columns),
        linmod.ols_fit, linmod.rls_fit], ids=["qr_solve", "ols", "rls"])
    def test_fewer_rows_than_columns_is_named(self, fit):
        rng = np.random.default_rng(0)
        design = design_from_arrays(rng.normal(size=2),
                                    rng.normal(size=(2, 3)),
                                    ["const", "x1", "x2"])
        with pytest.raises(ValueError) as info:
            fit(design)
        named = _dependent(info.value)
        keep = [j for j, name in enumerate(design.columns)
                if name not in named]
        assert len(keep) == 2
        lsq.qr_solve(design.X[:, keep], design.y,
                     [design.columns[j] for j in keep])


class TestTInference:
    def test_nan_standard_error_gives_no_star(self):
        t, pvals, marks = lsq.t_inference(np.array([1.0, -2.0, 3.0, 0.5]),
                                          np.array([math.nan, math.nan,
                                                    0.0, 0.25]))
        assert np.isnan(t[:2]).all() and np.isnan(pvals[:2]).all()
        assert t[2] == math.inf and pvals[2] == 0.0
        assert t[3] == 2.0
        assert marks[:3] == ("", "", "***")


@st.composite
def diagnostic_designs(draw):
    """A design of one of four kinds, its columns kept by the pivoted drop
    of the const-led matrix: a constant, then alternately dummy and
    normal columns scaled over six decades; the same without the
    constant; dummy-heavy (one to three categories of two to five levels,
    some rare, each less its first level); or a constant and a normal a
    with its near-duplicate a + s noise, s from 1e-10 to 0.1, so that
    VIF (about 1/s^2) falls on both sides of 1e12.  y's noise grows with
    the last column."""
    kind = draw(st.sampled_from(("plain", "no-const", "dummies", "pair")))
    n = draw(st.integers(12, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "dummies":
        cols = []
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(2, 5))
            group = rng.choice(k, size=n, p=rng.dirichlet(np.full(k, 0.5)))
            cols += [(group == level).astype(float) for level in range(1, k)]
    elif kind == "pair":
        a = rng.normal(size=n)
        s = 10.0 ** draw(st.floats(-10.0, -1.0))
        cols = [a, a + s * rng.normal(size=n)]
    else:
        cols = [rng.integers(0, 2, n).astype(float) if j % 2
                else rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
                for j in range(draw(st.integers(1, 7)))]
    X = np.column_stack([np.ones(n)] + cols)
    X, columns, _ = lsq.drop_degenerate_columns(
        X, ["const"] + [f"x{j}" for j in range(len(cols))])
    if kind == "no-const":
        X, columns = X[:, 1:], columns[1:]
    assume(X.shape[1] >= 1)
    y = X @ rng.normal(size=X.shape[1]) \
        + rng.normal(size=n) * (1.0 + np.abs(X[:, -1]))
    return design_from_arrays(y, X, columns)


def assert_diagnostics_match_reference(design):
    """``vif``, ``breusch_pagan`` and ``white_test`` against the
    ``lstsq`` oracle, within bounds set by the conditioning."""
    fit = linmod.ols_fit(design)
    X = linmod._with_const(design)[0]
    cond = np.linalg.cond(X)
    want = reference_lsq.vif(design)
    got = linmod.vif(design)
    assert got.keys() == want.keys()
    for name, value in got.items():
        ref = want[name]
        if math.isinf(value) and math.isinf(ref):
            continue
        if math.isinf(value) or math.isinf(ref):
            # the two sides of the threshold: only within the bound of it
            finite = ref if math.isinf(value) else value
            assert finite >= 1e12 * (1.0 - 1e-14 * max(cond, 1e12))
            continue
        # the reference's 1 - R^2 cancels to eps VIF relative; a row of
        # R^-1 carries eps cond(X)
        assert abs(value - ref) <= 1e-14 * max(cond, ref) * ref
    e2 = fit.residuals ** 2
    tss = float(np.sum((e2 - e2.mean()) ** 2))
    for test, oracle, M in (
            (linmod.breusch_pagan, reference_lsq.breusch_pagan_statistic, X),
            (linmod.white_test, reference_lsq.white_statistic,
             reference_lsq.white_matrix(design))):
        if M.shape[1] < 2:
            with pytest.raises(ValueError, match="no auxiliary regressors"):
                test(design, fit)
            continue
        result = test(design, fit)
        stat, df = oracle(design, fit)
        assert result.df == df
        # a solve's residual moves by about eps cond(M) ||e2||, its square
        # sum by twice that times ||resid||, and R^2 by that over tss
        resid = e2 - M @ np.linalg.lstsq(M, e2, rcond=None)[0]
        slack = 1e-14 * np.linalg.cond(M) * np.linalg.norm(e2) \
            * np.linalg.norm(resid) / tss
        assert abs(result.statistic - stat) <= M.shape[0] * slack


class TestDiagnosticsAgainstReference:
    """The diagnostics through ``qr_solve`` against one ``lstsq`` fit per
    auxiliary regression (``reference_lsq``)."""

    @settings(max_examples=300, deadline=None)
    @given(diagnostic_designs())
    def test_matches_reference(self, design):
        assert_diagnostics_match_reference(design)

    @pytest.mark.parametrize("model_id", ["M5", "M9"])
    def test_ladder_designs(self, synth_corpus, model_id):
        # qr_solve's unpivoted rank test accepts every White auxiliary
        # matrix the pivoted drop kept, or white_test would raise
        table = rud.build_rud_dataset(synth_corpus, rud.CONSOLIDATED)
        _, y = rud.attach_transform(table, diststat.IDENTITY_SPEC)
        design = linmod.build_design(
            linmod.superset_matrix(synth_corpus.columns), y,
            linmod.standard_model(model_id))
        assert_diagnostics_match_reference(design)

    @pytest.mark.parametrize("s, finite", [(1e-5, True), (1e-7, False)])
    def test_vif_threshold(self, s, finite):
        # VIF of the pair is about 1/s^2: 1e10 on one side of 1e12,
        # 1e14 on the other, on both solves
        rng = np.random.default_rng(3)
        a = rng.normal(size=200)
        X = np.column_stack([np.ones(200), a, a + s * rng.normal(size=200)])
        design = design_from_arrays(rng.normal(size=200), X,
                                    ["const", "a", "b"])
        got, want = linmod.vif(design), reference_lsq.vif(design)
        for name in ("a", "b"):
            assert math.isfinite(got[name]) == finite
            assert math.isfinite(want[name]) == finite
            if finite:
                assert got[name] == pytest.approx(want[name], rel=1e-4)
                assert 1e9 < got[name] < 1e11

    def test_columns_spanning_the_constant_are_named(self):
        # no const column, but a + b = 1: the const-led matrix is rank
        # deficient.  The oracle read inf VIFs for a and b and gave
        # Breusch-Pagan df = 3 for two independent regressors; the solve
        # names the dependent column instead
        rng = np.random.default_rng(1)
        a = (rng.uniform(size=50) < 0.5).astype(float)
        X = np.column_stack([a, 1.0 - a, rng.normal(size=50)])
        design = design_from_arrays(rng.normal(size=50) + a, X,
                                    ["a", "b", "z"])
        fit = linmod.ols_fit(design)
        assert reference_lsq.vif(design)["a"] == math.inf
        assert reference_lsq.breusch_pagan_statistic(design, fit)[1] == 3
        message = "design is rank deficient; dependent columns: a"
        with pytest.raises(ValueError, match=message):
            linmod.vif(design)
        with pytest.raises(ValueError, match=message):
            linmod.breusch_pagan(design, fit)

    def test_constant_squared_residuals_score_zero(self):
        design, _ = make_planted(9)
        fit = replace(linmod.ols_fit(design),
                      residuals=np.full(design.n, 0.5))
        assert linmod.breusch_pagan(design, fit).statistic == 0.0
        assert linmod.white_test(design, fit).statistic == 0.0


class TestCallersDiffer:
    def test_constant_outcome_raises_in_ols_but_is_nan_in_the_core(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.full(6, 2.0)
        with pytest.raises(ValueError, match="constant dependent"):
            linmod.ols_fit(design_from_arrays(y, X, ["const", "x"]))
        # the panel takes the core's answer as it is
        beta, R = lsq.qr_solve(X, y, ["const", "x"])
        fit = lsq.classical_inference(X, y, beta, R, ["const", "x"],
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
        X = data.cells[:, idx]
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
