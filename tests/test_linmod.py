"""Linear models: OLS, robust refit, diagnostics, rolling windows."""

import csv
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import design_from_arrays, make_planted
from dwe import corpus as cm, diststat, linmod, lsq, synth


class TestOls:
    def test_planted_recovery_within_three_se(self):
        for seed in (0, 1, 2):
            design, beta = make_planted(seed)
            fit = linmod.ols_fit(design)
            for j in range(3):
                err = abs(fit.coefficients[j] - beta[j])
                assert err < 3.0 * fit.standard_errors[j], (seed, j)

    def test_exact_interpolation(self):
        # two points, two parameters: residuals are identically zero
        design = design_from_arrays([1.0, 3.0],
                                    [[1.0, 0.0], [1.0, 1.0]],
                                    ["const", "x"])
        fit = linmod.ols_fit(design)
        assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
        assert np.max(np.abs(fit.residuals)) < 1e-12

    def test_residual_orthogonality(self):
        design, _ = make_planted(3)
        fit = linmod.ols_fit(design)
        cross = design.X.T @ fit.residuals
        scale = np.linalg.norm(design.y)
        assert np.max(np.abs(cross)) / scale < 1e-8

    def test_matches_lstsq(self):
        design, _ = make_planted(4)
        fit = linmod.ols_fit(design)
        ref, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
        assert fit.coefficients == pytest.approx(ref, rel=1e-9)

    def test_r_squared_definition(self):
        design, _ = make_planted(5)
        fit = linmod.ols_fit(design)
        ss_res = float(np.sum(fit.residuals ** 2))
        ss_tot = float(np.sum((design.y - design.y.mean()) ** 2))
        assert fit.r_squared == pytest.approx(1.0 - ss_res / ss_tot,
                                              rel=1e-10)

    def test_rank_deficiency_names_column(self):
        X = np.column_stack([np.ones(30), np.arange(30.0),
                             2.0 * np.arange(30.0)])
        design = design_from_arrays(np.arange(30.0), X,
                                    ["const", "a", "a_twice"])
        with pytest.raises(ValueError, match="a_twice|a\\b"):
            linmod.ols_fit(design)

    def test_stars_thresholds(self):
        assert lsq.stars(0.005) == "***"
        assert lsq.stars(0.03) == "**"
        assert lsq.stars(0.08) == "*"
        assert lsq.stars(0.2) == ""


class TestBisquare:
    def test_kernel_endpoints(self):
        c = linmod.BISQUARE_C
        assert linmod.bisquare_weight(0.0, c) == 1.0
        assert linmod.bisquare_weight(c, c) == 0.0
        assert linmod.bisquare_weight(-c, c) == 0.0
        assert linmod.bisquare_weight(c + 1.0, c) == 0.0

    def test_kernel_formula_midpoint(self):
        c = 4.685
        u = 2.0
        expect = (1.0 - (u / c) ** 2) ** 2
        assert linmod.bisquare_weight(u, c) == pytest.approx(expect,
                                                             rel=1e-12)

    def test_kernel_even(self):
        for u in (0.3, 1.7, 4.0):
            assert linmod.bisquare_weight(u) \
                == pytest.approx(linmod.bisquare_weight(-u), rel=1e-15)


class TestRls:
    def test_outlier_resistance(self):
        rng = np.random.default_rng(17)
        n = 400
        x = rng.uniform(-3, 3, size=n)
        y = 1.0 + 2.0 * x + rng.normal(0.0, 0.3, size=n)
        # 10% gross vertical outliers
        idx = rng.choice(n, size=n // 10, replace=False)
        y[idx] += 25.0
        design = design_from_arrays(
            y, np.column_stack([np.ones(n), x]), ["const", "x"])
        ols = linmod.ols_fit(design)
        rls = linmod.rls_fit(design)
        ols_err = abs(ols.coefficient("x") - 2.0)
        rls_err = abs(rls.coefficient("x") - 2.0)
        assert rls.converged
        assert rls_err <= ols_err / 3.0

    def test_huge_c_equals_ols(self):
        design, _ = make_planted(11)
        ols = linmod.ols_fit(design)
        rls = linmod.rls_fit(design, c=1e12)
        assert rls.coefficients == pytest.approx(ols.coefficients,
                                                 abs=1e-6)

    def test_clean_data_close_to_ols(self):
        design, _ = make_planted(12)
        ols = linmod.ols_fit(design)
        rls = linmod.rls_fit(design)
        assert rls.coefficients == pytest.approx(ols.coefficients,
                                                 abs=0.05)

    def test_weights_in_unit_interval(self):
        design, _ = make_planted(13)
        rls = linmod.rls_fit(design)
        assert rls.weights is not None
        assert np.all(rls.weights >= 0.0) and np.all(rls.weights <= 1.0)

    def test_exact_fit_degenerate_scale(self):
        design = design_from_arrays([1.0, 2.0, 3.0, 4.0],
                                    [[1, 0], [1, 1], [1, 2], [1, 3]],
                                    ["const", "x"])
        fit = linmod.rls_fit(design)
        assert fit.coefficients == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_saturated_design_is_the_ols_fit(self):
        # n = p: exact coefficients and NaN inference, never a traceback
        rng = np.random.default_rng(0)
        for _ in range(200):
            X = np.column_stack([np.ones(3), rng.normal(size=(3, 2))])
            design = design_from_arrays(rng.normal(size=3), X,
                                        ["const", "x1", "x2"])
            fit = linmod.rls_fit(design)
            assert np.array_equal(fit.coefficients,
                                  linmod.ols_fit(design).coefficients)
            assert np.isnan(fit.standard_errors).all()


class TestVif:
    def test_orthogonal_design_unity(self):
        n = 64
        t = np.arange(n)
        X = np.column_stack([np.ones(n),
                             np.cos(2 * np.pi * t / n),
                             np.sin(2 * np.pi * t / n)])
        design = design_from_arrays(np.zeros(n) + 1.0, X,
                                    ["const", "c1", "s1"])
        got = linmod.vif(design)
        assert got["c1"] == pytest.approx(1.0, abs=1e-9)
        assert got["s1"] == pytest.approx(1.0, abs=1e-9)
        assert "const" not in got

    def test_duplicated_regressor_blows_up(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=200)
        b = a + rng.normal(scale=1e-3, size=200)
        X = np.column_stack([np.ones(200), a, b])
        design = design_from_arrays(rng.normal(size=200), X,
                                    ["const", "a", "b"])
        got = linmod.vif(design)
        assert got["a"] > 1e4


class TestHeteroskedasticityTests:
    def test_bp_detects_planted_heteroskedasticity(self):
        rng = np.random.default_rng(8)
        n = 600
        x = rng.uniform(1.0, 4.0, size=n)
        y = 1.0 + x + rng.normal(size=n) * x  # variance grows with x
        design = design_from_arrays(
            y, np.column_stack([np.ones(n), x]), ["const", "x"])
        fit = linmod.ols_fit(design)
        bp = linmod.breusch_pagan(design, fit)
        assert bp.df == 1
        assert bp.reject_null

    def test_bp_homoskedastic_size(self):
        # empirical rejection rate over many homoskedastic draws
        rng = np.random.default_rng(123)
        n, reps, rejections = 120, 400, 0
        for _ in range(reps):
            x = rng.normal(size=n)
            y = 0.5 + x + rng.normal(size=n)
            design = design_from_arrays(
                y, np.column_stack([np.ones(n), x]), ["const", "x"])
            fit = linmod.ols_fit(design)
            if linmod.breusch_pagan(design, fit).reject_null:
                rejections += 1
        rate = rejections / reps
        assert 0.02 <= rate <= 0.09

    def test_white_dedupes_dummy_squares(self):
        # a 0/1 dummy: its square duplicates it, cross terms dedupe too
        rng = np.random.default_rng(4)
        n = 300
        d = (rng.uniform(size=n) < 0.4).astype(float)
        z = rng.normal(size=n)
        X = np.column_stack([np.ones(n), d, z])
        design = design_from_arrays(rng.normal(size=n) + d + z, X,
                                    ["const", "d", "z"])
        fit = linmod.ols_fit(design)
        white = linmod.white_test(design, fit)
        # regressors: d, z, z^2, d*z (d^2 == d dropped); df = 4
        assert white.df == 4
        aux = np.column_stack([np.ones(n), d, z, z * z, d * z])
        e2 = fit.residuals ** 2
        beta = np.linalg.lstsq(aux, e2, rcond=None)[0]
        r2 = 1.0 - np.sum((e2 - aux @ beta) ** 2) \
            / np.sum((e2 - e2.mean()) ** 2)
        assert white.statistic == pytest.approx(n * r2, rel=1e-12)

    def test_lm_tests_need_a_regressor(self):
        # a constant-only design leaves the auxiliary regression nothing
        rng = np.random.default_rng(6)
        design = design_from_arrays(rng.normal(size=50), np.ones((50, 1)),
                                    ["const"])
        fit = linmod.ols_fit(design)
        with pytest.raises(ValueError, match="no auxiliary regressors for "
                                             "the Breusch-Pagan test"):
            linmod.breusch_pagan(design, fit)
        with pytest.raises(ValueError, match="no auxiliary regressors for "
                                             "the White test"):
            linmod.white_test(design, fit)

    def test_residual_jb_is_jarque_bera_of_the_residuals(self):
        design, _ = make_planted(9)
        fit = linmod.ols_fit(design)
        assert linmod.residual_jb(fit) \
            == diststat.jarque_bera(diststat.moments(fit.residuals))


class TestModelLadder:
    def test_terms_are_cumulative(self):
        ids = list(linmod.MODEL_TERMS)
        assert ids == [f"M{i}" for i in range(1, 10)]
        m4_on = set(linmod.MODEL_TERMS["M4"])
        for earlier, later in zip(ids[3:], ids[4:]):
            assert set(linmod.MODEL_TERMS[earlier]) \
                <= set(linmod.MODEL_TERMS[later])
        assert m4_on <= set(linmod.MODEL_TERMS["M5"])

    def test_reference_categories_absent(self):
        for terms in linmod.MODEL_TERMS.values():
            assert "friday" not in terms
            assert "winter" not in terms
            assert "europe" not in terms

    def test_build_design_on_corpus(self, synth_corpus):
        from dwe import diststat, rud
        obs = rud.build_rud_dataset(synth_corpus, rud.CONSOLIDATED)
        _, y = rud.attach_transform(obs, diststat.IDENTITY_SPEC)
        design = linmod.build_design(
            linmod.superset_matrix(synth_corpus.columns), y,
            linmod.standard_model("M9"))
        assert design.n > 0
        assert design.columns[0] == "const"
        # weekday dummies present
        for term in ("monday", "weekend", "christmas", "log10_authors"):
            assert term in design.columns


@pytest.fixture(scope="module")
def cell_kinds_corpus():
    """A year of synthetic articles, and three more in 2005."""
    rows = synth.make_corpus_rows(synth.SynthConfig(
        seed=20, start_year=2004, end_year=2004, journals=("aaa", "bbb")))
    extra = [cm.RawRecord(
        id=len(rows) + k, journal="aaa",
        received=date(2005, 3, 7) + timedelta(days=k),
        revised=date(2005, 5, 1), online=date(2005, 8, 1), author_count=3,
        page_count=8, country="US") for k in range(1, 4)]
    return cm.clean_corpus(rows + extra, cm.load_default_countries())


_STEP2 = "failed: step 2 domain: y*+1 = -8.75696 <= 0 at ratio 1.75"

#: consolidated: an empty window, a fitted cell and a window of three
#: articles, too few for M1's columns; bbb: log10(ratio) - 10 + 1 is
#: negative for every ratio, so its supplied spec fails every cell
CELL_KINDS = [
    ("consolidated", "1990-1991", "M1", "", None, "", "empty", 0),
    ("consolidated", "2004-2004", "M1", "const", 0.25913131394485284,
     "***", "", 2048),
    ("consolidated", "2004-2004", "M1", "monday", 0.31163243942470437,
     "***", "", 2048),
    ("consolidated", "2004-2004", "M1", "tuesday", 0.3482421338694631,
     "***", "", 2048),
    ("consolidated", "2004-2004", "M1", "wednesday", 0.2026773601615522,
     "***", "", 2048),
    ("consolidated", "2004-2004", "M1", "thursday", 0.09701781132053791,
     "***", "", 2048),
    ("consolidated", "2004-2004", "M1", "weekend", -0.8084301097919335,
     "***", "", 2048),
    ("consolidated", "2004-2004", "M1", "_adjusted_r2", 0.30537648570957754,
     "", "", 2048),
    ("consolidated", "2005-2005", "M1", "", None, "",
     "failed: 3 rows for 3 columns in model M1", 0),
    ("bbb", "1990-1991", "M1", "", None, "", _STEP2, 0),
    ("bbb", "2004-2004", "M1", "", None, "", _STEP2, 0),
    ("bbb", "2005-2005", "M1", "", None, "", _STEP2, 0),
]


@pytest.fixture(scope="module")
def report(synth_corpus):
    return linmod.roll_window_run(
        synth_corpus, windows=((2004, 2005), (2006, 2006)),
        model_ids=("M1", "M6"), method="ols",
        scopes=["consolidated"])


class TestRollReport:
    def test_windows_and_models_covered(self, report):
        pairs = {(r.window, r.model_id) for r in report.rows}
        for w in ("2004-2005", "2006-2006"):
            for m in ("M1", "M6"):
                assert (w, m) in pairs

    def test_weekend_negative_significant(self, report):
        rows = [r for r in report.rows
                if r.model_id == "M6" and r.term == "weekend"]
        assert rows
        for r in rows:
            assert r.coefficient < 0
            assert r.stars == "***"

    @pytest.mark.parametrize("method", linmod.METHODS)
    def test_every_cell_kind_marked(self, cell_kinds_corpus, monkeypatch,
                                    method):
        # one IRLS step never converges: the robust cell falls back to
        # OLS, and only its _adjusted_r2 row tells
        monkeypatch.setattr(linmod, "RLS_MAX_ITER", 1)
        report = linmod.roll_window_run(
            cell_kinds_corpus, windows=((1990, 1991), (2004, 2004),
                                        (2005, 2005)),
            model_ids=("M1",), method=method, scopes=["consolidated", "bbb"],
            transform_specs={"bbb": diststat.TransformSpec(
                diststat.LOG10_SHIFT, -10.0, 1.0)})
        want = [linmod.RollRow(*row) for row in CELL_KINDS]
        if method == "rls":
            want[7] = want[7]._replace(marker="not-converged")
        assert report.rows == tuple(want)

    def test_csv_round_trip(self, tmp_path, report):
        # an empty window's row has no coefficient
        rows = report.rows + (linmod.RollRow(
            "consolidated", "1990-1991", "M1", "", None, "", "empty", 0),)
        path = tmp_path / "roll.csv"
        linmod.RollReport(rows).to_csv(str(path))
        with open(path, newline="", encoding="utf-8") as fh:
            header, *lines = csv.reader(fh)
        assert tuple(header) == linmod.RollReport.CSV_COLUMNS
        assert lines == [
            [r.scope, r.window, r.model_id, r.term,
             "" if r.coefficient is None else repr(r.coefficient),
             r.stars, r.marker, str(r.n)] for r in rows]

    def test_overlapping_windows_rejected(self, synth_corpus):
        with pytest.raises(ValueError):
            linmod.roll_window_run(synth_corpus,
                                   windows=((2004, 2005), (2005, 2006)),
                                   scopes=["consolidated"])
