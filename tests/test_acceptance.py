"""The release gate: ten numbered end-to-end checks.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per check.  Tolerances here are contractual; loosening any of them is a
behavior change, not a test fix.
"""

import time

import numpy as np
import pytest

from conftest import (brute_force_gls, design_from_arrays, exhaustive_jenks,
                      make_planted, tiny_panel)
from dwe import corpus as cm, diststat, geo, linmod, panel, rud, synth
from dwe.panel import PANEL_COLUMNS

# (skewness, excess kurtosis, n, expected JB); the frozen moments are
# rounded to 3 decimals, hence the 0.1% slack on the statistic.
JB_CHECKS = [
    (1.291, 3.417, 9825, 7509.01),
    (0.649, 14.069, 160172, 1332241.06),
    (1.865, 8.340, 4653, 16182.46),
    (1.348, 2.429, 3777, 2072.39),
    (2.606, 20.306, 178427, 3267433.88),
]


@pytest.fixture(scope="module")
def planted_panel_fit():
    """The large balanced-panel recovery run, shared by checks 8 and 10."""
    plant = synth.PanelPlant(seed=9)  # 11 countries, 2435 days
    t0 = time.perf_counter()
    data, truth = synth.make_synthetic_panel(plant)
    fit = panel.re_egls_fit(data)
    elapsed = time.perf_counter() - t0
    return fit, truth, elapsed


def test_01_worked_example_weeks_and_rates(sample_week_rows, country_table):
    t0 = time.perf_counter()
    for row in sample_week_rows:
        assert cm.derive_weekday(row["received"]) == row["weekday"]
        assert cm.derive_week_number(row["received"]) == row["week"]
    raw = [cm.RawRecord(id=r["article_id"], journal="plos one",
                        received=r["received"], revised=None, online=None,
                        author_count=3, page_count=10, country="US")
           for r in sample_week_rows]
    corpus = cm.clean_corpus(raw, country_table)
    observations = {o.article_id: o for o in rud.build_rud_dataset(corpus)}
    assert len(observations) == 47
    for row in sample_week_rows:
        obs = observations[row["article_id"]]
        assert obs.week_total / 7.0 == pytest.approx(row["ud"], abs=5e-6)
        assert obs.rud == pytest.approx(row["rud"], abs=5e-6)
    assert time.perf_counter() - t0 < 1.0


def test_02_normality_statistic_reference_values():
    summaries = [diststat.MomentSummary(n=n, mean=0.0, skewness=s,
                                        excess_kurtosis=k)
                 for s, k, n, _ in JB_CHECKS]
    diststat.jarque_bera(summaries[0])  # first call outside the timer
    t0 = time.perf_counter()
    results = [diststat.jarque_bera(m) for m in summaries]
    elapsed = time.perf_counter() - t0
    for res, (_, _, _, expected) in zip(results, JB_CHECKS):
        assert res.statistic == pytest.approx(expected, rel=1e-3)
        assert res.df == 2 and res.reject_null
    assert elapsed < 1e-3


def test_03_uniform_counts_and_fixed_thresholds():
    flat = diststat.chi_square_uniformity([40] * 7)
    assert flat.statistic == 0.0
    assert not flat.reject_null
    assert diststat.chi_square_critical(6) == 12.59
    assert diststat.chi_square_critical(4) == 9.49
    # the decision is a strict comparison against those exact points
    seven = diststat.chi_square_uniformity([16, 5, 2, 0, 2, 0, 1])
    assert seven.critical_value == 12.59
    assert seven.reject_null == (seven.statistic > 12.59)
    five = diststat.chi_square_uniformity([12, 9, 11, 10, 8])
    assert five.critical_value == 9.49
    assert five.reject_null == (five.statistic > 9.49)


def test_04_transform_search_normalizes_lognormal():
    rng = np.random.default_rng(42)
    sample = rng.lognormal(mean=0.0, sigma=1.0, size=10_000)
    raw_jb = diststat.jarque_bera(diststat.moments(sample)).statistic
    fitted = diststat.fit_transform_spec(sample)
    assert fitted.jb_statistic <= 0.10 * raw_jb
    ordered = np.unique(sample)
    out = diststat.apply_transform_steps_array(ordered, fitted.spec)[1]
    assert np.all(np.diff(out) > 0.0)


def test_05_ols_recovery_and_exactness():
    for seed in (0, 1, 2):
        design, beta = make_planted(seed, n=1000)
        fit = linmod.ols_fit(design)
        for j in range(beta.size):
            assert abs(fit.coefficients[j] - beta[j]) \
                < 3.0 * fit.standard_errors[j]
    # minimal design: interpolation is exact
    minimal = design_from_arrays([1.0, 3.0], [[1.0, 0.0], [1.0, 1.0]],
                                 ["const", "x"])
    exact = linmod.ols_fit(minimal)
    assert exact.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
    design, _ = make_planted(0, n=1000)
    fit = linmod.ols_fit(design)
    resid = design.y - design.X @ fit.coefficients
    gram = np.abs(design.X.T @ resid).max()
    scale = np.linalg.norm(design.X) * np.linalg.norm(design.y)
    assert gram / scale < 1e-8


def test_06_robust_fit_resists_gross_outliers():
    rng = np.random.default_rng(17)
    n = 400
    x = rng.uniform(-3, 3, size=n)
    y = 1.0 + 2.0 * x + rng.normal(0.0, 0.3, size=n)
    idx = rng.choice(n, size=n // 10, replace=False)
    y[idx] += 25.0
    design = design_from_arrays(y, np.column_stack([np.ones(n), x]),
                                ["const", "x"])
    ols = linmod.ols_fit(design)
    rls = linmod.rls_fit(design)
    assert abs(rls.coefficient("x") - 2.0) \
        <= abs(ols.coefficient("x") - 2.0) / 3.0
    clean, _ = make_planted(11)
    wide = linmod.rls_fit(clean, c=1e12)
    assert wide.coefficients == pytest.approx(
        linmod.ols_fit(clean).coefficients, abs=1e-6)
    c = linmod.BISQUARE_C
    assert linmod.bisquare_weight(0.0, c) == 1.0
    assert linmod.bisquare_weight(c, c) == 0.0
    assert linmod.bisquare_weight(-c, c) == 0.0
    assert linmod.bisquare_weight(2.0 * c, c) == 0.0


def test_07_vif_unit_and_bp_calibrated():
    t = np.arange(64, dtype=float)
    X = np.column_stack([np.ones(64),
                         np.cos(2 * np.pi * t / 64),
                         np.sin(2 * np.pi * t / 64)])
    design = design_from_arrays(np.zeros(64), X, ["const", "c1", "s1"])
    for value in linmod.vif(design).values():
        assert value == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(3)
    rejections = 0
    reps = 1000
    for _ in range(reps):
        x = rng.normal(size=120)
        y = 0.5 + x + rng.normal(size=120)  # homoskedastic by construction
        d = design_from_arrays(y, np.column_stack([np.ones(120), x]),
                               ["const", "x"])
        bp = linmod.breusch_pagan(d, linmod.ols_fit(d))
        rejections += bp.p_value < 0.05
    assert 0.03 <= rejections / reps <= 0.07


def test_08_panel_estimator_three_ways(planted_panel_fit):
    # clamped no-effect draw collapses to pooled least squares
    for seed in range(40):
        data = tiny_panel(seed, n_countries=3, T=12, sigma_c=0.0)
        fit = panel.re_egls_fit(data)
        if fit.clamped:
            break
    else:
        pytest.fail("no clamped instance found")
    X = data.cells[:, [PANEL_COLUMNS.index(c) for c in fit.columns]]
    y = data.y
    pooled, *_ = np.linalg.lstsq(X, y, rcond=None)
    ours = [fit.coefficient(c) for c in fit.columns]
    assert np.asarray(ours) == pytest.approx(pooled, abs=1e-6)

    # tiny instances agree with the explicit block-covariance solve
    for seed in (0, 1, 2, 3):
        small = tiny_panel(seed, n_countries=3, T=5)
        sfit = panel.re_egls_fit(small)
        beta = brute_force_gls(small, sfit.sigma2_country,
                               sfit.sigma2_idio, sfit.columns)
        got = [sfit.coefficient(c) for c in sfit.columns]
        assert np.asarray(got) == pytest.approx(beta, abs=1e-8)

    big_fit, truth, elapsed = planted_panel_fit
    assert elapsed < 30.0
    assert big_fit.rho_share == pytest.approx(truth["rho_share"], rel=0.3)


def test_09_quotients_and_breaks_match_oracles():
    cfg = synth.SynthConfig(seed=11, start_year=2011, end_year=2012,
                            articles_per_week=12.0, journals=("j1", "j2"))
    corpus = synth.make_corpus(cfg)
    sel = geo.parse_selection("weekday in 6, 7")
    entries = geo.localization_quotient(corpus, sel)
    sel_c, tot_c = {}, {}
    for row in corpus.records:
        iso = row.country
        tot_c[iso] = tot_c.get(iso, 0) + 1
        if sel.matches(cm.derive_weekday(row.received), row.journal):
            sel_c[iso] = sel_c.get(iso, 0) + 1
    world_sel = sum(sel_c.values())
    world_tot = sum(tot_c.values())
    assert sum(e.selected_count for e in entries) == world_sel
    assert sum(e.total_count for e in entries) == world_tot
    for e in entries:
        expected = 100.0 * (sel_c.get(e.country, 0) / tot_c[e.country]) \
            / (world_sel / world_tot)
        assert e.lq == pytest.approx(expected, abs=1e-9)

    rng = np.random.default_rng(9)
    for n, k in ((8, 2), (10, 3), (12, 4), (12, 2), (11, 3)):
        values = [float(v) for v in rng.uniform(0.0, 300.0, size=n)]
        breaks = geo.jenks_breaks(values, k)
        assert breaks.total_ssd == pytest.approx(
            exhaustive_jenks(values, k), rel=1e-9, abs=1e-9)


def test_10_planted_sign_patterns(synth_corpus, planted_panel_fit):
    """Qualitative signature on corpora with known planted effects.

    The 178,427-record corpus these defaults were tuned against is not
    redistributable, so coefficient tables estimated from it are not
    verification targets.  What is contractual instead: a planted weekday
    deficit on rest days must surface as a negative, significant weekend
    coefficient, and a planted festive-window surplus as a positive
    christmas coefficient.
    """
    report = linmod.roll_window_run(synth_corpus, windows=((2004, 2006),),
                                    model_ids=("M6",),
                                    scopes=["consolidated"])
    weekend_rows = [r for r in report.rows if r.term == "weekend"]
    assert weekend_rows
    for row in weekend_rows:
        assert row.coefficient < 0
        assert row.stars == "***"

    fit, truth, _ = planted_panel_fit
    betas = dict(truth["betas"])
    assert betas["christmas"] > 0 and betas["weekend"] < 0
    assert fit.coefficient("christmas") > 0
    assert fit.p_values[fit.columns.index("christmas")] < 0.05
    assert fit.coefficient("weekend") < 0
    assert fit.p_values[fit.columns.index("weekend")] < 0.05
