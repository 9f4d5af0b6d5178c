"""Country-day panel assembly and random-effects EGLS."""

import dataclasses
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_panel
from conftest import brute_force_gls, tiny_panel
from dwe import cli, corpus as cm, panel, synth
from dwe.panel import PANEL_COLUMNS
from reference_corpus import raw_rows


def _outcome(fn, *args):
    """(result, None), or (None, message) when fn raises a ValueError."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_cells(data, ref):
    """Every cell of the columnar panel equals the reference cell, bit
    for bit; a cell without an LTO has a NaN there."""
    assert data.countries == ref.countries
    assert (data.start, data.end) == (ref.start, ref.end)
    assert len(data.cells) == len(ref.cells)
    rows = [reference_panel._cell_row(dataclasses.replace(
        c, log10_lto=math.nan if c.log10_lto is None else c.log10_lto))
        for c in ref.cells]
    X = data.cells
    assert X.shape == (len(rows), len(PANEL_COLUMNS))
    assert X.tobytes() == _bits(rows)
    assert data.y.tobytes() == _bits([c.y for c in ref.cells])
    assert data.n_ct.tolist() == [c.n_ct for c in ref.cells]
    assert data.t.tolist() == [c.t for c in ref.cells]
    assert [data.countries[k] for k in data.country.tolist()] \
        == [c.country for c in ref.cells]

    # the usable cells: the reference's row loop against the fit's mask
    ref_X, ref_y, ref_n, groups, n_dropped = reference_panel.panel_rows(ref)
    usable = ~np.isnan(X[:, PANEL_COLUMNS.index("log10_lto")])
    assert X[usable].shape == ref_X.shape
    assert X[usable].tobytes() == ref_X.tobytes()
    assert data.y[usable].tobytes() == ref_y.tobytes()
    assert data.n_ct[usable].astype(float).tobytes() == ref_n.tobytes()
    assert [data.countries[k] for k in data.country[usable].tolist()] \
        == groups
    assert np.count_nonzero(~usable) == n_dropped


def assert_same_fit(got, want):
    for field in dataclasses.fields(panel.PanelFit):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        elif isinstance(b, float):
            assert _bits(a) == _bits(b), field.name
        elif field.name == "theta":
            assert list(a) == list(b)
            assert _bits(list(a.values())) == _bits(list(b.values()))
        else:
            assert a == b, field.name


def assert_same_panel(corpus, countries, start, end, top_n):
    """build_panel and every fit equal the row-wise reference's (given
    ``countries``, the corpus's table): the same cells, the same PanelFit
    fields bit for bit, or the same error.  Returns the number of fits
    that succeeded."""
    data, error = _outcome(panel.build_panel, corpus, start, end, top_n)
    ref, ref_error = _outcome(reference_panel.build_panel, corpus,
                              countries, start, end, top_n)
    assert error == ref_error
    if ref is None:
        return 0
    assert_same_cells(data, ref)
    fitted = 0
    for weighting in panel.WEIGHTINGS:
        fit, error = _outcome(panel.re_egls_fit, data, weighting)
        want, ref_error = _outcome(reference_panel.re_egls_fit, ref,
                                   weighting)
        assert error == ref_error
        if want is not None:
            assert_same_fit(fit, want)
            fitted += 1
    return fitted


class TestBuildPanel:
    def test_cell_means_and_counts(self, synth_corpus):
        data = panel.build_panel(synth_corpus, start=date(2004, 1, 1),
                                 end=date(2005, 12, 31), top_n=5)
        assert len(data.countries) == 5
        assert np.all(data.n_ct >= 1)
        span = (data.end - data.start).days + 1
        assert np.all((1 <= data.t) & (data.t <= span))
        # y is an average of logs of positive ratios: finite
        assert np.all(np.isfinite(data.y))

    def test_top_n_ranked_by_count(self, synth_corpus):
        data = panel.build_panel(synth_corpus, start=date(2004, 1, 1),
                                 end=date(2005, 12, 31), top_n=3)
        counts = {}
        for row in synth_corpus.records:
            if date(2004, 1, 1) <= row.received <= date(2005, 12, 31):
                counts[row.country] = counts.get(row.country, 0) + 1
        want = sorted(counts, key=lambda iso: (-counts[iso], iso))[:3]
        assert sorted(data.countries) == sorted(want)

    def test_manual_cell_recount(self, synth_corpus):
        from dwe import rud
        data = panel.build_panel(synth_corpus, start=date(2004, 1, 1),
                                 end=date(2005, 12, 31), top_n=5)
        obs = rud.build_rud_dataset(synth_corpus, rud.CONSOLIDATED)
        country_of = {r.id: r.country for r in synth_corpus.records}
        by_cell = {}
        for o in obs:
            iso = country_of[o.article_id]
            if iso in data.countries and \
                    date(2004, 1, 1) <= o.received <= date(2005, 12, 31):
                by_cell.setdefault((iso, o.received), []).append(o.rud)
        assert len(by_cell) == len(data.cells)
        for code, t, n_ct, y in zip(data.country.tolist(), data.t.tolist(),
                                    data.n_ct.tolist(), data.y.tolist()):
            day = data.start + timedelta(days=t - 1)
            vals = by_cell[(data.countries[code], day)]
            assert n_ct == len(vals)
            assert y == pytest.approx(
                float(np.mean(np.log10(vals))), rel=1e-12)


#: range ends at the raw_rows edge dates and around them
PANEL_BOUNDS = st.sampled_from((date(1999, 1, 1), date(2000, 2, 29),
                                date(2012, 12, 20), date(2013, 6, 29),
                                date(2021, 12, 31)))


class TestColumnarPanel:
    @settings(max_examples=60, deadline=None)
    @given(raw_rows(min_size=60, max_size=120), st.integers(1, 5),
           PANEL_BOUNDS, PANEL_BOUNDS)
    def test_equals_row_wise_reference(self, country_table, rows, top_n,
                                       a, b):
        # NP gets an LTO so that four countries (KW has none) can carry
        # the three country-level columns of the between variance
        table = {**country_table,
                 "NP": dataclasses.replace(country_table["NP"], lto=40.0)}
        start, end = sorted((a, b))
        assert_same_panel(cm.clean_corpus(rows, table), table, start, end,
                          top_n)

    def test_fits_equal_row_wise_reference(self, synth_corpus,
                                           country_table):
        # SA switches its weekend on 2013-06-29; KW and NP have no LTO
        cfg = synth.SynthConfig(
            seed=4, start_year=2012, end_year=2014, journals=("a", "b"),
            countries=("SA", "KW", "NP", "US", "DE", "FR", "JP", "CN"))
        switch = synth.make_corpus(cfg)
        assert assert_same_panel(switch, country_table, date(2012, 1, 1),
                                 date(2014, 12, 31), 8) == 3
        assert assert_same_panel(synth_corpus, country_table,
                                 date(2004, 1, 1), date(2005, 12, 31),
                                 5) == 3

    @pytest.mark.parametrize("plant", [
        synth.PanelPlant(seed=3, n_countries=4, T=400, sigma_country=0.2),
        synth.PanelPlant(seed=9)], ids=["small", "acceptance"])
    def test_synthetic_panel_equals_reference(self, plant):
        data, truth = synth.make_synthetic_panel(plant)
        ref, ref_truth = reference_panel.synthetic_panel(plant)
        assert truth == ref_truth
        assert_same_cells(data, ref)


#: cell values of every sign and scale, signed zeros included
_CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


class TestCellMeans:
    """The per-cell means are np.mean's, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(small=st.lists(st.lists(_CELL_VALUES, min_size=1, max_size=20),
                          min_size=1, max_size=8),
           long_sizes=st.lists(st.integers(121, 400), max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_equal_np_mean(self, small, long_sizes, seed):
        # drawn values in the short cells; the long ones, past numpy's
        # 128-value block, mix scales and signed zeros from a seeded draw
        rng = np.random.default_rng(seed)
        cells = small + [
            np.where(rng.random(n) < 0.1, rng.choice([0.0, -0.0], n),
                     rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n))
            for n in long_sizes]
        sizes = np.array([len(c) for c in cells])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        values = np.concatenate([np.asarray(c, dtype=float) for c in cells])
        assert _bits(panel._cell_means(values, starts, sizes)) \
            == _bits([np.mean(np.asarray(c, dtype=float)) for c in cells])

    def test_equal_np_mean_on_every_size_up_to_400(self):
        rng = np.random.default_rng(5)
        # with tall blocks of a few sizes, where numpy could reorder the
        # reduction of a 2-D block
        sizes = np.concatenate([np.repeat(np.arange(1, 401), 3),
                                np.full(20_000, 3), np.full(2_000, 9),
                                np.full(500, 130)])
        rng.shuffle(sizes)
        values = rng.standard_normal(sizes.sum()) \
            * 10.0 ** rng.integers(-8, 9, size=sizes.sum())
        values[rng.random(values.size) < 0.05] = -0.0
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        assert _bits(panel._cell_means(values, starts, sizes)) == _bits(
            [np.mean(values[a:a + n])
             for a, n in zip(starts.tolist(), sizes.tolist())])


class TestEglsAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_exact_gls_when_components_known(self, seed):
        data = tiny_panel(seed)
        fit = panel.re_egls_fit(data)
        if fit.sigma2_country <= 0.0:
            pytest.skip("clamped draw; covered by the sigma-zero test")
        beta = brute_force_gls(data, fit.sigma2_country, fit.sigma2_idio,
                               fit.columns)
        ours = [fit.coefficient(c) for c in fit.columns]
        assert np.asarray(ours) == pytest.approx(beta, abs=1e-8)

    def test_sigma_zero_reduces_to_pooled_ols(self):
        # from a no-country-effect draw whose between moment clamps at 0
        for seed in range(40):
            data = tiny_panel(seed, n_countries=3, T=12, sigma_c=0.0)
            fit = panel.re_egls_fit(data)
            if fit.clamped:
                break
        else:
            pytest.fail("no clamped instance found")
        assert fit.sigma2_country == 0.0
        assert fit.rho_share == 0.0
        X = data.cells[:, [PANEL_COLUMNS.index(c) for c in fit.columns]]
        y = data.y
        pooled, *_ = np.linalg.lstsq(X, y, rcond=None)
        ours = [fit.coefficient(c) for c in fit.columns]
        assert np.asarray(ours) == pytest.approx(pooled, abs=1e-6)


class TestPlantedRecovery:
    def test_medium_panel_coefficients(self):
        plant = synth.PanelPlant(seed=5, n_countries=8, T=600,
                                 sigma_country=0.1, sigma_idio=0.5)
        data, truth = synth.make_synthetic_panel(plant)
        fit = panel.re_egls_fit(data)
        betas = dict(truth["betas"])
        assert fit.coefficient("weekend") == pytest.approx(
            betas["weekend"], abs=0.06)
        assert fit.coefficient("const") == pytest.approx(
            betas["const"], abs=0.25)

    def test_variance_share_order_of_magnitude(self):
        plant = synth.PanelPlant(seed=6, n_countries=11, T=800,
                                 sigma_country=0.2, sigma_idio=0.5)
        data, truth = synth.make_synthetic_panel(plant)
        fit = panel.re_egls_fit(data)
        assert not fit.clamped
        assert fit.rho_share == pytest.approx(truth["rho_share"], rel=0.5)

    def test_theta_between_zero_and_one(self):
        plant = synth.PanelPlant(seed=7, n_countries=6, T=300,
                                 sigma_country=0.15, sigma_idio=0.4)
        data, _ = synth.make_synthetic_panel(plant)
        fit = panel.re_egls_fit(data)
        for iso, theta in fit.theta.items():
            assert 0.0 <= theta < 1.0


class TestWeightedModes:
    def test_multiply_mode_changes_fit(self):
        plant = synth.PanelPlant(seed=8, n_countries=5, T=300)
        data, _ = synth.make_synthetic_panel(plant)
        base = panel.re_egls_fit(data)
        weighted = panel.re_egls_fit(data, weighting="multiply")
        assert not np.array_equal(weighted.coefficients, base.coefficients)

    def test_unit_weights_match_unweighted(self):
        # every n_ct is 1 in tiny_panel, so weighting must be a no-op
        data = tiny_panel(2)
        a = panel.re_egls_fit(data)
        b = panel.re_egls_fit(data, weighting="multiply")
        c = panel.re_egls_fit(data, weighting="wls")
        assert b.coefficients == pytest.approx(a.coefficients, rel=1e-10)
        assert c.coefficients == pytest.approx(a.coefficients, rel=1e-10)

    def test_unknown_mode_rejected(self):
        data = tiny_panel(3)
        with pytest.raises(ValueError, match="unknown weighting 'wat'"):
            panel.re_egls_fit(data, weighting="wat")


class TestDegenerateInputs:
    def test_too_few_cells_rejected(self):
        data = tiny_panel(0, n_countries=2, T=2)
        with pytest.raises(ValueError):
            panel.re_egls_fit(data)

    def test_zero_variance_columns_reported(self):
        data = tiny_panel(4)
        fit = panel.re_egls_fit(data)
        # christmas never fires in a June window; seasons are constant
        assert "christmas" in fit.dropped_columns

    def test_dropped_columns_end_the_panel_csv(self, tmp_path):
        fit = panel.re_egls_fit(tiny_panel(4))
        path = tmp_path / "panel.csv"
        cli.write_panel_csv(fit, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-len(fit.dropped_columns):] == [
            f"_dropped_{name},,,,," for name in fit.dropped_columns]
