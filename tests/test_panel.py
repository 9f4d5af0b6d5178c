"""Country-day panel assembly and random-effects EGLS."""

from datetime import date, timedelta

import numpy as np
import pytest

from conftest import brute_force_gls, tiny_panel
from dwe import panel, synth
from dwe.panel import PANEL_COLUMNS, PanelCell, PanelData


class TestBuildPanel:
    def test_cell_means_and_counts(self, synth_corpus):
        data = panel.build_panel(synth_corpus, start=date(2004, 1, 1),
                                 end=date(2005, 12, 31), top_n=5)
        assert len(data.countries) == 5
        assert all(c.n_ct >= 1 for c in data.cells)
        assert all(1 <= c.t <= data.T for c in data.cells)
        # y is an average of logs of positive ratios: finite
        assert all(np.isfinite(c.y) for c in data.cells)

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
        for cell in data.cells:
            vals = by_cell[(cell.country, cell.day)]
            assert cell.n_ct == len(vals)
            assert cell.y == pytest.approx(
                float(np.mean(np.log10(vals))), rel=1e-12)


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
        rows = [panel._cell_row(c, "log10") for c in data.cells]
        X = np.asarray(rows)[:, [PANEL_COLUMNS.index(c)
                                 for c in fit.columns]]
        y = np.asarray([c.y for c in data.cells])
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
        weighted = panel.re_egls_fit(data, weighted=True)
        assert weighted.weighted and weighted.weight_mode == "multiply"
        assert base.coefficients is not weighted.coefficients

    def test_unit_weights_match_unweighted(self):
        # every n_ct is 1 in tiny_panel, so weighting must be a no-op
        data = tiny_panel(2)
        a = panel.re_egls_fit(data)
        b = panel.re_egls_fit(data, weighted=True, weight_mode="multiply")
        c = panel.re_egls_fit(data, weighted=True, weight_mode="wls")
        assert b.coefficients == pytest.approx(a.coefficients, rel=1e-10)
        assert c.coefficients == pytest.approx(a.coefficients, rel=1e-10)

    def test_unknown_mode_rejected(self):
        data = tiny_panel(3)
        with pytest.raises(ValueError):
            panel.re_egls_fit(data, weighted=True, weight_mode="wat")


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
