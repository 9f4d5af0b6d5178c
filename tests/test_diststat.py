"""Moments, JB, chi-square, and the two-step transform search."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from dwe import diststat
from reference_transform_search import reference_fit

# Published (skewness, excess kurtosis, N, statistic) check rows for the
# JB formula; the statistic column carries the original 2-decimal rounding,
# hence the 0.1% slack.
JB_CHECKS = [
    (1.291, 3.417, 9825, 7509.01),
    (0.649, 14.069, 160172, 1332241.06),
    (1.865, 8.340, 4653, 16182.46),
    (1.348, 2.429, 3777, 2072.39),
    (2.606, 20.306, 178427, 3267433.88),
]


class TestMoments:
    def test_three_zeros_one_one(self):
        # hand-worked: g1 = 2/sqrt(3)·(4·3)^.5/2 → 2; kurt exactly 4
        m = diststat.moments([0.0, 0.0, 0.0, 1.0])
        assert m.skewness == pytest.approx(2.0, rel=1e-12)
        assert m.excess_kurtosis == pytest.approx(4.0, rel=1e-12)

    def test_symmetric_sample_zero_skew(self):
        m = diststat.moments([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert m.skewness == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=5,
                    max_size=120))
    def test_matches_scipy_bias_corrected(self, xs):
        assume(len(set(xs)) > 1)
        # scipy's fourth powers of deviations below ~1e-77 go subnormal and
        # lose digits; both statistics are scale-free, so a tiny sample
        # reaches it scaled up by an exact power of two
        e = math.frexp(max(abs(v) for v in xs))[1]
        scaled = [math.ldexp(v, -e) for v in xs] if e < 0 else xs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref_skew = scipy.stats.skew(scaled, bias=False)
            ref_kurt = scipy.stats.kurtosis(scaled, bias=False, fisher=True)
        # the reference itself underflows on pathological spreads
        assume(math.isfinite(ref_skew) and math.isfinite(ref_kurt))
        m = diststat.moments(xs)
        assert m.skewness == pytest.approx(ref_skew, rel=1e-9, abs=1e-9)
        assert m.excess_kurtosis == pytest.approx(ref_kurt, rel=1e-9,
                                                 abs=1e-9)

    def test_small_or_constant_rejected(self):
        with pytest.raises(ValueError):
            diststat.moments([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            diststat.moments([5.0, 5.0, 5.0, 5.0])


class TestJarqueBera:
    @pytest.mark.parametrize("skew,kurt,n,expected", JB_CHECKS)
    def test_frozen_reference_rows(self, skew, kurt, n, expected):
        m = diststat.MomentSummary(n=n, mean=0.0, skewness=skew,
                                   excess_kurtosis=kurt)
        result = diststat.jarque_bera(m)
        assert result.statistic == pytest.approx(expected, rel=1e-3)
        assert result.df == 2
        assert result.critical_value == 5.99
        assert result.reject_null

    def test_normalish_sample_accepts(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=2000)
        result = diststat.jarque_bera(diststat.moments(xs))
        assert not result.reject_null

    @given(st.integers(min_value=4, max_value=10**6),
           st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=30))
    def test_formula(self, n, skew, kurt):
        m = diststat.MomentSummary(n=n, mean=0.0, skewness=skew,
                                   excess_kurtosis=kurt)
        expect = n * (skew ** 2 / 6.0 + kurt ** 2 / 24.0)
        assert diststat.jarque_bera(m).statistic \
            == pytest.approx(expect, rel=1e-12)


class TestChiSquare:
    def test_fixed_criticals(self):
        assert diststat.chi_square_critical(2) == 5.99
        assert diststat.chi_square_critical(4) == 9.49
        assert diststat.chi_square_critical(6) == 12.59

    def test_other_df_uses_distribution(self):
        got = diststat.chi_square_critical(10)
        assert got == pytest.approx(scipy.stats.chi2.ppf(0.95, 10),
                                    rel=1e-9)

    def test_uniform_counts_score_zero(self):
        result = diststat.chi_square_uniformity((10,) * 7)
        assert result.statistic == 0.0
        assert result.df == 6
        assert not result.reject_null

    def test_hand_worked_statistic(self):
        # counts (16,5,2,0,2,0,1), total 26, E = 26/7
        counts = (16, 5, 2, 0, 2, 0, 1)
        e = 26 / 7
        expect = sum((o - e) ** 2 / e for o in counts)
        result = diststat.chi_square_uniformity(counts)
        assert result.statistic == pytest.approx(expect, rel=1e-12)
        assert result.reject_null

    @given(st.lists(st.integers(min_value=0, max_value=99), min_size=7,
                    max_size=7).filter(lambda c: sum(c) > 0),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, counts, rnd):
        shuffled = list(counts)
        rnd.shuffle(shuffled)
        a = diststat.chi_square_uniformity(tuple(counts))
        b = diststat.chi_square_uniformity(tuple(shuffled))
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)


class TestApplyTransform:
    def test_log_shift_spec(self):
        # frozen parameter set: log10(y) - 0.06 then lambda2 = 1.82
        spec = diststat.TransformSpec(step1_family="log10-shift",
                                      step1_param=-0.06, step2_power=1.82)
        y = 7.0
        y_star = math.log10(y) - 0.06
        expect = ((y_star + 1.0) ** 1.82 - 1.0) / 1.82
        got = diststat.apply_transform(y, spec)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(1.02799, abs=1e-4)

    def test_power_spec(self):
        spec = diststat.TransformSpec(step1_family="power",
                                      step1_param=4.0, step2_power=-0.954)
        y = 1.75
        y_star = (y ** 4 - 1.0) / 4.0
        expect = ((y_star + 1.0) ** -0.954 - 1.0) / -0.954
        assert diststat.apply_transform(y, spec) \
            == pytest.approx(expect, rel=1e-12)

    def test_zero_powers_mean_log(self):
        spec = diststat.TransformSpec(step1_family="power",
                                      step1_param=0.0, step2_power=0.0)
        y = 3.0
        expect = math.log(math.log(y) + 1.0)
        assert diststat.apply_transform(y, spec) \
            == pytest.approx(expect, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=40.0),
           st.floats(min_value=0.05, max_value=40.0),
           st.sampled_from(["log10-shift", "power"]),
           st.floats(min_value=-1.5, max_value=3.0),
           st.floats(min_value=-1.5, max_value=2.5))
    def test_strictly_monotone(self, a, b, family, p1, p2):
        assume(abs(a - b) > 1e-9)
        spec = diststat.TransformSpec(step1_family=family, step1_param=p1,
                                      step2_power=p2)
        try:
            fa = diststat.apply_transform(a, spec)
            fb = diststat.apply_transform(b, spec)
        except ValueError:
            assume(False)
        assert (fa < fb) == (a < b)

    @pytest.mark.parametrize("p1,p2", [(5e-324, 1.5), (1.5, -5e-324)])
    def test_subnormal_power_takes_the_log_limit(self, p1, p2):
        # l * ln(x) underflows, so (x^l - 1)/l computed as written is 0 for
        # every x; the l -> 0 limit is exact to rounding instead
        spec = diststat.TransformSpec("power", p1, p2)
        limit = diststat.TransformSpec("power", p1 if abs(p1) > 1 else 0.0,
                                       p2 if abs(p2) > 1 else 0.0)
        for y in (0.5, 1.0, 2.0):
            assert diststat.apply_transform(y, spec) \
                == diststat.apply_transform(y, limit)

    def test_domain_error_names_value(self):
        spec = diststat.TransformSpec(step1_family="log10-shift",
                                      step1_param=-2.0, step2_power=1.0)
        # log10(0.01) - 2 = -4; y*+1 < 0 breaks step 2 for fractional powers
        bad = diststat.TransformSpec(step1_family="log10-shift",
                                     step1_param=-2.0, step2_power=0.5)
        with pytest.raises(ValueError):
            diststat.apply_transform(0.0, spec)
        with pytest.raises(ValueError):
            diststat.apply_transform(0.01, bad)

    def test_array_matches_scalar(self):
        spec = diststat.TransformSpec(step1_family="power",
                                      step1_param=0.8, step2_power=0.75)
        values = [0.3, 1.0, 2.5, 7.0]
        arr = diststat.apply_transform_array(np.asarray(values), spec)
        for v, a in zip(values, arr):
            assert a == pytest.approx(diststat.apply_transform(v, spec),
                                      rel=1e-12)


class TestFitTransform:
    def test_lognormal_gets_large_reduction(self):
        rng = np.random.default_rng(1234)
        sample = np.exp(rng.normal(0.0, 0.8, size=4000))
        raw_jb = diststat.jarque_bera(diststat.moments(sample)).statistic
        fit = diststat.fit_transform_spec(sample)
        assert fit.jb_statistic < 0.1 * raw_jb

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(99)
        sample = rng.uniform(0.2, 5.0, size=300)
        raw_jb = diststat.jarque_bera(
            diststat.moments(sample - 1.0)).statistic
        fit = diststat.fit_transform_spec(sample)
        assert fit.jb_statistic <= raw_jb + 1e-9

    def test_grid_parameters_on_grid(self):
        rng = np.random.default_rng(7)
        sample = np.exp(rng.normal(0.0, 0.5, size=500))
        fit = diststat.fit_transform_spec(sample)
        s = fit.spec
        if s.step1_family == "log10-shift":
            assert -0.2 <= s.step1_param <= 0.2
            assert round(s.step1_param / 0.01) \
                == pytest.approx(s.step1_param / 0.01, abs=1e-6)
        else:
            assert -8.0 <= s.step1_param <= 8.0
        assert -2.0 <= s.step2_power <= 3.0

    def test_already_normal_keeps_small_jb(self):
        rng = np.random.default_rng(42)
        sample = rng.normal(10.0, 1.0, size=3000)
        fit = diststat.fit_transform_spec(sample)
        m = diststat.moments(
            diststat.apply_transform_array(sample, fit.spec))
        assert diststat.jarque_bera(m).statistic == pytest.approx(
            fit.jb_statistic, rel=1e-9)
        assert fit.jb_statistic < 20.0

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            diststat.fit_transform_spec([1.0, 2.0, 3.0])


def _exact_skew_kurt(xs):
    """Adjusted skewness and excess kurtosis in exact rational arithmetic."""
    fs = [Fraction(v) for v in xs]
    n = len(fs)
    mean = sum(fs) / n
    dev = [f - mean for f in fs]
    s2 = sum(d * d for d in dev)
    s3 = sum(d ** 3 for d in dev)
    s4 = sum(d ** 4 for d in dev)
    g1 = math.sqrt((s3 / n) ** 2 / (s2 / n) ** 3) * (1 if s3 > 0 else -1)
    kurt = Fraction(n * (n + 1), (n - 1) * (n - 2) * (n - 3)) \
        * s4 / (s2 / (n - 1)) ** 2 \
        - Fraction(3 * (n - 1) ** 2, (n - 2) * (n - 3))
    return g1 * math.sqrt(n * (n - 1)) / (n - 2), float(kurt)


class TestMomentKernel:
    def test_huge_outlier_neither_warns_nor_overflows(self):
        rng = np.random.default_rng(11)
        x = np.append(np.exp(rng.normal(0.0, 0.5, size=200)), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = diststat.moments(x)
            _, skew, kurt = diststat._moment_kernel(x)
            fit = diststat.fit_transform_spec(x)
        # the search scores with the same kernel moments() reports
        assert (skew, kurt) == (m.skewness, m.excess_kurtosis)
        ref_skew, ref_kurt = _exact_skew_kurt(x)
        assert m.skewness == pytest.approx(ref_skew, rel=1e-12)
        assert m.excess_kurtosis == pytest.approx(ref_kurt, rel=1e-12)
        assert math.isfinite(fit.jb_statistic)

    @pytest.mark.parametrize("tiny", [5e-324, 4.0678178479046964e-79])
    def test_tiny_sample_keeps_its_digits(self, tiny):
        xs = [0.0, 0.0, 0.0, 0.0, tiny]
        m = diststat.moments(xs)
        ref_skew, ref_kurt = _exact_skew_kurt(xs)
        assert m.skewness == pytest.approx(ref_skew, rel=1e-12)
        assert m.excess_kurtosis == pytest.approx(ref_kurt, rel=1e-12)

    def test_unadjusted_skewness_is_g1(self):
        xs = [0.5, 1.0, 1.5, 4.0, 9.0]
        adj = diststat.moments(xs)
        raw = diststat.moments(xs, adjusted=False)
        n = len(xs)
        assert raw.skewness * math.sqrt(n * (n - 1)) / (n - 2) \
            == pytest.approx(adj.skewness, rel=1e-14)
        assert raw.excess_kurtosis == adj.excess_kurtosis

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            diststat.moments([1.0, 2.0, 3.0, float("inf")])


# Ratios on a 0.01 lattice in [0.01, 20], free and with repeats
_lattice = st.integers(min_value=1, max_value=2000).map(lambda k: k / 100)
_ratio_samples = st.one_of(
    st.lists(_lattice, min_size=8, max_size=400),
    st.lists(_lattice, min_size=2, max_size=12, unique=True).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=8,
                              max_size=400)))


def _reference(xs):
    with np.errstate(all="ignore"):
        return reference_fit(xs, log10_on_ln=True)


class TestSearchMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(_ratio_samples)
    def test_same_spec_and_jb(self, xs):
        assume(len(set(xs)) > 1)
        ref, margin = _reference(xs)
        got = diststat.fit_transform_spec(xs)
        if margin > 1e-9:
            assert got.spec == ref.spec
            # the two sum the same moments in another order; near JB = 0
            # the few-ulp absolute error of each moment dominates
            assert got.jb_statistic == pytest.approx(ref.jb_statistic,
                                                     rel=1e-12, abs=1e-14)
        else:
            # Candidates within rounding of each other: a two-valued sample
            # keeps its skewness and JB under every monotone map, and at
            # the ends of the lambda1 grid all but the top values flatten
            # together.  The last bits choose in either search, among
            # candidates that score alike.
            assert got.jb_statistic == pytest.approx(ref.jb_statistic,
                                                     rel=1e-9)

    def test_synthetic_corpus_ratios(self, synth_corpus):
        from dwe import rud
        xs = [o.rud for o in rud.build_rud_dataset(synth_corpus)]
        ref, margin = _reference(xs)
        got = diststat.fit_transform_spec(xs)
        assert margin > 1e-9
        assert got.spec == ref.spec
        assert got.jb_statistic == pytest.approx(ref.jb_statistic, rel=1e-12)


class TestTieBreaks:
    # {1, 2, 1, 2}: every step-1 map sends 1 to 0, so y* is {0, v, 0, v} and
    # the normalized deviations are exactly -1, 1, -1, 1 for every v; every
    # candidate of both steps has |skew| = 0 and the same JB, bit for bit
    SAMPLE = [1.0, 2.0, 1.0, 2.0]

    def test_all_candidates_tie_exactly(self):
        x = np.asarray(self.SAMPLE)
        scores = {diststat._moment_kernel(diststat._step2_array(
            diststat._step1_array(x, fam, p1), p2))[1:]
            for fam, p1 in (("log10-shift", 0.0), ("power", 0.0),
                            ("power", 2.5), ("power", -7.0))
            for p2 in (-2.0, 0.0, 1.0, 3.0)}
        assert len(scores) == 1
        skew, kurt = scores.pop()
        assert abs(skew) == 0.0
        assert kurt == pytest.approx(-6.0, rel=1e-15)

    def test_default_grid(self):
        fit = diststat.fit_transform_spec(self.SAMPLE)
        # step 1: |param| 0 for log10 c=0 and power l1=0; the log10 family
        # ranks first.  Step 2: the smallest |l2| wins.
        assert fit.spec == diststat.TransformSpec("log10-shift", 0.0, 0.0)
        assert fit.jb_statistic == pytest.approx(6.0, rel=1e-15)

    def test_log10_shift_and_power_zero_tie_exactly(self):
        # their skewness is one number in exact arithmetic, so both are
        # scored on ln(x) and the rule, not the last bit, picks the family
        xs = [0.61, 1.15, 2.01, 2.67, 8.88, 9.97, 1.24, 2.24, 2.45, 3.4,
              5.07, 3.8]
        fit = diststat.fit_transform_spec(xs)
        assert fit.spec.step1_family == "log10-shift"
        assert fit.spec.step1_param == 0.0
        assert fit.step1_abs_skewness == abs(
            diststat._moment_kernel(np.log(xs))[1])
        no_zero_c = diststat.TransformSearchGrid(c_min=0.05, c_max=0.1)
        fit = diststat.fit_transform_spec(xs, no_zero_c)
        assert (fit.spec.step1_family, fit.spec.step1_param) \
            == ("power", 0.0)

    def test_smaller_param_then_first_in_grid_order(self):
        grid = diststat.TransformSearchGrid(c_min=0.05, c_max=0.1,
                                            lam2_min=-0.5, lam2_max=0.5,
                                            lam2_step=1.0)
        fit = diststat.fit_transform_spec(self.SAMPLE, grid)
        # step 1: power l1=0 (|param| 0) beats log10 c=0.05.  Step 2:
        # -0.5 and 0.5 tie on (JB, |l2|), so the first in grid order stays.
        assert fit.spec == diststat.TransformSpec("power", 0.0, -0.5)
