"""Moment statistics, distribution tails, normality tests, and the two-step
normality transform.

Estimator conventions (spreadsheet-style small-sample corrections):

    skewness  = g1 * sqrt(n(n-1))/(n-2),  g1 = m3 / m2^(3/2)
    kurtosis  = [n(n+1)/((n-1)(n-2)(n-3))] * S4/V^2 - 3(n-1)^2/((n-2)(n-3))

with S4 = sum((y-mean)^4), V = sum((y-mean)^2)/(n-1); kurtosis is reported
in excess form (normal = 0).  The Jarque-Bera statistic built from these is
JB = n (Skew^2/6 + Kurt^2/24), chi-square with 2 df under normality.

One scale-normalized kernel computes both, for ``moments`` and for every
candidate of the transform search.  It sums over a sample's distinct values
weighted by their counts: the search maps and scores only the distinct
ratios, and ``moments`` groups its sample the same way, so ``moments`` of a
mapped sample gives the bits the search scored, unless the map sends two
distinct ratios to one float.

The dependent-variable transform is a two-step map: step 1 is either
log10(y)+c or the power map (y^l1 - 1)/l1 applied to the raw ratio, step 2
is always ((y*+1)^l2 - 1)/l2; both power maps hit ln at the zero-parameter
continuity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

#: fixed 5% critical points as conventionally printed, keyed by df.
_CHI2_CRIT_5PCT = {2: 5.99, 4: 9.49, 6: 12.59}

LOG10_SHIFT = "log10-shift"
POWER = "power"


@dataclass(frozen=True)
class MomentSummary:
    n: int
    mean: float
    skewness: float
    excess_kurtosis: float


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: int
    critical_value: float
    p_value: float
    reject_null: bool


#: numpy's pairwise sum without ``ndarray.sum``'s wrapper, which costs as
#: much as the sum itself on the few hundred values the search scores
_sum = np.add.reduce


def _moment_kernel(values: np.ndarray, counts: np.ndarray
                   ) -> tuple[float, float, float] | None:
    """(mean, skewness, excess kurtosis), or None when constant or not finite.

    The sample is ``values`` each taken ``counts`` times; every caller
    passes distinct values, so all sum the same numbers in the same order.
    Deviations are divided by their largest magnitude, so every power sum
    lies in [0, n], clear of overflow and underflow; both ratios are
    scale-free.  Every sum is numpy's pairwise one, never a BLAS dot, whose
    rounding follows the thread count.
    """
    y, w = values, np.asarray(counts, dtype=float)
    n = int(_sum(w))
    lo, hi = float(y.min()), float(y.max())
    # a mean of values this small rounds in the subnormals; scaling them by
    # a power of two is exact
    e = math.frexp(max(-lo, hi))[1]
    if e < -900:
        y, lo, hi = np.ldexp(y, -e), math.ldexp(lo, -e), math.ldexp(hi, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(_sum(w * y)) / n
        spread = max(hi - mean, mean - lo)
    # lo < hi, not spread > 0: a constant sample's mean can round off it
    if not (lo < hi and math.isfinite(spread)):
        return None
    # the mean's rounding shifts every deviation alike, and a skewness near
    # 0 magnifies that shift; one correction step takes it out
    centred = y - mean
    shift = float(_sum(w * centred)) / n
    mean += shift
    dev = (centred - shift) / spread
    d2 = dev * dev
    wd2 = w * d2
    s2 = float(_sum(wd2))
    s3 = float(_sum(wd2 * dev))
    s4 = float(_sum(wd2 * d2))
    skew = (s3 / n) / (s2 / n) ** 1.5 * (math.sqrt(n * (n - 1)) / (n - 2))
    v = s2 / (n - 1)
    kurt = (n * (n + 1) / ((n - 1) * (n - 2) * (n - 3))) * s4 / (v * v) \
        - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return (math.ldexp(mean, e) if e < -900 else mean), skew, kurt


def moments(sample) -> MomentSummary:
    """Sample moments; needs n >= 4 finite values and non-zero variance."""
    y = np.asarray(sample, dtype=float)
    if y.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    n = y.size
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")
    result = _moment_kernel(*np.unique(y, return_counts=True))
    if result is None:
        raise ValueError("zero-variance or non-finite sample")
    return MomentSummary(n, *result)


# -- distribution tails ------------------------------------------------------
#
# The scipy.special forms behind scipy.stats' chi2, t and norm, bit for
# bit, with scipy.stats' answers outside the support: 1 at or below its lower
# end and NaN for a non-positive degree of freedom.  (Importing scipy.stats
# costs about a second of every process.)

def chi2_sf(x, df):
    """P(X > x) for X ~ chi-square(df)."""
    return np.where(df > 0, np.where(x <= 0.0, 1.0, _special.chdtrc(df, x)),
                    np.nan)


def chi2_ppf(q, df):
    """The q quantile of chi-square(df); not ``chdtri``, which differs from
    scipy.stats in the last bit."""
    return np.where(df > 0, 2.0 * _special.gammaincinv(df / 2.0, q), np.nan)


def t_sf(x, df):
    """P(X > x) for X ~ Student's t(df)."""
    return _special.stdtr(df, -x)


def norm_sf(x):
    """P(X > x) for X ~ N(0, 1)."""
    return _special.ndtr(-x)


def chi_square_critical(df: int) -> float:
    """The 5% critical point; the printed two-decimal values for df 2/4/6."""
    if df < 1:
        raise ValueError(f"chi-square critical point needs df >= 1, got {df}")
    if df in _CHI2_CRIT_5PCT:
        return _CHI2_CRIT_5PCT[df]
    return float(chi2_ppf(0.95, df))


def chi_square_test(stat: float, df: int) -> TestResult:
    """``stat`` against chi-square(df) at 5%."""
    crit = chi_square_critical(df)
    return TestResult(statistic=stat, df=df, critical_value=crit,
                      p_value=float(chi2_sf(stat, df)),
                      reject_null=stat > crit)


def jarque_bera(m: MomentSummary) -> TestResult:
    """JB = n (Skew^2/6 + Kurt^2/24) against chi-square(2) at 5%."""
    jb = _jb((m.mean, m.skewness, m.excess_kurtosis), m.n)
    return chi_square_test(jb, 2)


def chi_square_uniformity(day_counts) -> TestResult:
    """Pearson chi-square of observed day counts against a uniform split,
    at 5%.

    ``day_counts`` has one entry per admissible day (7 for a full week, 5
    for working days); expected count is total/m and df = m - 1.
    """
    counts = [int(c) for c in day_counts]
    m = len(counts)
    if m < 2:
        raise ValueError("need at least two categories")
    if any(c < 0 for c in counts):
        raise ValueError("negative count")
    total = sum(counts)
    if total == 0:
        raise ValueError("empty sample")
    expected = total / m
    return chi_square_test(
        sum((c - expected) ** 2 / expected for c in counts), m - 1)


# -- two-step transform -----------------------------------------------------

@dataclass(frozen=True)
class TransformSpec:
    """step1 family is "log10-shift" (param = additive shift c) or "power"
    (param = exponent l1, applied to the raw ratio without the +1 offset);
    step2 is always the power family on y*+1."""

    step1_family: str
    step1_param: float
    step2_power: float

    def __post_init__(self) -> None:
        if self.step1_family not in (LOG10_SHIFT, POWER):
            raise ValueError(f"unknown step-1 family {self.step1_family!r}")

    def describe(self) -> str:
        if self.step1_family == LOG10_SHIFT:
            c = self.step1_param
            s1 = f"log10(y){c:+g}" if c else "log10(y)"
        elif self.step1_param == 0.0:
            s1 = "ln(y)"
        else:
            s1 = f"(y^{self.step1_param:g}-1)/{self.step1_param:g}"
        l2 = self.step2_power
        s2 = "ln(y*+1)" if l2 == 0.0 else f"((y*+1)^{l2:g}-1)/{l2:g}"
        return f"{s1} then {s2}"


IDENTITY_SPEC = TransformSpec(POWER, 1.0, 1.0)


#: below this |l|, l*ln(x) underflows and the power map loses its digits;
#: its l -> 0 limit ln(x) is then exact to rounding, as |l ln x| < 1e-304
_LOG_LIMIT = float(np.finfo(float).tiny)


def _power_map(log_x: np.ndarray, lam: float) -> np.ndarray:
    # (x^lam - 1)/lam of x = e^log_x, in both steps and every search
    # candidate; expm1 keeps its digits as lam -> 0.  Callers set errstate.
    return log_x if abs(lam) < _LOG_LIMIT else np.expm1(lam * log_x) / lam


def _step1_array(x: np.ndarray, family: str, param: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if family == LOG10_SHIFT:
            return np.log10(x) + param
        return _power_map(np.log(x), param)


def _step2_array(y1: np.ndarray, power: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _power_map(np.log1p(y1), power)


def apply_transform_steps_array(x, spec: TransformSpec
                                ) -> tuple[np.ndarray, np.ndarray]:
    """(y*, y**) for an array of ratios.

    The first ratio outside the domain raises, naming that ratio and the
    step that fails for it.
    """
    arr = np.asarray(x, dtype=float)
    y1 = _step1_array(arr, spec.step1_family, spec.step1_param)
    y2 = _step2_array(y1, spec.step2_power)
    ok = (arr > 0.0) & np.isfinite(y1) & (y1 + 1.0 > 0.0) & np.isfinite(y2)
    if not ok.all():
        i = int(np.argmin(ok))
        rud, y = float(arr[i]), float(y1[i])
        if not rud > 0.0:
            raise ValueError(f"ratio must be positive, got {rud}")
        if not math.isfinite(y):
            raise ValueError(f"step 1 not finite at ratio {rud}")
        if y + 1.0 <= 0.0:
            raise ValueError(
                f"step 2 domain: y*+1 = {y + 1.0:g} <= 0 at ratio {rud}")
        raise ValueError(f"step 2 not finite at ratio {rud}")
    return y1, y2


#: the search's parameter grids, endpoints inclusive: c in -0.2..0.2 by
#: 0.01, l1 in -8..8 by 0.05, l2 in -2..3 by 0.005
C_GRID = np.round(-0.2 + 0.01 * np.arange(41), 10)
LAM1_GRID = np.round(-8.0 + 0.05 * np.arange(321), 10)
LAM2_GRID = np.round(-2.0 + 0.005 * np.arange(1001), 10)


@dataclass(frozen=True)
class FittedTransform:
    spec: TransformSpec
    jb_statistic: float
    step1_abs_skewness: float


def _jb(m: tuple[float, float, float], n: int) -> float:
    _, skew, kurt = m
    return n * (skew ** 2 / 6.0 + kurt ** 2 / 24.0)


def fit_transform_spec(sample) -> FittedTransform:
    """Grid-search the two-step transform on a positive ratio sample.

    Stage 1 picks the step-1 family and parameter minimizing |skewness| of
    y*.  The log10-shift family's skewness depends on neither c nor the
    log's base, so it is scored on ln(y), the very number power 0 scores;
    its representative is the smallest-|c| value whose shifted output
    admits a second step.  Stage 2 picks the step-2 power minimizing the JB
    statistic of y**.  Ties break to the smallest |parameter|, then to the
    log10-shift family; a step-2 tie keeps the first power in grid order.
    Candidates whose y* is non-finite, degenerate, or has min(y*)+1 <= 0
    (no admissible second step) are skipped.  The result never has a
    higher JB than the identity map (power 1, power 1).

    Each candidate maps and scores only the sample's distinct values,
    weighted by their counts: a ratio 7 n_k / N of small integers repeats
    many times, so a scope of 30k ratios has under a thousand distinct ones.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")
    u, counts = np.unique(x, return_counts=True)
    if np.any(u <= 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("sample values must be positive and finite")
    w = counts.astype(float)

    # (abs_skew, abs_param, family_rank, family, param)
    candidates: list[tuple[float, float, int, str, float]] = []

    ln_u = np.log(u)
    log10_min = float(np.log10(u).min())
    feasible_c = [float(c) for c in C_GRID
                  if log10_min + float(c) + 1.0 > 0.0]
    if feasible_c:
        m = _moment_kernel(ln_u, w)
        if m is not None:
            c_rep = min(feasible_c, key=lambda c: (abs(c), c))
            candidates.append((abs(m[1]), abs(c_rep), 0, LOG10_SHIFT, c_rep))

    with np.errstate(over="ignore"):
        for lam in LAM1_GRID:
            lam = float(lam)
            y1 = _power_map(ln_u, lam)
            # a NaN or -inf fails the first test, +inf the second
            if not (float(y1.min()) + 1.0 > 0.0
                    and math.isfinite(float(y1.max()))):
                continue
            m = _moment_kernel(y1, w)
            if m is not None:
                candidates.append((abs(m[1]), abs(lam), 1, POWER, lam))

    if not candidates:
        raise ValueError("empty feasible grid for step 1")

    step1_abs_skew, _, _, family, param = min(
        candidates, key=lambda c: (c[0], c[1], c[2]))
    log1p_y1 = np.log1p(_step1_array(u, family, param))

    best2: tuple[float, float, float] | None = None  # (jb, abs_lam2, lam2)
    with np.errstate(over="ignore"):
        for lam2 in LAM2_GRID:
            lam2 = float(lam2)
            y2 = _power_map(log1p_y1, lam2)
            m = _moment_kernel(y2, w)
            if m is None:
                continue
            jb = _jb(m, n)
            if best2 is None or (jb, abs(lam2)) < best2[:2]:
                best2 = (jb, abs(lam2), lam2)
    if best2 is None:
        raise ValueError("empty feasible grid for step 2")

    identity = _moment_kernel(u - 1.0, w)
    if identity is not None and _jb(identity, n) < best2[0]:
        return FittedTransform(spec=IDENTITY_SPEC,
                               jb_statistic=_jb(identity, n),
                               step1_abs_skewness=abs(identity[1]))
    return FittedTransform(spec=TransformSpec(family, param, best2[2]),
                           jb_statistic=best2[0],
                           step1_abs_skewness=step1_abs_skew)
