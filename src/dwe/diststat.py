"""Moment statistics, normality tests, and the two-step normality transform.

Estimator conventions (spreadsheet-style small-sample corrections):

    skewness  = g1 * sqrt(n(n-1))/(n-2),  g1 = m3 / m2^(3/2)
    kurtosis  = [n(n+1)/((n-1)(n-2)(n-3))] * S4/V^2 - 3(n-1)^2/((n-2)(n-3))

with S4 = sum((y-mean)^4), V = sum((y-mean)^2)/(n-1); kurtosis is reported
in excess form (normal = 0).  The Jarque-Bera statistic built from these is
JB = n (Skew^2/6 + Kurt^2/24), chi-square with 2 df under normality.

One scale-normalized kernel computes both, for ``moments`` and for every
candidate of the transform search.

The dependent-variable transform is a two-step map: step 1 is either
log10(y)+c or the power map (y^l1 - 1)/l1 applied to the raw ratio, step 2
is always ((y*+1)^l2 - 1)/l2; both power maps hit ln at the zero-parameter
continuity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _sps

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
    alpha: float
    reject_null: bool
    note: str = ""


def _moment_kernel(y: np.ndarray, adjusted: bool = True
                   ) -> tuple[float, float, float] | None:
    """(mean, skewness, excess kurtosis), or None when constant or not finite.

    Deviations are divided by their largest magnitude, so every power sum
    lies in [0, n], clear of overflow and underflow; both ratios are
    scale-free.
    """
    n = y.size
    lo, hi = float(y.min()), float(y.max())
    # a mean of values this small rounds in the subnormals; scaling them by
    # a power of two is exact
    e = math.frexp(max(-lo, hi))[1]
    if e < -900:
        y, lo, hi = np.ldexp(y, -e), math.ldexp(lo, -e), math.ldexp(hi, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(y.mean())
        spread = max(hi - mean, mean - lo)
    if not (spread > 0.0 and math.isfinite(spread)):
        return None
    dev = (y - mean) / spread
    d2 = dev * dev
    s2 = float(d2.sum())
    s3 = float(d2 @ dev)
    s4 = float(d2 @ d2)
    skew = (s3 / n) / (s2 / n) ** 1.5
    if adjusted:
        skew *= math.sqrt(n * (n - 1)) / (n - 2)
    v = s2 / (n - 1)
    kurt = (n * (n + 1) / ((n - 1) * (n - 2) * (n - 3))) * s4 / (v * v) \
        - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return (math.ldexp(mean, e) if e < -900 else mean), skew, kurt


def moments(sample, adjusted: bool = True) -> MomentSummary:
    """Sample moments; needs n >= 4 finite values and non-zero variance."""
    y = np.asarray(sample, dtype=float)
    if y.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    n = y.size
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")
    result = _moment_kernel(y, adjusted)
    if result is None:
        raise ValueError("zero-variance or non-finite sample")
    return MomentSummary(n, *result)


def chi_square_critical(df: int, alpha: float = 0.05) -> float:
    """Critical point; the printed two-decimal values for df 2/4/6 at 5%."""
    if alpha == 0.05 and df in _CHI2_CRIT_5PCT:
        return _CHI2_CRIT_5PCT[df]
    return float(_sps.chi2.ppf(1.0 - alpha, df))


def jarque_bera(m: MomentSummary, alpha: float = 0.05) -> TestResult:
    """JB = n (Skew^2/6 + Kurt^2/24) against chi-square(2)."""
    jb = m.n * (m.skewness ** 2 / 6.0 + m.excess_kurtosis ** 2 / 24.0)
    crit = chi_square_critical(2, alpha)
    return TestResult(statistic=jb, df=2, critical_value=crit,
                      p_value=float(_sps.chi2.sf(jb, 2)), alpha=alpha,
                      reject_null=jb > crit)


def chi_square_uniformity(day_counts, alpha: float = 0.05) -> TestResult:
    """Pearson chi-square of observed day counts against a uniform split.

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
    stat = sum((c - expected) ** 2 / expected for c in counts)
    df = m - 1
    crit = chi_square_critical(df, alpha)
    return TestResult(statistic=stat, df=df, critical_value=crit,
                      p_value=float(_sps.chi2.sf(stat, df)), alpha=alpha,
                      reject_null=stat > crit)


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


def _step1_array(x: np.ndarray, family: str, param: float) -> np.ndarray:
    # expm1/log keeps (x^l - 1)/l accurate down to l -> 0, where the naive
    # power expression loses every significant digit
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if family == LOG10_SHIFT:
            return np.log10(x) + param
        if abs(param) < _LOG_LIMIT:
            return np.log(x)
        return np.expm1(param * np.log(x)) / param


def _step2_array(y1: np.ndarray, power: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if abs(power) < _LOG_LIMIT:
            return np.log1p(y1)
        return np.expm1(power * np.log1p(y1)) / power


def apply_transform_steps_array(x, spec: TransformSpec
                                ) -> tuple[np.ndarray, np.ndarray]:
    """(y*, y**) for an array of ratios.

    The first ratio outside the domain raises the error that
    ``apply_transform_steps`` raises for it alone.
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


def apply_transform_steps(rud: float, spec: TransformSpec
                          ) -> tuple[float, float]:
    """(y*, y**) for a single ratio value; domain failures raise."""
    y1, y2 = apply_transform_steps_array([rud], spec)
    return float(y1[0]), float(y2[0])


def apply_transform(rud: float, spec: TransformSpec) -> float:
    """Fully transformed value y** for a single ratio."""
    return apply_transform_steps(rud, spec)[1]


def apply_transform_array(x, spec: TransformSpec) -> np.ndarray:
    """Vectorized y**; raises naming the first offending ratio."""
    return apply_transform_steps_array(x, spec)[1]


@dataclass(frozen=True)
class TransformSearchGrid:
    """Parameter grids for the fit; endpoints inclusive."""

    c_min: float = -0.2
    c_max: float = 0.2
    c_step: float = 0.01
    lam1_min: float = -8.0
    lam1_max: float = 8.0
    lam1_step: float = 0.05
    lam2_min: float = -2.0
    lam2_max: float = 3.0
    lam2_step: float = 0.005

    @staticmethod
    def _axis(lo: float, hi: float, step: float) -> np.ndarray:
        count = int(round((hi - lo) / step)) + 1
        return np.round(lo + step * np.arange(count), 10)

    def c_values(self) -> np.ndarray:
        return self._axis(self.c_min, self.c_max, self.c_step)

    def lam1_values(self) -> np.ndarray:
        return self._axis(self.lam1_min, self.lam1_max, self.lam1_step)

    def lam2_values(self) -> np.ndarray:
        return self._axis(self.lam2_min, self.lam2_max, self.lam2_step)


@dataclass(frozen=True)
class FittedTransform:
    spec: TransformSpec
    jb_statistic: float
    step1_abs_skewness: float


def _jb(m: tuple[float, float, float], n: int) -> float:
    _, skew, kurt = m
    return n * (skew ** 2 / 6.0 + kurt ** 2 / 24.0)


def fit_transform_spec(sample, grid: TransformSearchGrid | None = None
                       ) -> FittedTransform:
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
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("sample values must be positive and finite")
    grid = grid or TransformSearchGrid()

    # (abs_skew, abs_param, family_rank, family, param)
    candidates: list[tuple[float, float, int, str, float]] = []

    ln_x = np.log(x)
    log10_min = float(np.log10(x).min())
    feasible_c = [float(c) for c in grid.c_values()
                  if log10_min + float(c) + 1.0 > 0.0]
    if feasible_c:
        m = _moment_kernel(ln_x)
        if m is not None:
            c_rep = min(feasible_c, key=lambda c: (abs(c), c))
            candidates.append((abs(m[1]), abs(c_rep), 0, LOG10_SHIFT, c_rep))

    with np.errstate(over="ignore"):
        for lam in grid.lam1_values():
            lam = float(lam)
            y1 = ln_x if lam == 0.0 else np.expm1(lam * ln_x) / lam
            # a NaN or -inf fails the first test, +inf the second
            if not (float(y1.min()) + 1.0 > 0.0
                    and math.isfinite(float(y1.max()))):
                continue
            m = _moment_kernel(y1)
            if m is not None:
                candidates.append((abs(m[1]), abs(lam), 1, POWER, lam))

    if not candidates:
        raise ValueError("empty feasible grid for step 1")

    step1_abs_skew, _, _, family, param = min(
        candidates, key=lambda c: (c[0], c[1], c[2]))
    log1p_y1 = np.log1p(_step1_array(x, family, param))

    best2: tuple[float, float, float] | None = None  # (jb, abs_lam2, lam2)
    with np.errstate(over="ignore"):
        for lam2 in grid.lam2_values():
            lam2 = float(lam2)
            y2 = log1p_y1 if lam2 == 0.0 \
                else np.expm1(lam2 * log1p_y1) / lam2
            m = _moment_kernel(y2)
            if m is None:
                continue
            jb = _jb(m, n)
            if best2 is None or (jb, abs(lam2)) < best2[:2]:
                best2 = (jb, abs(lam2), lam2)
    if best2 is None:
        raise ValueError("empty feasible grid for step 2")

    identity = _moment_kernel(x - 1.0)
    if identity is not None and _jb(identity, n) < best2[0]:
        return FittedTransform(spec=IDENTITY_SPEC,
                               jb_statistic=_jb(identity, n),
                               step1_abs_skewness=abs(identity[1]))
    return FittedTransform(spec=TransformSpec(family, param, best2[2]),
                           jb_statistic=best2[0],
                           step1_abs_skewness=step1_abs_skew)
