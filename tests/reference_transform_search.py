"""Oracle for ``diststat.fit_transform_spec``: the per-candidate search.

This is the search as it was before the moment kernel was shared and the
logs hoisted out of the loops: every candidate recomputes its logs, keeps
its full y* array, and takes unnormalized third and fourth powers of the
deviations.  Callers run it under ``np.errstate(all="ignore")``, since those
powers overflow on extreme samples.

Besides the fit it returns its margin: how far, relative to the winner's
score, the runner-up of step 1, of step 2 or of the identity check fell
behind, whichever is least.  A margin near rounding noise means the last
bits chose.

With ``log10_on_ln`` it scores the log10-shift family on ln(x), as the
current search does.  Skewness does not depend on the base of the log, so
that family and power 0 then tie exactly and the tie-break rule decides
between them; scored on log10(x), the last bit of each decides.
"""

from __future__ import annotations

import math

import numpy as np

from dwe.diststat import (IDENTITY_SPEC, LOG10_SHIFT, POWER, FittedTransform,
                          TransformSearchGrid, TransformSpec)


def _step1(x, family, param):
    if family == LOG10_SHIFT:
        return np.log10(x) + param
    if param == 0.0:
        return np.log(x)
    return np.expm1(param * np.log(x)) / param


def _step2(y1, power):
    if power == 0.0:
        return np.log1p(y1)
    return np.expm1(power * np.log1p(y1)) / power


def _skew_kurt(y):
    n = y.size
    dev = y - y.mean()
    s2 = float(np.dot(dev, dev))
    if s2 <= 0.0 or not math.isfinite(s2):
        return None
    m2 = s2 / n
    m3 = float(np.mean(dev ** 3))
    s4 = float(np.sum(dev ** 4))
    if not (math.isfinite(m3) and math.isfinite(s4)):
        return None
    skew = (m3 / m2 ** 1.5) * math.sqrt(n * (n - 1)) / (n - 2)
    v = s2 / (n - 1)
    kurt = (n * (n + 1) / ((n - 1) * (n - 2) * (n - 3))) * s4 / (v * v) \
        - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return skew, kurt


def _jb(y):
    sk = _skew_kurt(y)
    if sk is None:
        return None
    return y.size * (sk[0] ** 2 / 6.0 + sk[1] ** 2 / 24.0)


def _gap(best, second):
    # skewness and JB carry absolute rounding noise near 0, hence the floor
    if second is None:
        return math.inf
    return (second - best) / max(best, 1e-3)


def reference_fit(sample, log10_on_ln: bool = False
                  ) -> tuple[FittedTransform, float]:
    x = np.asarray(sample, dtype=float)
    grid = TransformSearchGrid()
    candidates = []

    log_y = np.log10(x)
    feasible_c = [float(c) for c in grid.c_values()
                  if float(log_y.min()) + float(c) + 1.0 > 0.0]
    if feasible_c:
        sk = _skew_kurt(np.log(x) if log10_on_ln else log_y)
        if sk is not None:
            c_rep = min(feasible_c, key=lambda c: (abs(c), c))
            candidates.append((abs(sk[0]), abs(c_rep), 0,
                               LOG10_SHIFT, c_rep, log_y + c_rep))

    for lam in grid.lam1_values():
        lam = float(lam)
        y1 = _step1(x, POWER, lam)
        if not np.all(np.isfinite(y1)) or float(y1.min()) + 1.0 <= 0.0:
            continue
        sk = _skew_kurt(y1)
        if sk is None:
            continue
        candidates.append((abs(sk[0]), abs(lam), 1, POWER, lam, y1))

    if not candidates:
        raise ValueError("empty feasible grid for step 1")
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    step1_abs_skew, _, _, family, param, y1 = candidates[0]
    margin = _gap(step1_abs_skew,
                  candidates[1][0] if len(candidates) > 1 else None)

    best2 = None  # (jb, abs_lam2, lam2)
    scores = []
    for lam2 in grid.lam2_values():
        lam2 = float(lam2)
        y2 = _step2(y1, lam2)
        if not np.all(np.isfinite(y2)):
            continue
        jb = _jb(y2)
        if jb is None or not math.isfinite(jb):
            continue
        scores.append(jb)
        if best2 is None or (jb, abs(lam2)) < best2[:2]:
            best2 = (jb, abs(lam2), lam2)
    if best2 is None:
        raise ValueError("empty feasible grid for step 2")
    scores.sort()
    margin = min(margin, _gap(scores[0], scores[1] if len(scores) > 1
                              else None))

    identity_jb = _jb(x - 1.0)
    if identity_jb is not None and identity_jb < best2[0]:
        margin = min(margin, _gap(identity_jb, best2[0]))
        return FittedTransform(
            spec=IDENTITY_SPEC, jb_statistic=identity_jb,
            step1_abs_skewness=abs(_skew_kurt(x - 1.0)[0])), margin
    if identity_jb is not None:
        margin = min(margin, _gap(best2[0], identity_jb))
    return FittedTransform(spec=TransformSpec(family, param, best2[2]),
                           jb_statistic=best2[0],
                           step1_abs_skewness=step1_abs_skew), margin
