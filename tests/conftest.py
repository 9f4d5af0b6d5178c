import csv
import itertools
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from dwe import corpus as cm, synth
from dwe.linmod import DesignMatrix
from dwe.panel import PANEL_COLUMNS, PanelData

DATA_DIR = Path(__file__).parent / "data"


def design_from_arrays(y, X, columns):
    return DesignMatrix(y=np.asarray(y, dtype=float),
                        X=np.asarray(X, dtype=float),
                        columns=tuple(columns), dropped_columns=(),
                        n_dropped_rows=0)


def make_planted(seed, n=1000, beta=(2.0, -0.5, 0.3), noise=0.4):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n),
                         rng.normal(size=n),
                         rng.uniform(-2, 2, size=n)])
    y = X @ np.asarray(beta) + rng.normal(0.0, noise, size=n)
    return design_from_arrays(y, X, ["const", "x1", "x2"]), np.asarray(beta)


def exhaustive_jenks(values, k):
    """Minimal total within-class squared deviation over all partitions."""
    xs = sorted(values)
    n = len(xs)

    def ssd(seg):
        m = sum(seg) / len(seg)
        return sum((v - m) ** 2 for v in seg)

    best = None
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        total = sum(ssd(xs[a:b]) for a, b in zip(bounds, bounds[1:]))
        if best is None or total < best - 1e-12:
            best = total
    return best


def tiny_panel(seed, n_countries=3, T=12, sigma_c=0.4, sigma_e=0.25):
    """Balanced micro panel with intercept + weekend + one covariate."""
    rng = np.random.default_rng(seed)
    start = date(2015, 6, 1)  # a Monday
    u = rng.normal(0.0, sigma_c, size=n_countries)
    cells, ys = [], []
    for ci in range(n_countries):
        for t in range(1, T + 1):
            day = start + timedelta(days=t - 1)
            weekend = 1.0 if day.isoweekday() >= 6 else 0.0
            authors = float(rng.uniform(0.3, 0.9))
            ys.append(0.4 - 0.3 * weekend + 0.2 * authors + u[ci]
                      + rng.normal(0.0, sigma_e))
            row = dict.fromkeys(PANEL_COLUMNS, 0.0)
            row.update(const=1.0, weekend=weekend, summer=1.0,
                       log10_authors=authors, log10_hdi=-0.05,
                       log10_lto=1.6, trend=math.log10(t))
            if day.isoweekday() <= 4:  # PANEL_COLUMNS[1..4]: Mon..Thu
                row[PANEL_COLUMNS[day.isoweekday()]] = 1.0
            cells.append(list(row.values()))
    return PanelData(cells=np.asarray(cells), y=np.asarray(ys),
                     n_ct=np.ones(len(ys), dtype=int),
                     country=np.repeat(np.arange(n_countries), T),
                     t=np.tile(np.arange(1, T + 1), n_countries),
                     start=start, end=start + timedelta(days=T - 1),
                     countries=tuple(f"C{ci:02d}"
                                     for ci in range(n_countries)))


def brute_force_gls(panel_data, sigma2_c, sigma2_e, columns):
    """Direct GLS with the exact block covariance, for tiny instances.

    ``columns`` picks the design columns so both estimators parameterize
    the model identically; only the solver differs.
    """
    X = panel_data.cells
    assert not np.isnan(X).any()
    y = panel_data.y
    groups = panel_data.country
    keep = [PANEL_COLUMNS.index(c) for c in columns]
    X = X[:, keep]
    n = y.size
    omega = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if groups[i] == groups[j]:
                omega[i, j] = sigma2_c + (sigma2_e if i == j else 0.0)
    omega_inv = np.linalg.inv(omega)
    beta = np.linalg.solve(X.T @ omega_inv @ X, X.T @ omega_inv @ y)
    return beta


@pytest.fixture(scope="session")
def sample_week_rows():
    """Frozen 47-row worked example: id, date, weekday, week, ud, rud."""
    rows = []
    with open(DATA_DIR / "sample_weeks.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "article_id": int(row["article_id"]),
                "received": date.fromisoformat(row["received"]),
                "weekday": int(row["weekday"]),
                "week": int(row["week"]),
                "ud": float(row["ud"]),
                "rud": float(row["rud"]),
            })
    assert len(rows) == 47
    return rows


@pytest.fixture(scope="session")
def country_table():
    return cm.load_default_countries()


@pytest.fixture(scope="session")
def sample_corpus(sample_week_rows, country_table):
    """The 47 worked-example articles as a cleaned corpus."""
    raw = [cm.RawRecord(id=r["article_id"], journal="plos one",
                        received=r["received"], revised=None, online=None,
                        author_count=3, page_count=10, country="US")
           for r in sample_week_rows]
    return cm.clean_corpus(raw, country_table)


@pytest.fixture(scope="session")
def synth_corpus():
    """Mid-sized planted corpus shared by the regression tests."""
    cfg = synth.SynthConfig(seed=20, start_year=2004, end_year=2006,
                            journals=("aaa", "bbb"))
    return synth.make_corpus(cfg)
