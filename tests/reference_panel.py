"""Oracle for the columnar panel.

This is the panel as it was before its cells became columns.
``build_panel`` makes one ``PanelCell`` per (country, day) and applies
each calendar rule and the country's weekend rule to that one day;
``panel_rows`` is the row loop of the estimator, which turns every cell
into a design row with ``_cell_row`` and groups the rows by ISO code;
``re_egls_fit`` runs the package's EGLS core on those rows.
``synthetic_panel`` is the planted panel built one ``PanelCell`` at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Mapping

import numpy as np

from dwe.corpus import (Corpus, CountryProfile, classify_weekend,
                        derive_season, derive_weekday, in_christmas_window)
from dwe.panel import PANEL_COLUMNS, PanelFit, _egls_fit
from dwe.rud import CONSOLIDATED, build_rud_dataset
from dwe.synth import PanelPlant


@dataclass(frozen=True)
class PanelCell:
    country: str
    t: int  # day index, 1..T
    day: date
    n_ct: int
    y: float
    mean_log10_authors: float
    weekday: int
    season: str
    is_weekend: bool
    is_christmas: bool
    log10_hdi: float
    log10_lto: float | None


@dataclass(frozen=True)
class RowPanel:
    cells: tuple[PanelCell, ...]
    start: date
    end: date
    countries: tuple[str, ...]


def build_panel(corpus: Corpus, countries: Mapping[str, CountryProfile],
                start: date, end: date, top_n: int = 11,
                scope: str = CONSOLIDATED) -> RowPanel:
    """The cells one at a time, each with its own calendar rules, under
    ``countries``, the table the corpus was cleaned with."""
    if end < start:
        raise ValueError(f"range ends before it starts: {start}..{end}")
    ratios = build_rud_dataset(corpus, scope)  # row i is article i
    cols = ratios.columns
    in_range = (cols.received >= start.toordinal()) \
        & (cols.received <= end.toordinal())
    counts = np.bincount(cols.country[in_range],
                         minlength=len(cols.countries))
    present = np.flatnonzero(counts)
    top = present[np.argsort(-counts[present], kind="stable")][:top_n]
    if top.size < top_n:
        raise ValueError(
            f"only {top.size} countries have articles in range, "
            f"need {top_n}")

    key = cols.country * 10**7 + cols.received
    picked = np.flatnonzero(in_range & np.isin(cols.country, top))
    picked = picked[np.argsort(key[picked], kind="stable")]
    starts = np.flatnonzero(np.diff(key[picked], prepend=-1))
    stops = np.append(starts[1:], picked.size).tolist()
    values, value = np.unique(ratios.rud[picked], return_inverse=True)
    log_rud = np.array([math.log10(v) for v in values.tolist()])[value]
    log_authors = cols.log10_authors[picked]

    cells = []
    for a, b, code, ordinal in zip(
            starts.tolist(), stops, cols.country[picked[starts]].tolist(),
            cols.received[picked[starts]].tolist()):
        iso = cols.countries[code]
        profile = countries[iso]
        d = date.fromordinal(ordinal)
        lto = profile.lto
        cells.append(PanelCell(
            country=iso,
            t=(d - start).days + 1,
            day=d,
            n_ct=b - a,
            y=float(np.mean(log_rud[a:b])),
            mean_log10_authors=float(np.mean(log_authors[a:b])),
            weekday=derive_weekday(d),
            season=derive_season(d),
            is_weekend=classify_weekend(d, profile),
            is_christmas=in_christmas_window(d),
            log10_hdi=math.log10(profile.hdi),
            log10_lto=math.log10(lto) if lto else None))
    return RowPanel(cells=tuple(cells), start=start, end=end,
                    countries=tuple(cols.countries[k]
                                    for k in np.sort(top).tolist()))


def _cell_row(cell: PanelCell) -> list[float] | None:
    if cell.log10_lto is None:
        return None
    return [1.0,
            float(cell.weekday == 1), float(cell.weekday == 2),
            float(cell.weekday == 3), float(cell.weekday == 4),
            float(cell.is_weekend),
            float(cell.season == "spring"), float(cell.season == "summer"),
            float(cell.season == "fall"), float(cell.is_christmas),
            cell.mean_log10_authors, cell.log10_hdi, cell.log10_lto,
            math.log10(cell.t)]


def panel_rows(panel: RowPanel):
    """(X, y, n_ct, groups, n_dropped_rows) of the usable cells: a cell
    whose country has no LTO is dropped and counted."""
    rows: list[list[float]] = []
    yvals: list[float] = []
    sizes: list[float] = []
    groups: list[str] = []
    n_dropped_rows = 0
    for cell in panel.cells:
        row = _cell_row(cell)
        if row is None:
            n_dropped_rows += 1
            continue
        rows.append(row)
        yvals.append(cell.y)
        sizes.append(float(cell.n_ct))
        groups.append(cell.country)
    X = np.asarray(rows, dtype=float).reshape(len(rows), len(PANEL_COLUMNS))
    return (X, np.asarray(yvals, dtype=float),
            np.asarray(sizes, dtype=float), groups, n_dropped_rows)


def re_egls_fit(panel: RowPanel, weighting: str = "none") -> PanelFit:
    """The row loop, the ISO-string grouping, then the package's core."""
    if weighting not in ("none", "multiply", "wls"):
        raise ValueError(f"unknown weighting {weighting!r}")
    X, y, n_ct, groups, n_dropped_rows = panel_rows(panel)
    codes = sorted(set(groups))
    index_of = {c: i for i, c in enumerate(codes)}
    g = np.asarray([index_of[c] for c in groups], dtype=np.intp)
    return _egls_fit(X, y, n_ct, g, codes, weighting, n_dropped_rows)


def synthetic_panel(plant: PanelPlant) -> tuple[RowPanel, dict]:
    """The planted panel one cell at a time, each y from its own row."""
    rng = np.random.default_rng(plant.seed)
    beta = dict(plant.betas)
    coef = np.asarray([beta.get(name, 0.0) for name in PANEL_COLUMNS])
    countries = [f"C{i:02d}" for i in range(plant.n_countries)]
    u = rng.normal(0.0, plant.sigma_country, size=plant.n_countries)
    hdi = rng.uniform(0.5, 0.95, size=plant.n_countries)
    lto = rng.uniform(20.0, 90.0, size=plant.n_countries)

    cells = []
    for ci, iso in enumerate(countries):
        noise = rng.normal(0.0, plant.sigma_idio, size=plant.T)
        authors = rng.normal(0.55, 0.2, size=plant.T)
        sizes = 1 + rng.poisson(4.0, size=plant.T)
        for t in range(1, plant.T + 1):
            day = plant.start + timedelta(days=t - 1)
            cell = PanelCell(
                country=iso, t=t, day=day, n_ct=int(sizes[t - 1]),
                y=0.0,  # placeholder, filled below
                mean_log10_authors=float(authors[t - 1]),
                weekday=day.isoweekday(),
                season=derive_season(day),
                is_weekend=day.isoweekday() in (6, 7),
                is_christmas=in_christmas_window(day),
                log10_hdi=math.log10(hdi[ci]),
                log10_lto=math.log10(lto[ci]))
            row = np.asarray(_cell_row(cell))
            y = float(row @ coef) + float(u[ci]) + float(noise[t - 1])
            cells.append(replace(cell, y=y))

    end = plant.start + timedelta(days=plant.T - 1)
    var_c = plant.sigma_country ** 2
    var_i = plant.sigma_idio ** 2
    truth = {"betas": beta, "sigma2_country": var_c, "sigma2_idio": var_i,
             "rho_share": var_c / (var_c + var_i) if var_c + var_i > 0
             else 0.0}
    return RowPanel(cells=tuple(cells), start=plant.start, end=end,
                    countries=tuple(countries)), truth
