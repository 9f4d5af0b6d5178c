"""Synthetic corpora and panels with planted effects.

Experiment support: generate article flows whose weekday mix and country
mix are known, and panels whose coefficients (a Christmas effect among
them) and variance components are known, then check that the estimators
recover them.  Everything is driven by a single integer seed through
numpy's Generator, so a given config is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .corpus import (Corpus, RawRecord, clean_corpus, derive_season,
                     in_christmas_window, load_default_countries)
from .linmod import SEASON_TERMS, WEEKDAY_TERMS
from .lsq import CONST
from .panel import PANEL_COLUMNS, PanelData, log_trend

#: Sat/Sun-weekend countries with LTO present in the shipped table, biggest
#: publishers first; a natural default mix for planted-effect corpora.
DEFAULT_COUNTRIES = ("US", "CN", "DE", "GB", "FR", "JP", "IT", "CA",
                     "ES", "AU", "RO")

#: strong working-week profile: submissions mostly Mon-Fri.
OFFICE_WEEK = (1.6, 1.45, 1.3, 1.2, 1.05, 0.25, 0.2)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    start_year: int = 2010
    end_year: int = 2014
    articles_per_week: float = 40.0
    journals: tuple[str, ...] = ("plos-one",)
    countries: tuple[str, ...] = DEFAULT_COUNTRIES
    country_weights: tuple[float, ...] | None = None


def _norm(weights, size) -> np.ndarray:
    if weights is None:
        return np.full(size, 1.0 / size)
    w = np.asarray(weights, dtype=float)
    if w.size != size or np.any(w < 0) or w.sum() <= 0:
        raise ValueError("bad weight vector")
    return w / w.sum()


def make_corpus_rows(config: SynthConfig) -> list[RawRecord]:
    """Draw raw article rows day by day over the configured years: the
    journals are equally likely, submissions follow ``OFFICE_WEEK``, and
    an article has 1 + Poisson(3) authors."""
    rng = np.random.default_rng(config.seed)
    jw = np.full(len(config.journals), 1.0 / len(config.journals))
    cw = _norm(config.country_weights, len(config.countries))
    profile = np.asarray(OFFICE_WEEK)

    rows: list[RawRecord] = []
    next_id = 1
    day = date(config.start_year, 1, 1)
    last = date(config.end_year, 12, 31)
    while day <= last:
        rate = config.articles_per_week \
            * profile[day.isoweekday() - 1] / profile.sum()
        count = int(rng.poisson(rate))
        for _ in range(count):
            journal = config.journals[int(rng.choice(len(jw), p=jw))]
            country = config.countries[int(rng.choice(len(cw), p=cw))]
            authors = 1 + int(rng.poisson(3.0))
            rows.append(RawRecord(
                id=next_id, journal=journal, received=day,
                revised=day + timedelta(days=int(rng.integers(20, 80))),
                online=day + timedelta(days=int(rng.integers(90, 200))),
                author_count=authors,
                page_count=int(rng.integers(4, 20)),
                country=country))
            next_id += 1
        day += timedelta(days=1)
    return rows


def make_corpus(config: SynthConfig) -> Corpus:
    """Cleaned synthetic corpus against the shipped country table."""
    return clean_corpus(make_corpus_rows(config), load_default_countries())


# -- synthetic panels -------------------------------------------------------

@dataclass(frozen=True)
class PanelPlant:
    """Planted data-generating process for a balanced daily panel."""

    seed: int = 0
    n_countries: int = 11
    T: int = 2435
    start: date = date(2010, 1, 1)
    sigma_country: float = 0.05  # sd of the per-country effect
    sigma_idio: float = 1.0     # sd of the cell noise
    betas: tuple[tuple[str, float], ...] = (
        ("const", 0.5), ("weekend", -0.3), ("monday", 0.08),
        ("christmas", 0.15), ("log10_authors", 0.1), ("trend", -0.02))


def make_synthetic_panel(plant: PanelPlant) -> tuple[PanelData, dict]:
    """Balanced panel with known coefficients and variance components.

    Returns the panel plus the ground truth (betas, variances, the planted
    variance share).  All countries use Sat/Sun weekends here; the planted
    weekend coefficient therefore acts on literal Saturdays and Sundays.
    """
    rng = np.random.default_rng(plant.seed)
    beta = dict(plant.betas)
    coef = np.asarray([beta.get(name, 0.0) for name in PANEL_COLUMNS])
    countries = [f"C{i:02d}" for i in range(plant.n_countries)]
    u = rng.normal(0.0, plant.sigma_country, size=plant.n_countries)
    hdi = rng.uniform(0.5, 0.95, size=plant.n_countries)
    lto = rng.uniform(20.0, 90.0, size=plant.n_countries)

    # the calendar terms of each day, Sat/Sun weekends
    days = [plant.start + timedelta(days=k) for k in range(plant.T)]
    weekday = np.array([d.isoweekday() for d in days])
    season = np.array([derive_season(d) for d in days])
    calendar = {CONST: np.ones(plant.T), "weekend": weekday >= 6,
                "christmas": np.array([in_christmas_window(d) for d in days])}
    for day, term in enumerate(WEEKDAY_TERMS[:4], start=1):
        calendar[term] = weekday == day
    calendar.update({term: season == term for term in SEASON_TERMS})

    trend = log_trend(np.arange(1, plant.T + 1))
    blocks, sizes, noises = [], [], []
    for ci in range(plant.n_countries):
        noises.append(rng.normal(0.0, plant.sigma_idio, size=plant.T))
        authors = rng.normal(0.55, 0.2, size=plant.T)
        sizes.append(1 + rng.poisson(4.0, size=plant.T))
        values = {**calendar, "log10_authors": authors,
                  "log10_hdi": np.full(plant.T, math.log10(hdi[ci])),
                  "log10_lto": np.full(plant.T, math.log10(lto[ci])),
                  "trend": trend}
        blocks.append(np.column_stack([values[t] for t in PANEL_COLUMNS]))

    cells = np.vstack(blocks)
    country = np.repeat(np.arange(plant.n_countries), plant.T)
    # one dot product per row: a matrix product rounds differently
    signal = np.array([row @ coef for row in cells])
    data = PanelData(
        cells=cells, y=signal + u[country] + np.concatenate(noises),
        n_ct=np.concatenate(sizes), country=country,
        t=np.tile(np.arange(1, plant.T + 1), plant.n_countries),
        start=plant.start, end=plant.start + timedelta(days=plant.T - 1),
        countries=tuple(countries))

    var_c = plant.sigma_country ** 2
    var_i = plant.sigma_idio ** 2
    truth = {"betas": beta, "sigma2_country": var_c, "sigma2_idio": var_i,
             "rho_share": var_c / (var_c + var_i) if var_c + var_i > 0
             else 0.0}
    return data, truth
