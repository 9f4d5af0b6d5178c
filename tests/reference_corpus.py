"""Oracle for the columnar clean.

This is the clean as it was before the features became columns.  Every
kept row gets its own ``DerivedFeatures`` from ``derive_features``, which
applies each calendar rule, the weekend rule and each logarithm to that
one article, and ``gather_columns`` gathers the (row, features) pairs one
value at a time into ``FeatureColumns`` in article-id order.
``raw_rows`` draws corpus rows for the property tests that compare with
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from dwe.corpus import (CONTINENTS, DROP_REASONS, SEASONS, Corpus,
                        CountryProfile, FeatureColumns, RawRecord,
                        classify_weekend, derive_season, derive_week_number,
                        derive_weekday, in_christmas_window)


@dataclass(frozen=True)
class DerivedFeatures:
    """Calendar and covariate features derived from a row + its country."""

    weekday: int
    week_number: int
    year: int
    season: str
    is_weekend: bool
    is_christmas: bool
    continent: str
    log10_authors: float
    log10_hdi: float
    log10_lto: float | None


def derive_features(row: RawRecord,
                    profile: CountryProfile) -> DerivedFeatures:
    """All derived features of ``row`` under ``profile``'s calendar rules.

    LTO of exactly 0 has no logarithm and is recorded as absent.
    """
    d = row.received
    lto = profile.lto
    return DerivedFeatures(
        weekday=derive_weekday(d),
        week_number=derive_week_number(d),
        year=d.year,
        season=derive_season(d),
        is_weekend=classify_weekend(d, profile),
        is_christmas=in_christmas_window(d),
        continent=profile.continent,
        log10_authors=math.log10(row.author_count),
        log10_hdi=math.log10(profile.hdi),
        log10_lto=math.log10(lto) if lto else None)


Pair = tuple[RawRecord, DerivedFeatures]


def reference_clean(rows: Iterable[RawRecord],
                    countries: Mapping[str, CountryProfile]
                    ) -> tuple[list[Pair], dict[str, int]]:
    """The kept rows with their features, in article-id order, and the
    drop counts; the same drops and errors as ``clean_corpus``."""
    seen: set[int] = set()
    dropped = {reason: 0 for reason in DROP_REASONS}
    kept: list[Pair] = []
    for row in rows:
        if row.id in seen:
            raise ValueError(f"duplicate article id {row.id}")
        seen.add(row.id)
        if row.received is None:
            dropped["no-reception-date"] += 1
            continue
        if not row.country or row.country not in countries:
            dropped["unclear-country"] += 1
            continue
        if row.author_count < 1:
            dropped["no-authors"] += 1
            continue
        if not row.journal:
            raise ValueError(f"record {row.id}: empty journal id")
        if row.page_count < 0:
            raise ValueError(f"record {row.id}: negative page_count")
        kept.append((row, derive_features(row, countries[row.country])))
    kept.sort(key=lambda pair: pair[0].id)
    return kept, dropped


def gather_columns(pairs: Sequence[Pair]) -> FeatureColumns:
    """Gather the pairs' features into columns, in article-id order."""
    pairs = sorted(pairs, key=lambda pair: pair[0].id)
    rows = [row for row, _ in pairs]
    feats = [f for _, f in pairs]
    n = len(pairs)
    journals = tuple(sorted({r.journal for r in rows}))
    journal_code = {name: k for k, name in enumerate(journals)}
    countries = tuple(sorted({r.country for r in rows}))
    country_code = {iso: k for k, iso in enumerate(countries)}
    season_code = {name: k for k, name in enumerate(SEASONS)}
    continent_code = {name: k for k, name in enumerate(CONTINENTS)}

    def column(values, dtype) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=n)

    return FeatureColumns(
        article_id=column((r.id for r in rows), np.int64),
        journals=journals,
        journal=column((journal_code[r.journal] for r in rows), np.int64),
        countries=countries,
        country=column((country_code[r.country] for r in rows), np.int64),
        received=column((r.received.toordinal() for r in rows), np.int64),
        year=column((f.year for f in feats), np.int64),
        week_number=column((f.week_number for f in feats), np.int64),
        weekday=column((f.weekday for f in feats), np.int64),
        season=column((season_code[f.season] for f in feats), np.int64),
        continent=column((continent_code[f.continent] for f in feats),
                         np.int64),
        is_weekend=column((f.is_weekend for f in feats), bool),
        is_christmas=column((f.is_christmas for f in feats), bool),
        log10_authors=column((f.log10_authors for f in feats), float),
        log10_hdi=column((f.log10_hdi for f in feats), float),
        log10_lto=column((math.nan if f.log10_lto is None else f.log10_lto
                          for f in feats), float))


def corpus_of(pairs: Sequence[Pair],
              cleaning_report: Mapping[str, int] | None = None) -> Corpus:
    """A Corpus whose columns are the row-wise gather of ``pairs``."""
    return Corpus(
        records=tuple(sorted((row for row, _ in pairs), key=lambda r: r.id)),
        columns=gather_columns(pairs),
        cleaning_report=dict(cleaning_report or {}))


#: SA across its 2013-06-29 weekend switch, the Christmas window's edges,
#: the week-54 day 2000-12-31 and leap days.
EDGE_DATES = (date(2013, 6, 27), date(2013, 6, 28), date(2013, 6, 29),
              date(2013, 6, 30), date(2012, 12, 19), date(2012, 12, 20),
              date(2013, 1, 10), date(2013, 1, 11), date(2000, 12, 31),
              date(2000, 2, 29), date(2012, 2, 29), date(2016, 2, 29))

#: SA switches weekend, NP has a one-day weekend, KW has no LTO; "" and
#: "ZZ" are dropped as unclear.
ROW_COUNTRIES = ("SA", "NP", "KW", "US", "DE", "", "ZZ")

_dates = st.one_of(st.sampled_from(EDGE_DATES),
                   st.dates(date(1999, 1, 1), date(2021, 12, 31)))


@st.composite
def raw_rows(draw, max_size: int = 40, min_size: int = 0
             ) -> list[RawRecord]:
    """Rows with distinct ids in any order, some of them dropped for each
    reason (no received date, unclear country, no authors)."""
    ids = draw(st.lists(st.integers(1, 10**6), unique=True,
                        min_size=min_size, max_size=max_size))
    return [RawRecord(
        id=article_id,
        journal=draw(st.sampled_from(("cell", "nature", "plos one"))),
        received=draw(st.one_of(_dates, _dates, _dates, st.none())),
        revised=None, online=None,
        author_count=draw(st.integers(0, 30)),
        page_count=draw(st.integers(0, 80)),
        country=draw(st.sampled_from(ROW_COUNTRIES))) for article_id in ids]
