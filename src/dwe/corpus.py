"""Canonical article data model, calendar feature derivation, and corpus IO.

Conventions used throughout the package:

* weekday codes are ISO-style integers, Monday=1 .. Sunday=7;
* week numbers restart each year, weeks run Sunday..Saturday, and week 1 is
  the (possibly partial) week containing January 1 -- so the maximum week
  number is 54 (leap year starting on a Saturday);
* seasons are meteorological quarters (Mar-May spring, Jun-Aug summer,
  Sep-Nov fall, Dec-Feb winter);
* the Christmas window is Dec 20 .. Jan 10 inclusive;
* weekend membership is country-specific and may change over time
  (default Sat+Sun, Fri+Sat for a block of mostly Middle-East countries).
"""

from __future__ import annotations

import csv
import math
import shlex
from dataclasses import dataclass, field, replace
from datetime import date
from importlib import resources
from typing import Iterable, Mapping

MONDAY, TUESDAY, WEDNESDAY, THURSDAY, FRIDAY, SATURDAY, SUNDAY = range(1, 8)

CONTINENTS = ("europe", "america", "africa", "asia", "oceania")
SEASONS = ("spring", "summer", "fall", "winter")

DEFAULT_WEEKEND = frozenset({SATURDAY, SUNDAY})
FRI_SAT_WEEKEND = frozenset({FRIDAY, SATURDAY})

#: column order of the corpus CSV format; fixed, a different header is rejected.
CSV_COLUMNS = ("id", "journal", "received", "revised", "online",
               "author_count", "page_count", "country")

_SEASON_BY_MONTH = {
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "fall", 10: "fall", 11: "fall",
    12: "winter", 1: "winter", 2: "winter",
}


def derive_weekday(d: date) -> int:
    """Weekday code of ``d``, Monday=1 .. Sunday=7."""
    return d.isoweekday()


def derive_week_number(d: date) -> int:
    """Week-of-year with Sunday-started weeks, week 1 containing January 1.

    week = floor((doy - 1 + offset)/7) + 1 where offset is the weekday of
    January 1 counted with Sunday=0.
    """
    offset = date(d.year, 1, 1).isoweekday() % 7
    doy = d.timetuple().tm_yday
    return (doy - 1 + offset) // 7 + 1


def derive_season(d: date) -> str:
    """Meteorological season name for ``d``."""
    return _SEASON_BY_MONTH[d.month]


def in_christmas_window(d: date) -> bool:
    """True inside the Dec 20 .. Jan 10 year-end window (inclusive)."""
    return (d.month == 12 and d.day >= 20) or (d.month == 1 and d.day <= 10)


@dataclass(frozen=True)
class CountryProfile:
    """Static per-country attributes plus the dated weekend schedule.

    ``weekend_schedule`` is a tuple of ``(effective_from, frozenset_of_days)``
    entries in strictly increasing date order; a lookup takes the latest entry
    whose date is <= the query date.  The first entry always covers
    ``date.min`` so every query date resolves.  ``lto`` is the long-term
    orientation index (0..100) and may be absent.
    """

    iso: str
    continent: str
    hdi: float
    lto: float | None = None
    weekend_schedule: tuple[tuple[date, frozenset[int]], ...] = (
        (date.min, DEFAULT_WEEKEND),
    )
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.iso:
            raise ValueError("empty ISO code")
        if self.continent not in CONTINENTS:
            raise ValueError(f"unknown continent {self.continent!r}")
        if not 0.0 < self.hdi <= 1.0:
            raise ValueError(f"HDI out of (0, 1]: {self.hdi}")
        if self.lto is not None and not 0.0 <= self.lto <= 100.0:
            raise ValueError(f"LTO out of [0, 100]: {self.lto}")
        if not self.weekend_schedule or self.weekend_schedule[0][0] != date.min:
            raise ValueError("weekend schedule must start at date.min")
        for (a, days_a), (b, _) in zip(self.weekend_schedule,
                                       self.weekend_schedule[1:]):
            if b <= a:
                raise ValueError("weekend schedule dates must increase")
        for _, days in self.weekend_schedule:
            if not days or not all(1 <= wd <= 7 for wd in days):
                raise ValueError("weekend day codes must be within 1..7")

    def weekend_days(self, d: date) -> frozenset[int]:
        """Weekend-day codes in force on date ``d``."""
        days = self.weekend_schedule[0][1]
        for start, sched in self.weekend_schedule:
            if start <= d:
                days = sched
            else:
                break
        return days


def make_profile(iso: str, continent: str, hdi: float, lto: float | None = None,
                 schedule: Iterable[tuple[date, Iterable[int]]] = (),
                 names: Iterable[str] = ()) -> CountryProfile:
    """Build a profile, prepending the implicit Sat+Sun base schedule entry."""
    entries: list[tuple[date, frozenset[int]]] = [(date.min, DEFAULT_WEEKEND)]
    for start, days in schedule:
        if start == date.min:
            entries[0] = (date.min, frozenset(days))
        else:
            entries.append((start, frozenset(days)))
    entries.sort(key=lambda e: e[0])
    return CountryProfile(iso=iso, continent=continent, hdi=hdi, lto=lto,
                          weekend_schedule=tuple(entries),
                          names=tuple(names))


def classify_weekend(d: date, profile: CountryProfile) -> bool:
    """True when ``d`` falls on a weekend day for the profile's country."""
    return derive_weekday(d) in profile.weekend_days(d)


@dataclass(frozen=True)
class RawRecord:
    """One corpus CSV row before cleaning; optional fields may be missing."""

    id: int
    journal: str
    received: date | None
    revised: date | None
    online: date | None
    author_count: int
    page_count: int
    country: str  # ISO code, or "" when unresolved


@dataclass(frozen=True)
class ArticleRecord:
    """One cleaned article; all invariants enforced."""

    id: int
    journal: str
    received: date
    revised: date | None
    online: date | None
    author_count: int
    page_count: int
    country: str

    def __post_init__(self) -> None:
        if not self.journal:
            raise ValueError(f"record {self.id}: empty journal id")
        if self.author_count < 1:
            raise ValueError(f"record {self.id}: author_count < 1")
        if self.page_count < 0:
            raise ValueError(f"record {self.id}: negative page_count")
        if not self.country:
            raise ValueError(f"record {self.id}: empty country")


@dataclass(frozen=True)
class DerivedFeatures:
    """Calendar and covariate features derived from a record + its country."""

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


def derive_features(record: ArticleRecord,
                    profile: CountryProfile) -> DerivedFeatures:
    """All derived features of ``record`` under ``profile``'s calendar rules.

    LTO of exactly 0 has no logarithm and is recorded as absent.
    """
    d = record.received
    lto = profile.lto
    log_lto = math.log10(lto) if lto else None
    return DerivedFeatures(
        weekday=derive_weekday(d),
        week_number=derive_week_number(d),
        year=d.year,
        season=derive_season(d),
        is_weekend=classify_weekend(d, profile),
        is_christmas=in_christmas_window(d),
        continent=profile.continent,
        log10_authors=math.log10(record.author_count),
        log10_hdi=math.log10(profile.hdi),
        log10_lto=log_lto,
    )


@dataclass(frozen=True)
class CorpusRecord:
    article: ArticleRecord
    features: DerivedFeatures


@dataclass(frozen=True)
class Corpus:
    """Cleaned records with their features, the country table, and the
    counts of rows dropped during cleaning keyed by reason."""

    records: tuple[CorpusRecord, ...]
    countries: Mapping[str, CountryProfile]
    cleaning_report: Mapping[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def journals(self) -> tuple[str, ...]:
        return tuple(sorted({r.article.journal for r in self.records}))


#: cleaning drop reasons, in report order.
DROP_REASONS = ("no-reception-date", "unclear-country", "no-authors")


def clean_corpus(rows: Iterable[RawRecord],
                 countries: Mapping[str, CountryProfile]) -> Corpus:
    """Validate raw rows into a Corpus.

    Drops (counted per reason): rows without a received date, rows whose
    country is empty or not in the table, rows with no authors.  A duplicate
    article id is a hard error, never a silent drop.  Output order is sorted
    by article id.
    """
    seen: set[int] = set()
    dropped = {reason: 0 for reason in DROP_REASONS}
    kept: list[CorpusRecord] = []
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
        article = ArticleRecord(
            id=row.id, journal=row.journal, received=row.received,
            revised=row.revised, online=row.online,
            author_count=row.author_count, page_count=row.page_count,
            country=row.country)
        kept.append(CorpusRecord(
            article=article,
            features=derive_features(article, countries[row.country])))
    kept.sort(key=lambda r: r.article.id)
    return Corpus(records=tuple(kept), countries=dict(countries),
                  cleaning_report=dropped)


def raw_from_article(a: ArticleRecord) -> RawRecord:
    """Project a cleaned article back to its raw-row form."""
    return RawRecord(id=a.id, journal=a.journal, received=a.received,
                     revised=a.revised, online=a.online,
                     author_count=a.author_count, page_count=a.page_count,
                     country=a.country)


def _fmt_date(d: date | None) -> str:
    return d.isoformat() if d is not None else ""


def _parse_date(text: str) -> date | None:
    return date.fromisoformat(text) if text else None


def write_corpus_csv(rows: Iterable[RawRecord], path: str) -> None:
    """Write rows in the fixed corpus CSV format (ISO dates, blank optionals)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow([r.id, r.journal, _fmt_date(r.received),
                        _fmt_date(r.revised), _fmt_date(r.online),
                        r.author_count, r.page_count, r.country])


def read_corpus_csv(path: str) -> list[RawRecord]:
    """Read a corpus CSV; rejects a header that is not exactly CSV_COLUMNS."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: bad corpus header {header!r}")
        rows = []
        for line in reader:
            if not line:
                continue
            rows.append(RawRecord(
                id=int(line[0]), journal=line[1],
                received=_parse_date(line[2]), revised=_parse_date(line[3]),
                online=_parse_date(line[4]), author_count=int(line[5]),
                page_count=int(line[6]), country=line[7]))
    return rows


# -- countries.cfg ----------------------------------------------------------
#
# One country per line, shell-style key=value tokens:
#
#   iso=SA continent=asia hdi=0.847 lto=36 name="Saudi Arabia" \
#       from=1900-01-01 days=4,5 from=2013-06-29 days=5,6
#
# lto= may be omitted.  name= is repeatable (lookup aliases).  Schedule
# entries are from=/days= token pairs in chronological order; days are
# weekday codes (Monday=1).  Lines starting with # and blank lines ignored.

def parse_countries_cfg(text: str) -> dict[str, CountryProfile]:
    profiles: dict[str, CountryProfile] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields: dict[str, str] = {}
        names: list[str] = []
        schedule: list[tuple[date, frozenset[int]]] = []
        pending_from: date | None = None
        try:
            for token in shlex.split(line):
                key, _, value = token.partition("=")
                if not value and "=" not in token:
                    raise ValueError(f"bare token {token!r}")
                if key == "name":
                    names.append(value)
                elif key == "from":
                    if pending_from is not None:
                        raise ValueError("from= without matching days=")
                    pending_from = date.fromisoformat(value)
                elif key == "days":
                    if pending_from is None:
                        raise ValueError("days= without preceding from=")
                    days = frozenset(int(p) for p in value.split(","))
                    schedule.append((pending_from, days))
                    pending_from = None
                elif key in ("iso", "continent", "hdi", "lto"):
                    fields[key] = value
                else:
                    raise ValueError(f"unknown key {key!r}")
            if pending_from is not None:
                raise ValueError("from= without matching days=")
            iso = fields["iso"].upper()
            lto = float(fields["lto"]) if fields.get("lto") else None
            profile = make_profile(
                iso, fields["continent"], float(fields["hdi"]), lto,
                schedule=schedule, names=names)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"countries.cfg line {lineno}: {exc}") from exc
        if iso in profiles:
            raise ValueError(f"countries.cfg line {lineno}: duplicate {iso}")
        profiles[iso] = profile
    return profiles


def read_countries_cfg(path: str) -> dict[str, CountryProfile]:
    with open(path, encoding="utf-8") as fh:
        return parse_countries_cfg(fh.read())


def write_countries_cfg(profiles: Mapping[str, CountryProfile],
                        path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for iso in sorted(profiles):
            p = profiles[iso]
            parts = [f"iso={p.iso}", f"continent={p.continent}",
                     f"hdi={p.hdi:g}"]
            if p.lto is not None:
                parts.append(f"lto={p.lto:g}")
            for n in p.names:
                parts.append(f'name="{n}"')
            for start, days in p.weekend_schedule:
                if start == date.min and days == DEFAULT_WEEKEND:
                    continue  # implicit base entry
                parts.append(f"from={start.isoformat()}")
                parts.append("days=" + ",".join(str(d) for d in sorted(days)))
            fh.write(" ".join(parts) + "\n")


def load_default_countries() -> dict[str, CountryProfile]:
    """The country table shipped with the package (editable starter data)."""
    text = resources.files("dwe.data").joinpath("countries.cfg") \
        .read_text(encoding="utf-8")
    return parse_countries_cfg(text)
