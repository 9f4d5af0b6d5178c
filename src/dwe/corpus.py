"""Corpus rows, calendar rules, the cleaned corpus's feature columns, and IO.

A corpus is a list of ``RawRecord`` rows, one per article.
``clean_corpus`` drops the unusable rows and derives the features of the
rest once, as numpy columns (``FeatureColumns``).  The scalar calendar
rules below are the only implementation of each rule; the columns apply
them once per distinct received day.

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

import contextlib
import csv
import functools
import math
import operator
import re
import shlex
from dataclasses import dataclass
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

CONTINENTS = ("europe", "america", "africa", "asia", "oceania")
SEASONS = ("spring", "summer", "fall", "winter")

#: Sat+Sun, in force before a country's first dated schedule entry
DEFAULT_WEEKEND = frozenset({6, 7})

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")  # as date.isoformat

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
    whose date is <= the query date, and ``DEFAULT_WEEKEND`` before the
    first.  ``lto`` is the long-term orientation index (0..100) and may be
    absent.
    """

    iso: str
    continent: str
    hdi: float
    lto: float | None = None
    weekend_schedule: tuple[tuple[date, frozenset[int]], ...] = ()
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
        for (a, days_a), (b, _) in zip(self.weekend_schedule,
                                       self.weekend_schedule[1:]):
            if b <= a:
                raise ValueError("weekend schedule dates must increase")
        for _, days in self.weekend_schedule:
            if not days or not all(1 <= wd <= 7 for wd in days):
                raise ValueError("weekend day codes must be within 1..7")

    def weekend_days(self, d: date) -> frozenset[int]:
        """Weekend-day codes in force on date ``d``."""
        days = DEFAULT_WEEKEND
        for start, sched in self.weekend_schedule:
            if start <= d:
                days = sched
            else:
                break
        return days


def classify_weekend(d: date, profile: CountryProfile) -> bool:
    """True when ``d`` falls on a weekend day for the profile's country."""
    return derive_weekday(d) in profile.weekend_days(d)


class RawRecord(NamedTuple):
    """One corpus CSV row; optional fields may be missing."""

    id: int
    journal: str
    received: date | None
    revised: date | None
    online: date | None
    author_count: int
    page_count: int
    country: str  # ISO code, or "" when unresolved


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """The derived features of the kept articles as numpy columns.

    Row i describes the i-th article in article-id order.  Categories are
    coded: ``journal`` indexes ``journals`` and ``country`` indexes
    ``countries`` (both sorted), ``season`` indexes SEASONS and
    ``continent`` CONTINENTS.  ``received`` holds day ordinals
    (``date.toordinal``).  The log covariates are ``math.log10`` values,
    NaN where the LTO is absent.
    """

    article_id: np.ndarray
    journals: tuple[str, ...]
    journal: np.ndarray
    countries: tuple[str, ...]
    country: np.ndarray
    received: np.ndarray
    year: np.ndarray
    week_number: np.ndarray
    weekday: np.ndarray
    season: np.ndarray
    continent: np.ndarray
    is_weekend: np.ndarray
    is_christmas: np.ndarray
    log10_authors: np.ndarray
    log10_hdi: np.ndarray
    log10_lto: np.ndarray

    def __len__(self) -> int:
        return self.article_id.size


def _derive_columns(rows: Sequence[RawRecord],
                    countries: Mapping[str, CountryProfile]
                    ) -> FeatureColumns:
    """Features of cleaned rows given in article-id order: each calendar
    rule runs once per distinct day, the weekend rule once per distinct
    (country, day) and each log once per distinct value, and ``np.unique``'s
    inverse maps them to the articles.  An LTO of 0 has no log (NaN)."""
    n = len(rows)

    def column(values, dtype=np.int64) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=n)

    def integers(field: str) -> np.ndarray:
        # a value beyond int64 is an error naming the first record with one
        try:
            return column(map(operator.attrgetter(field), rows))
        except OverflowError as exc:
            row = next(r for r in rows
                       if not -2**63 <= getattr(r, field) < 2**63)
            raise ValueError(
                f"record {row.id}: {field} outside the 64-bit range") from exc

    def coded(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
        labels = tuple(sorted(set(values)))
        code = {label: k for k, label in enumerate(labels)}
        return labels, column(map(code.__getitem__, values))

    def table(rule, keys, dtype=np.int64) -> np.ndarray:
        return np.fromiter(map(rule, keys), dtype=dtype, count=len(keys))

    journals, journal = coded([r.journal for r in rows])
    isos, country = coded([r.country for r in rows])
    received = column(r.received.toordinal() for r in rows)
    ordinals, day = np.unique(received, return_inverse=True)
    days = [date.fromordinal(o) for o in ordinals.tolist()]
    profiles = [countries[iso] for iso in isos]
    pairs, pair = np.unique(country * len(days) + day, return_inverse=True)
    authors, author = np.unique(integers("author_count"),
                                return_inverse=True)
    return FeatureColumns(
        article_id=integers("id"),
        journals=journals, journal=journal,
        countries=isos, country=country,
        received=received,
        year=table(lambda d: d.year, days)[day],
        week_number=table(derive_week_number, days)[day],
        weekday=table(derive_weekday, days)[day],
        season=table(lambda d: SEASONS.index(derive_season(d)), days)[day],
        continent=table(lambda p: CONTINENTS.index(p.continent),
                        profiles)[country],
        is_weekend=table(lambda k: classify_weekend(
            days[k % len(days)], profiles[k // len(days)]),
            pairs.tolist(), bool)[pair],
        is_christmas=table(in_christmas_window, days, bool)[day],
        log10_authors=table(math.log10, authors.tolist(), float)[author],
        log10_hdi=table(lambda p: math.log10(p.hdi), profiles,
                        float)[country],
        log10_lto=table(lambda p: math.log10(p.lto) if p.lto else math.nan,
                        profiles, float)[country])


@dataclass(frozen=True)
class Corpus:
    """The kept rows in article-id order, their features as columns, and
    the counts of rows dropped during cleaning keyed by reason."""

    records: tuple[RawRecord, ...]
    columns: FeatureColumns
    cleaning_report: Mapping[str, int]


#: cleaning drop reasons, in report order.
DROP_REASONS = ("no-reception-date", "unclear-country", "no-authors")


def clean_corpus(rows: Iterable[RawRecord],
                 countries: Mapping[str, CountryProfile]) -> Corpus:
    """Validate raw rows into a Corpus.

    Drops (counted per reason): rows without a received date, rows whose
    country is empty or not in the table, rows with no authors.  A
    duplicate article id, and a kept row with an empty journal id, a
    negative page count or an id or author count outside int64, are hard
    errors, never silent drops.  The kept rows are sorted by article id.
    """
    seen: set[int] = set()
    dropped = {reason: 0 for reason in DROP_REASONS}
    kept: list[RawRecord] = []
    for row in rows:
        if row.id in seen:
            raise ValueError(f"duplicate article id {row.id}")
        seen.add(row.id)
        if row.received is None:
            dropped["no-reception-date"] += 1
        elif not row.country or row.country not in countries:
            dropped["unclear-country"] += 1
        elif row.author_count < 1:
            dropped["no-authors"] += 1
        elif not row.journal:
            raise ValueError(f"record {row.id}: empty journal id")
        elif row.page_count < 0:
            raise ValueError(f"record {row.id}: negative page_count")
        else:
            kept.append(row)
    kept.sort(key=lambda r: r.id)
    return Corpus(records=tuple(kept),
                  columns=_derive_columns(kept, countries),
                  cleaning_report=dropped)


@functools.lru_cache(maxsize=4096)  # a corpus has few distinct dates
def _fmt_date(d: date | None) -> str:
    return d.isoformat() if d is not None else ""


def parse_date(text: str) -> date:
    """A date written as ``date.isoformat`` writes it: ASCII ``YYYY-MM-DD``.
    The shape is checked first, so every Python reads the same dates."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def parse_int(text: str) -> int:
    """An integer as ``str`` writes it: no spaces, underscores, plus sign,
    leading zeros or digits other than ASCII ones."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not a canonical integer: {text!r}")
    return value


@functools.lru_cache(maxsize=4096)
def _parse_optional_date(text: str) -> date | None:
    return parse_date(text) if text else None


_parse_count = functools.lru_cache(maxsize=4096)(parse_int)


def write_table(path: str, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV in the csv module's default
    dialect: CRLF row ends, a field quoted only when it holds a comma,
    quote or line end.  A float is written as its ``repr``, which reads
    back to the same float, and None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_corpus_csv(rows: Iterable[RawRecord], path: str) -> None:
    """Write rows in the fixed corpus CSV format (ISO dates, blank optionals)."""
    write_table(path, CSV_COLUMNS, (
        (r.id, r.journal, _fmt_date(r.received), _fmt_date(r.revised),
         _fmt_date(r.online), r.author_count, r.page_count, r.country)
        for r in rows))


def read_corpus_csv(path: str) -> list[RawRecord]:
    """Read a corpus CSV whose header is exactly ``CSV_COLUMNS``; numbers
    and dates must be written as ``write_corpus_csv`` writes them.  A bad
    header, a line the csv module cannot split, or a row with the wrong
    number of fields or a bad value raises a ValueError naming the file
    (and line).  A leading UTF-8 byte-order mark is skipped."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # one handler for every line, not a `located` block per row; a
        # bad header reads no row, and its error below names no line
        try:
            header = next(reader, None)
            known = header is not None and tuple(header) == CSV_COLUMNS
            for line in reader if known else ():
                if not line:
                    continue
                if len(line) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} "
                                     f"fields, got {len(line)}")
                rows.append(RawRecord(
                    parse_int(line[0]), line[1],
                    *map(_parse_optional_date, line[2:5]),
                    *map(_parse_count, line[5:7]), line[7]))
        except UnicodeDecodeError as exc:  # a ValueError, so caught first
            raise not_utf8(path) from exc
        except (ValueError, csv.Error) as exc:  # csv.Error: a field too long
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    if not known:
        raise ValueError(f"{path}: bad corpus header {header!r}")
    return rows


def read_text(path: str) -> str:
    """A UTF-8 text file with text-mode line ends; a byte that is not UTF-8
    fails naming its line as ``content_lines`` numbers it."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(
            f"{path} line {line}: not UTF-8 ({exc.reason})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def not_utf8(path: str) -> ValueError:
    """The error for a file that is not UTF-8, naming the line of its
    first bad byte; only this error path reads the bytes again."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        return ValueError(f"{path}: not UTF-8")  # changed since the read
    except UnicodeDecodeError as exc:
        # bytes.splitlines ends lines at \n, \r and \r\n, as csv.reader does
        line = len((data[:exc.start] + b"x").splitlines())
        return ValueError(f"{path} line {line}: not UTF-8 ({exc.reason})")


@contextlib.contextmanager
def located(where: str, *kinds: type[Exception]) -> Iterator[None]:
    """Prefix a ValueError, or one of ``kinds``, raised in the block with
    ``where``, the place of the input at fault: ``<file> line N``, a
    key's name or ``scope=<name>``."""
    try:
        yield
    except (ValueError, *kinds) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a config text that is
    neither blank nor a ``#`` comment; lines end as ``str.splitlines``
    ends them."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# -- countries.cfg ----------------------------------------------------------
#
# One country per line, shell-style key=value tokens:
#
#   iso=SA continent=asia hdi=0.847 lto=36 name="Saudi Arabia" \
#       from=1900-01-01 days=4,5 from=2013-06-29 days=5,6
#
# lto= may be omitted.  name= is repeatable (lookup aliases).  Schedule
# entries are from=/days= token pairs in chronological order; days are
# weekday codes (Monday=1).  Sat+Sun applies before a country's first
# from=.  Lines starting with # and blank lines ignored.

def parse_countries_cfg(text: str, name: str) -> dict[str, CountryProfile]:
    """The country table in ``text``; an error names ``name`` and the line."""
    profiles: dict[str, CountryProfile] = {}
    for lineno, line in content_lines(text):
        fields: dict[str, str] = {}
        names: list[str] = []
        schedule: list[tuple[date, frozenset[int]]] = []
        pending_from: date | None = None
        with located(f"{name} line {lineno}", KeyError):
            for token in shlex.split(line):
                key, _, value = token.partition("=")
                if not value and "=" not in token:
                    raise ValueError(f"bare token {token!r}")
                if key == "name":
                    names.append(value)
                elif key == "from":
                    if pending_from is not None:
                        raise ValueError("from= without matching days=")
                    pending_from = parse_date(value)
                elif key == "days":
                    if pending_from is None:
                        raise ValueError("days= without preceding from=")
                    days = frozenset(map(parse_int, value.split(",")))
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
            profile = CountryProfile(
                iso=iso, continent=fields["continent"],
                hdi=float(fields["hdi"]), lto=lto,
                weekend_schedule=tuple(schedule), names=tuple(names))
            if iso in profiles:
                raise ValueError(f"duplicate {iso}")
        profiles[iso] = profile
    return profiles


def read_countries_cfg(path: str) -> dict[str, CountryProfile]:
    """A country table file; an error names the file and line."""
    return parse_countries_cfg(read_text(path), path)


def load_default_countries() -> dict[str, CountryProfile]:
    """The country table shipped with the package (editable starter data)."""
    text = resources.files("dwe.data").joinpath("countries.cfg") \
        .read_text(encoding="utf-8")
    return parse_countries_cfg(text, "countries.cfg")
