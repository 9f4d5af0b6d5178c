"""Offline parsers for archived article metadata.

Two input shapes are supported: JATS-style XML files (full-text archive
dumps) and plain-text "article cards" with ``Key: value`` lines capturing
what a per-article archive page showed (title, author list, page range,
submission history line, affiliation country).  History lines come in three
house styles:

* ``plos-like``     -- ``Received: August 7, 2006`` (month-name day, year)
* ``physica-like``  -- ``Received 9 December 2005`` (day month-name year)
* ``nature-like``   -- ``Received 2006-08-07`` (ISO numeric)

All parsers are total over arbitrary text: they return results with absent
fields instead of raising mid-document.  Only malformed XML, explicit
non-research-article subjects and received-after-accepted dates raise.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple
from xml.etree import ElementTree as ET

from .corpus import CountryProfile, RawRecord


class JatsParseError(ValueError):
    """Malformed XML.

    ``offset`` is where the failure is, in bytes from the start of the
    document as passed to ``parse_jats_article``.  The message also gives
    expat's line and column, counted after the junk before the XML
    declaration is dropped; the column counts characters.  For a
    mismatched end tag expat places the failure at the tag's name.
    """

    def __init__(self, message: str, offset: int, line: int, column: int):
        super().__init__(f"{message} (offset {offset}, line {line}, "
                         f"column {column})")
        self.offset = offset


class NotResearchArticle(ValueError):
    """The document declares a subject other than a research article."""

    def __init__(self, subject: str):
        super().__init__(f"subject is {subject!r}, not a research article")


class JatsArticle(NamedTuple):
    """What harvest reads from one JATS document.

    ``places`` are the affiliation strings to geolocate, best first and
    without repeats: each is an affiliation's country segment (the last
    comma-separated one of its address line), or the whole line when that
    segment is empty.
    """

    received: date | None
    accepted: date | None
    published: date | None
    page_count: int  # 0 encodes unavailable
    authors: int  # contrib-type="author" elements
    places: tuple[str, ...]


# -- history strings --------------------------------------------------------

HISTORY_STYLES = ("plos-like", "physica-like", "nature-like")

# keyword -> output slot; longer phrases listed first so they win the scan.
_SLOTS = {
    "plos-like": (("received", "received"), ("accepted", "revised"),
                  ("published", "online")),
    "physica-like": (("received in revised form", "revised"),
                     ("available online", "online"),
                     ("received", "received"), ("revised", "revised"),
                     ("online", "online")),
    "nature-like": (("received", "received"), ("accepted", "revised"),
                    ("published online", "online"), ("published", "online")),
}

_MONTHS = {m.lower(): i for i, m in enumerate(
    ("January", "February", "March", "April", "May", "June", "July",
     "August", "September", "October", "November", "December"), start=1)}
_MONTHS.update({m[:3].lower(): i for m, i in
                ((k.capitalize(), v) for k, v in _MONTHS.items())})
_MONTHS["sept"] = 9

_DATE_BODY = {
    # month-name day, year:  "August 7, 2006"
    "plos-like": r"(?P<m>[A-Za-z]+)\s+(?P<d>\d{1,2})\s*,?\s+(?P<y>\d{4})",
    # day month-name year:  "9 December 2005"
    "physica-like": r"(?P<d>\d{1,2})\s+(?P<m>[A-Za-z]+)\s+(?P<y>\d{4})",
    # ISO numeric:  "2006-08-07"
    "nature-like": r"(?P<y>\d{4})-(?P<m>\d{2})-(?P<d>\d{2})",
}


def _history_pattern(style: str) -> re.Pattern[str]:
    keyword_alt = "|".join(re.escape(kw).replace(r"\ ", r"\s+")
                           for kw, _ in _SLOTS[style])
    return re.compile(rf"({keyword_alt})\s*:?\s*{_DATE_BODY[style]}",
                      re.IGNORECASE)


#: the slots of a history line, in a row's order
_SLOT_NAMES = ("received", "revised", "online")

#: style -> (history line pattern, keyword -> slot index)
_HISTORY = {style: (_history_pattern(style),
                    {kw: _SLOT_NAMES.index(slot)
                     for kw, slot in _SLOTS[style]})
            for style in HISTORY_STYLES}
_SPACES = re.compile(r"\s+")


@functools.lru_cache(maxsize=4096)  # an archive has few distinct dates
def _written_ordinal(year: str, month: str, day: str) -> int:
    """The day ordinal of a history date, its month a number or a name; 0
    for an unknown month or a date that does not exist."""
    number = int(month) if month.isdigit() else _MONTHS.get(month.lower())
    if number is None:
        return 0
    try:
        return date(int(year), number, int(day)).toordinal()
    except ValueError:
        return 0


def _history_ordinals(text: str, style: str) -> list[int]:
    """The (received, revised, online) day ordinals of a history line, 0
    for an empty slot.  A malformed date leaves its slot empty, so a later
    one on the line may still fill it."""
    slots = [0, 0, 0]
    rx, slot_of = _HISTORY[style]
    for m in rx.finditer(text):
        keyword = m.group(1).lower()
        # a keyword written with single spaces needs no normalizing
        slot = slot_of.get(keyword)
        if slot is None:
            slot = slot_of[_SPACES.sub(" ", keyword)]
        if not slots[slot]:
            slots[slot] = _written_ordinal(*m.group("y", "m", "d"))
    return slots


@functools.lru_cache(maxsize=4096)  # so rows share one date per day
def _day(ordinal: int) -> date | None:
    """The date of a day ordinal; None for 0."""
    return date.fromordinal(ordinal) if ordinal else None


def extract_pages(text: str) -> tuple[int, int]:
    """(first, last) from a "Pages 197-203" fragment; (0, 0) on any failure."""
    idx = text.lower().find("pages")
    if idx < 0:
        return (0, 0)
    body = text[idx + len("pages"):].strip()
    parts = body.split("-")
    if len(parts) != 2:
        return (0, 0)
    try:
        return (int(parts[0].strip()), int(parts[1].strip()))
    except ValueError:
        return (0, 0)


# -- country normalization --------------------------------------------------

#: US state names (plus DC) that resolve to the US code.  "Georgia" is
#: deliberately absent: it names a country in the shipped table.
US_STATE_NAMES = (
    "Alabama", "Alaska", "Arizona", "Arkansas", "California", "Colorado",
    "Connecticut", "Delaware", "Florida", "Hawaii", "Idaho", "Illinois",
    "Indiana", "Iowa", "Kansas", "Kentucky", "Louisiana", "Maine",
    "Maryland", "Massachusetts", "Michigan", "Minnesota", "Mississippi",
    "Missouri", "Montana", "Nebraska", "Nevada", "New Hampshire",
    "New Jersey", "New Mexico", "New York", "North Carolina", "North Dakota",
    "Ohio", "Oklahoma", "Oregon", "Pennsylvania", "Rhode Island",
    "South Carolina", "South Dakota", "Tennessee", "Texas", "Utah",
    "Vermont", "Virginia", "Washington", "West Virginia", "Wisconsin",
    "Wyoming", "District of Columbia")


@dataclass(frozen=True, eq=False)
class NameLookup:
    """The country names ``normalize_country`` matches, casefolded once.

    ``names`` holds the (casefolded name, ISO) pairs in table order.  A
    lookup hashes and compares by identity, so ``normalize_country``'s
    cache keys on it without hashing its names, and two lookups never
    share answers.
    """

    names: tuple[tuple[str, str], ...]


def build_name_lookup(profiles: Mapping[str, CountryProfile]) -> NameLookup:
    """Casefolded display-name -> ISO lookup from country profiles.

    Adds the US state names when a US profile is present (state-qualified
    addresses often omit the country).  Rejects case-insensitive name
    collisions that point at different codes.
    """
    seen: dict[str, str] = {}  # casefolded name -> iso
    def _add(name: str, iso: str) -> None:
        key = name.casefold()
        if key in seen:
            if seen[key] != iso:
                raise ValueError(
                    f"name {name!r} maps to both {seen[key]} and {iso}")
            return
        seen[key] = iso
    for iso in sorted(profiles):
        for name in profiles[iso].names:
            _add(name, iso)
    if "US" in profiles:
        for state in US_STATE_NAMES:
            _add(state, "US")
    return NameLookup(names=tuple(seen.items()))


@functools.lru_cache(maxsize=4096)  # an archive has few distinct places
def normalize_country(country_raw: str, lookup: NameLookup) -> str | None:
    """Resolve free-text affiliation country to an ISO code.

    Containment matching: every lookup name contained (case-insensitively)
    in the input is a match; a matched name that is a substring of another
    matched name is discarded (so "Nigeria" beats "Niger", "Romania" beats
    "Oman").  Exactly one surviving code wins; none or several -> None.
    """
    if not country_raw:
        return None
    hay = country_raw.casefold()
    matched = [(name, iso) for name, iso in lookup.names if name in hay]
    survivors = {iso for name, iso in matched
                 if not any(name != other and name in other
                            for other, _ in matched)}
    return next(iter(survivors)) if len(survivors) == 1 else None


# -- JATS XML ---------------------------------------------------------------

def _repair_preamble(text: str) -> str:
    """Discard garbage bytes before the XML declaration, if any."""
    idx = text.find("<?xml")
    return text[idx:] if idx > 0 else text


_XML_LINE_BREAK = re.compile(r"\r\n?|\n")  # where expat starts a line


def _char_offset(text: str, line: int, column: int) -> int:
    """Index in ``text`` of expat's (line, column): expat starts a line
    after CR, LF or CRLF and counts its column in characters."""
    start = 0
    for m, _ in zip(_XML_LINE_BREAK.finditer(text), range(line - 1)):
        start = m.end()
    return start + column


def _byte_offset(document: bytes, chars: int) -> int:
    """Where character ``chars`` of the decoded document starts, in bytes
    of the document.  A byte run that is not UTF-8 counts as the one
    replacement character it decodes to."""
    pos = 0
    while True:
        try:
            run, bad_end = document[pos:].decode("utf-8"), None
        except UnicodeDecodeError as exc:
            run = document[pos:pos + exc.start].decode("utf-8")
            bad_end = pos + exc.end
        if bad_end is None or chars <= len(run):
            return pos + len(run[:chars].encode("utf-8"))
        chars -= len(run) + 1
        pos = bad_end


def _date_from_children(el) -> date | None:
    """The date of ``el``'s year, month and day children; None when one is
    missing (TypeError), not an integer or no day (ValueError), or beyond
    a C long (OverflowError)."""
    try:
        return date(*(int(el.findtext(tag)) for tag in ("year", "month",
                                                         "day")))
    except (TypeError, ValueError, OverflowError):
        return None


def _text(el) -> str:
    return "".join(el.itertext()).strip() if el is not None else ""


#: the elements ``parse_jats_article`` reads
_JATS_TAGS = ("subject", "date", "pub-date", "page-count", "aff", "corresp",
              "contrib")


def parse_jats_article(document: bytes) -> JatsArticle:
    """Parse one JATS-style XML document.

    ``places`` ranks the affiliations of the first corresponding author,
    then those of the first author, then every affiliation in document
    order.  Raises JatsParseError (with byte offset) on malformed XML,
    NotResearchArticle when the first subject element names anything but a
    research article (missing subject is left for corpus cleaning), and
    ValueError when the received date is after the accepted one.
    """
    decoded = document.decode("utf-8", errors="replace")
    text = _repair_preamble(decoded)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        chars = len(decoded) - len(text) + _char_offset(text, line, column)
        raise JatsParseError(str(exc), _byte_offset(document, chars),
                             line, column) from exc

    # one walk of the tree; each list keeps its tag's document order
    found: dict[str, list] = {tag: [] for tag in _JATS_TAGS}
    for el in root.iter():
        bucket = found.get(el.tag)
        if bucket is not None:
            bucket.append(el)

    if found["subject"]:
        label = _text(found["subject"][0])
        if label.lower() != "research article":
            raise NotResearchArticle(label)

    received = accepted = published = None
    for el in found["date"]:
        kind = el.get("date-type")
        if kind == "received" and received is None:
            received = _date_from_children(el)
        elif kind == "accepted" and accepted is None:
            accepted = _date_from_children(el)
    for el in found["pub-date"]:
        if el.get("pub-type") == "epub" and published is None:
            published = _date_from_children(el)

    if received is not None and accepted is not None and received > accepted:
        raise ValueError(f"received {received} after accepted {accepted}")

    page_count = 0
    if found["page-count"]:
        try:
            page_count = max(0, int(found["page-count"][0].get("count", "0")))
        except ValueError:
            page_count = 0

    every_place: list[str] = []
    place_of: dict[str, str] = {}  # aff id -> its place
    for el in found["aff"]:
        addr = _text(el.find("addr-line"))
        place = addr.rsplit(",", 1)[-1].strip() or addr
        every_place.append(place)
        aff_id = el.get("id")
        if aff_id:
            place_of[aff_id] = place

    # ids of the corresp notes that carry an email
    emailed: set[str] = set()
    for el in found["corresp"]:
        corresp_id = el.get("id")
        if corresp_id and _text(el.find("email")):
            emailed.add(corresp_id)

    # the rids of each author, and of the first corresponding one
    authors: list[list[str]] = []
    corresponding: list[str] | None = None
    for el in found["contrib"]:
        if el.get("contrib-type") != "author":
            continue
        rids = [xr.get("rid") for xr in el.iter("xref") if xr.get("rid")]
        authors.append(rids)
        # either convention marks the contact author: the corresp attribute
        # or an email reached through a corresp note
        if corresponding is None and (el.get("corresp") == "yes"
                                      or any(rid in emailed for rid in rids)):
            corresponding = rids

    ranked = (corresponding or []) + (authors[0] if authors else [])
    places = [place_of[rid] for rid in ranked if rid in place_of]
    places += every_place
    return JatsArticle(received, accepted, published, page_count,
                       len(authors), tuple(dict.fromkeys(places)))


# -- article cards ----------------------------------------------------------

#: the keys a card line may have; a block with any of them is a card
_CARD_KEYS = ("title", "authors", "pages", "history", "country")


_AUTHOR_SEPARATOR = re.compile(r"\s+(?:and|&)\s+", re.IGNORECASE)
_BLANK_LINE = re.compile(r"\n\s*\n")


def split_author_list(text: str) -> int:
    """Count author names separated by commas, "and", or ampersands."""
    return sum(1 for p in _AUTHOR_SEPARATOR.sub(",", text).split(",")
               if p.strip())


def parse_article_cards(text: str) -> list[dict[str, str]]:
    """The ``Key: value`` fields of each blank-line separated card, in
    order, keyed by the lowercased key.  Lines with another key, and
    ``#`` comments, are ignored; a block with none of the keys is no
    card."""
    cards = []
    for block in _BLANK_LINE.split(text):
        fields: dict[str, str] = {}
        for line in block.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition(":")
            key = key.strip().lower()
            if sep and key in _CARD_KEYS:
                fields[key] = value.strip()
        if fields:
            cards.append(fields)
    return cards


#: a corpus row before its id and journal: the received, revised and online
#: day ordinals (0 when absent), author count, page count and ISO code ("" when
#: unresolved).  Ints and short strings, so a row is cheap to pickle.
_Row = tuple[int, int, int, int, int, str]


def _check_style(style: str) -> None:
    if style not in HISTORY_STYLES:
        raise ValueError(f"unknown history style {style!r}")


def _card_row(fields: Mapping[str, str], style: str,
              lookup: NameLookup) -> _Row:
    received, revised, online = _history_ordinals(
        fields.get("history", ""), style)
    first, last = extract_pages(fields.get("pages", ""))
    return (received, revised, online,
            split_author_list(fields.get("authors", "")),
            last - first + 1 if 0 < first <= last else 0,
            normalize_country(fields.get("country", ""), lookup) or "")


def _jats_row(article: JatsArticle, lookup: NameLookup) -> _Row:
    # the country is the first place that resolves
    return (article.received.toordinal() if article.received else 0,
            article.accepted.toordinal() if article.accepted else 0,
            article.published.toordinal() if article.published else 0,
            article.authors, article.page_count,
            next(filter(None, (normalize_country(place, lookup)
                               for place in article.places)), ""))


def _file_rows(path: Path, style: str, lookup: NameLookup
               ) -> list[_Row] | str:
    """What harvest does to one file: its rows, or why it is skipped."""
    try:
        if path.suffix.lower() == ".xml":
            return [_jats_row(parse_jats_article(path.read_bytes()), lookup)]
        text = path.read_text(encoding="utf-8")
        return [_card_row(card, style, lookup)
                for card in parse_article_cards(text)]
    except ValueError as exc:
        return str(exc)
    except OSError as exc:
        return f"unreadable: {exc.strerror or exc}"


def _record(row: _Row, article_id: int, journal: str) -> RawRecord:
    received, revised, online, authors, pages, country = row
    return RawRecord(article_id, journal, _day(received), _day(revised),
                     _day(online), authors, pages, country)


# perfbench's tracer wraps parse_article_cards, card_to_raw_record and
# jats_to_raw_record; the pipeline never calls the last two.
def card_to_raw_record(card: Mapping[str, str], article_id: int,
                       journal: str, style: str, lookup: NameLookup
                       ) -> RawRecord:
    """Corpus row from a card's fields; unresolvable fields become
    blanks/zeros.  An unknown ``style`` raises ``ValueError``."""
    _check_style(style)
    return _record(_card_row(card, style, lookup), article_id, journal)


def jats_to_raw_record(article: JatsArticle, article_id: int,
                       journal: str, lookup: NameLookup) -> RawRecord:
    return _record(_jats_row(article, lookup), article_id, journal)


# -- the harvest ------------------------------------------------------------

def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


#: a pool worker's ``_file_rows`` task, set as the worker starts; never set
#: in the calling process
_worker_task: functools.partial | None = None


def _start_worker(task: functools.partial) -> None:
    global _worker_task
    _worker_task = task


def _in_worker(path: Path) -> list[_Row] | str:
    return _worker_task(path)


@contextlib.contextmanager
def _each_file(task: functools.partial, paths: list[Path]
               ) -> Iterator[Iterator[list[_Row] | str]]:
    """``task`` of each path, in path order.

    The files are spread over a pool of forked processes, one per usable
    CPU; they inherit ``task`` and this process's caches as the pool
    starts.  Forked, not spawned: a spawned worker would import dwe, numpy
    and scipy again, which takes more than half as long as the whole stage
    on two CPUs.
    With one CPU, one file, or no ``fork`` on this platform the files are
    done in this process.  The pool's processes have ended when the block
    exits, also when it exits by an exception.
    """
    workers = min(_usable_cpus(), len(paths))
    if workers <= 1 or not hasattr(os, "fork"):
        yield map(task, paths)
        return
    # imported here, so that commands that never harvest do not load them:
    # they add 12 modules and about 0.6 MB to every process
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(task,))
    try:
        # several chunks per worker, so the last ones balance the load
        yield pool.map(_in_worker, paths,
                       chunksize=-(-len(paths) // (8 * workers)))
    finally:
        pool.shutdown(cancel_futures=True)


def harvest_directory(directory: str, style: str, journal: str,
                      lookup: NameLookup, first_id: int = 1
                      ) -> tuple[list[RawRecord], list[tuple[str, str]]]:
    """Parse every file under ``directory`` into corpus rows.

    ``*.xml`` files go through the JATS parser; everything else is read as
    article-card text.  Files are visited in sorted name order and ids are
    assigned sequentially from ``first_id``, so a rerun over the same tree
    is identical, whatever the number of CPUs the files are spread over.
    Returns (rows, skipped) where skipped pairs each failed file with the
    reason: a parse error, a file that is not UTF-8, or one that cannot be
    read.  An unknown ``style``, or a ``directory`` that is not a
    directory, raises before any file is read.
    """
    _check_style(style)
    if not Path(directory).is_dir():
        raise ValueError(f"{directory}: not a directory")
    task = functools.partial(_file_rows, style=style, lookup=lookup)
    rows: list[RawRecord] = []
    skipped: list[tuple[str, str]] = []
    paths = sorted(p for p in Path(directory).rglob("*") if p.is_file())
    with _each_file(task, paths) as results:
        for path, result in zip(paths, results):
            if isinstance(result, str):
                skipped.append((str(path.relative_to(directory)), result))
                continue
            for row in result:
                rows.append(_record(row, first_id + len(rows), journal))
    return rows, skipped
