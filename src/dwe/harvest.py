"""Offline parsers for archived article metadata.

Two input shapes are supported: JATS-style XML files (full-text archive
dumps) and plain-text "article cards" with ``Key: value`` lines capturing
what a per-article archive page showed (title, author list, page range,
submission history line, affiliation country).  History lines come in three
house styles:

* ``plos-like``     -- ``Received: August 7, 2006`` (month-name day, year)
* ``physica-like``  -- ``Received 9 December 2005`` (day month-name year)
* ``nature-like``   -- ``Received 2006-08-07`` (ISO numeric)

All parsers are total over arbitrary text: they return typed results with
absent fields or per-field error notes instead of raising mid-document.
Only malformed XML and explicit non-research-article subjects raise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping
from xml.etree import ElementTree as ET

from .corpus import CountryProfile, RawRecord


class JatsParseError(ValueError):
    """Malformed XML; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int, line: int, column: int):
        super().__init__(f"{message} (offset {offset}, line {line}, "
                         f"column {column})")
        self.offset = offset
        self.line = line
        self.column = column


class NotResearchArticle(ValueError):
    """The document declares a subject other than a research article."""

    def __init__(self, subject: str):
        super().__init__(f"subject is {subject!r}, not a research article")
        self.subject = subject


@dataclass(frozen=True)
class Affiliation:
    text: str
    country_raw: str  # last comma-separated segment of the address line


@dataclass(frozen=True)
class Author:
    surname: str
    given_names: str
    email: str | None = None
    corresponding: bool = False
    affiliations: tuple[Affiliation, ...] = ()


@dataclass(frozen=True)
class RawArticleMetadata:
    """Parsed metadata before id assignment and cleaning."""

    title: str | None = None
    doi: str | None = None
    received: date | None = None
    accepted: date | None = None
    published: date | None = None
    page_count: int = 0  # 0 encodes unavailable
    authors: tuple[Author, ...] = ()
    affiliations: tuple[Affiliation, ...] = ()

    def __post_init__(self) -> None:
        if (self.received is not None and self.accepted is not None
                and self.received > self.accepted):
            raise ValueError(
                f"received {self.received} after accepted {self.accepted}")
        if self.page_count < 0:
            raise ValueError("negative page count")


@dataclass(frozen=True)
class FieldError:
    field: str
    reason: str


@dataclass(frozen=True)
class HistoryDates:
    received: date | None = None
    revised: date | None = None
    online: date | None = None
    errors: tuple[FieldError, ...] = ()


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
    "plos-like": r"([A-Za-z]+)\s+(\d{1,2})\s*,?\s+(\d{4})",
    # day month-name year:  "9 December 2005"
    "physica-like": r"(\d{1,2})\s+([A-Za-z]+)\s+(\d{4})",
    # ISO numeric:  "2006-08-07"
    "nature-like": r"(\d{4})-(\d{2})-(\d{2})",
}


def _month_number(name: str) -> int | None:
    return _MONTHS.get(name.lower())


def _build_date(style: str, groups: tuple[str, ...]) -> date:
    if style == "plos-like":
        month = _month_number(groups[0])
        if month is None:
            raise ValueError(f"unknown month {groups[0]!r}")
        return date(int(groups[2]), month, int(groups[1]))
    if style == "physica-like":
        month = _month_number(groups[1])
        if month is None:
            raise ValueError(f"unknown month {groups[1]!r}")
        return date(int(groups[2]), month, int(groups[0]))
    return date(int(groups[0]), int(groups[1]), int(groups[2]))


def parse_history_string(text: str, style: str) -> HistoryDates:
    """Extract (received, revised, online) dates from a history line.

    First occurrence of each slot wins.  A keyword whose slot stays empty
    (date missing or malformed) is reported in ``errors`` rather than
    raising.
    """
    if style not in HISTORY_STYLES:
        raise ValueError(f"unknown history style {style!r}")
    slots: dict[str, date | None] = {"received": None, "revised": None,
                                     "online": None}
    errors: list[FieldError] = []
    keyword_alt = "|".join(re.escape(kw).replace(r"\ ", r"\s+")
                           for kw, _ in _SLOTS[style])
    rx = re.compile(rf"({keyword_alt})\s*:?\s*{_DATE_BODY[style]}",
                    re.IGNORECASE)
    for m in rx.finditer(text):
        keyword = re.sub(r"\s+", " ", m.group(1).lower())
        slot = dict(_SLOTS[style])[keyword]
        if slots[slot] is not None:
            continue
        try:
            slots[slot] = _build_date(style, m.groups()[1:])
        except ValueError as exc:
            errors.append(FieldError(field=slot, reason=str(exc)))
    # keywords present in the text whose slot never got a date
    lowered = text.lower()
    for keyword, slot in _SLOTS[style]:
        if slots[slot] is None and keyword in lowered:
            if not any(e.field == slot for e in errors):
                errors.append(FieldError(
                    field=slot, reason=f"no parseable date after {keyword!r}"))
    return HistoryDates(received=slots["received"], revised=slots["revised"],
                        online=slots["online"], errors=tuple(errors))


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


def build_name_lookup(profiles: Mapping[str, CountryProfile]
                      ) -> dict[str, str]:
    """Display-name -> ISO table from country profiles.

    Adds the US state names when a US profile is present (state-qualified
    addresses often omit the country).  Rejects case-insensitive name
    collisions that point at different codes.
    """
    lookup: dict[str, str] = {}
    seen: dict[str, str] = {}  # casefolded name -> iso
    def _add(name: str, iso: str) -> None:
        key = name.casefold()
        if key in seen:
            if seen[key] != iso:
                raise ValueError(
                    f"name {name!r} maps to both {seen[key]} and {iso}")
            return
        seen[key] = iso
        lookup[name] = iso
    for iso in sorted(profiles):
        for name in profiles[iso].names:
            _add(name, iso)
    if "US" in profiles:
        for state in US_STATE_NAMES:
            _add(state, "US")
    return lookup


def normalize_country(country_raw: str,
                      lookup: Mapping[str, str]) -> str | None:
    """Resolve free-text affiliation country to an ISO code.

    Containment matching: every lookup name contained (case-insensitively)
    in the input is a match; a matched name that is a substring of another
    matched name is discarded (so "Nigeria" beats "Niger", "Romania" beats
    "Oman").  Exactly one surviving code wins; none or several -> None.
    """
    if not country_raw:
        return None
    hay = country_raw.casefold()
    matched = [(name.casefold(), iso) for name, iso in lookup.items()
               if name.casefold() in hay]
    survivors = {iso for name, iso in matched
                 if not any(name != other and name in other
                            for other, _ in matched)}
    if len(survivors) == 1:
        return next(iter(survivors))
    return None


# -- JATS XML ---------------------------------------------------------------

def _repair_preamble(text: str) -> str:
    """Discard garbage bytes before the XML declaration, if any."""
    idx = text.find("<?xml")
    return text[idx:] if idx > 0 else text


def _offset_of(text: str, line: int, column: int) -> int:
    lines = text.splitlines(keepends=True)
    return sum(len(ln) for ln in lines[:line - 1]) + column


def _int_or_none(el) -> int | None:
    if el is None or el.text is None:
        return None
    try:
        return int(el.text.strip())
    except ValueError:
        return None


def _date_from_children(el) -> date | None:
    day = _int_or_none(el.find("day"))
    month = _int_or_none(el.find("month"))
    year = _int_or_none(el.find("year"))
    if day is None or month is None or year is None:
        return None
    try:
        return date(year, month, day)
    except ValueError:
        return None


def _text(el) -> str:
    return "".join(el.itertext()).strip() if el is not None else ""


def parse_jats_article(document: str | bytes) -> RawArticleMetadata:
    """Parse one JATS-style XML document.

    Raises JatsParseError (with byte offset) on malformed XML and
    NotResearchArticle when the first subject element names anything but a
    research article (missing subject is left for corpus cleaning).
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8", errors="replace")
    text = _repair_preamble(document)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise JatsParseError(str(exc), _offset_of(text, line, column),
                             line, column) from exc

    subjects = root.iter("subject")
    first_subject = next(subjects, None)
    if first_subject is not None:
        label = _text(first_subject)
        if label.lower() != "research article":
            raise NotResearchArticle(label)

    received = accepted = published = None
    for el in root.iter("date"):
        kind = el.get("date-type")
        if kind == "received" and received is None:
            received = _date_from_children(el)
        elif kind == "accepted" and accepted is None:
            accepted = _date_from_children(el)
    for el in root.iter("pub-date"):
        if el.get("pub-type") == "epub" and published is None:
            published = _date_from_children(el)

    doi = None
    for el in root.iter("article-id"):
        if el.get("pub-id-type") == "doi":
            doi = _text(el) or None
            break

    title_el = next(root.iter("article-title"), None)
    title = _text(title_el) or None

    page_count = 0
    for el in root.iter("page-count"):
        try:
            page_count = max(0, int(el.get("count", "0")))
        except ValueError:
            page_count = 0
        break

    aff_by_id: dict[str, Affiliation] = {}
    affiliations: list[Affiliation] = []
    for el in root.iter("aff"):
        addr = _text(el.find("addr-line"))
        country_raw = addr.rsplit(",", 1)[-1].strip() if addr else ""
        aff = Affiliation(text=addr, country_raw=country_raw)
        affiliations.append(aff)
        aff_id = el.get("id")
        if aff_id:
            aff_by_id[aff_id] = aff

    email_by_corresp: dict[str, str] = {}
    for el in root.iter("corresp"):
        corresp_id = el.get("id")
        email = _text(el.find("email"))
        if corresp_id and email:
            email_by_corresp[corresp_id] = email

    authors: list[Author] = []
    for el in root.iter("contrib"):
        if el.get("contrib-type") != "author":
            continue
        surname = _text(el.find(".//surname"))
        given = _text(el.find(".//given-names"))
        affs: list[Affiliation] = []
        email = None
        for xr in el.iter("xref"):
            rid = xr.get("rid")
            if not rid:
                continue
            if rid in aff_by_id:
                affs.append(aff_by_id[rid])
            if rid in email_by_corresp and email is None:
                email = email_by_corresp[rid]
        # either convention marks the contact author: the corresp attribute
        # or an email reached through a corresp note
        corresponding = el.get("corresp") == "yes" or email is not None
        authors.append(Author(surname=surname, given_names=given,
                              email=email, corresponding=corresponding,
                              affiliations=tuple(affs)))

    return RawArticleMetadata(
        title=title, doi=doi, received=received, accepted=accepted,
        published=published, page_count=page_count,
        authors=tuple(authors), affiliations=tuple(affiliations))


def resolve_article_country(meta: RawArticleMetadata,
                            lookup: Mapping[str, str]) -> str | None:
    """ISO country of the corresponding author's affiliation.

    Falls back to the first author's affiliations, then to the document's
    affiliation list, taking the first address that resolves.
    """
    pools: list[tuple[Affiliation, ...]] = []
    corresponding = next((a for a in meta.authors if a.corresponding), None)
    if corresponding is not None:
        pools.append(corresponding.affiliations)
    if meta.authors:
        pools.append(meta.authors[0].affiliations)
    pools.append(meta.affiliations)
    for pool in pools:
        for aff in pool:
            iso = normalize_country(aff.country_raw or aff.text, lookup)
            if iso is not None:
                return iso
    return None


# -- article cards ----------------------------------------------------------

_CARD_KEYS = ("title", "authors", "pages", "history", "country")


@dataclass(frozen=True)
class ArticleCard:
    title: str = ""
    authors: str = ""
    pages: str = ""
    history: str = ""
    country: str = ""


def split_author_list(text: str) -> int:
    """Count author names separated by commas, "and", or ampersands."""
    normalized = re.sub(r"\s+(?:and|&)\s+", ",", text, flags=re.IGNORECASE)
    parts = [p.strip() for p in normalized.split(",")]
    return sum(1 for p in parts if p)


def parse_article_cards(text: str) -> list[ArticleCard]:
    """Parse blank-line separated ``Key: value`` card records."""
    cards: list[ArticleCard] = []
    for block in re.split(r"\n\s*\n", text):
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
            cards.append(ArticleCard(**{k: fields.get(k, "")
                                        for k in _CARD_KEYS}))
    return cards


def card_to_raw_record(card: ArticleCard, article_id: int, journal: str,
                       style: str, lookup: Mapping[str, str]) -> RawRecord:
    """Corpus row from a card; unresolvable fields become blanks/zeros."""
    dates = parse_history_string(card.history, style)
    first, last = extract_pages(card.pages)
    page_count = last - first + 1 if 0 < first <= last else 0
    iso = normalize_country(card.country, lookup)
    return RawRecord(
        id=article_id, journal=journal, received=dates.received,
        revised=dates.revised, online=dates.online,
        author_count=split_author_list(card.authors),
        page_count=page_count, country=iso or "")


def jats_to_raw_record(meta: RawArticleMetadata, article_id: int,
                       journal: str,
                       lookup: Mapping[str, str]) -> RawRecord:
    return RawRecord(
        id=article_id, journal=journal, received=meta.received,
        revised=meta.accepted, online=meta.published,
        author_count=len(meta.authors), page_count=meta.page_count,
        country=resolve_article_country(meta, lookup) or "")


def harvest_directory(directory: str, style: str, journal: str,
                      lookup: Mapping[str, str], first_id: int = 1
                      ) -> tuple[list[RawRecord], list[tuple[str, str]]]:
    """Parse every file under ``directory`` into corpus rows.

    ``*.xml`` files go through the JATS parser; everything else is read as
    article-card text.  Files are visited in sorted name order and ids are
    assigned sequentially from ``first_id``, so a rerun over the same tree
    is identical.  Returns (rows, skipped) where skipped pairs each failed
    file with the reason: a parse error, a file that is not UTF-8, or one
    that cannot be read.
    """
    rows: list[RawRecord] = []
    skipped: list[tuple[str, str]] = []
    next_id = first_id
    paths = sorted(p for p in Path(directory).rglob("*") if p.is_file())
    for path in paths:
        rel = str(path.relative_to(directory))
        try:
            if path.suffix.lower() == ".xml":
                meta = parse_jats_article(path.read_bytes())
                rows.append(jats_to_raw_record(meta, next_id, journal,
                                               lookup))
                next_id += 1
            else:
                text = path.read_text(encoding="utf-8")
                for card in parse_article_cards(text):
                    rows.append(card_to_raw_record(card, next_id, journal,
                                                   style, lookup))
                    next_id += 1
        except ValueError as exc:
            skipped.append((rel, str(exc)))
        except OSError as exc:
            skipped.append((rel, f"unreadable: {exc.strerror or exc}"))
    return rows, skipped
