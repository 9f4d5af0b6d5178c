"""Oracle for country resolution, history lines and JATS in ``harvest``.

These are the functions as they were before the lookup was casefolded once,
the history patterns compiled at import and the JATS tree walked once.
``build_name_lookup`` returns a plain display-name -> ISO dict, and
``normalize_country`` casefolds every name of it on every call and keeps no
memo.  ``parse_history_string`` builds its keyword alternation and compiles
its pattern on every call, converts every date it meets with a decoder
per history style, and returns the (received, revised, online) dates as a
tuple.
``parse_jats_article`` walks the tree once for each tag it reads, and ranks
the places to geolocate pool by pool, skipping repeats: the first
corresponding author's affiliations, then the first author's, then every
affiliation.
"""

from __future__ import annotations

import re
from datetime import date
from typing import Mapping
from xml.etree import ElementTree as ET

from dwe.corpus import CountryProfile
from dwe.harvest import (_DATE_BODY, _MONTHS, _SLOTS, HISTORY_STYLES,
                         US_STATE_NAMES, JatsArticle, JatsParseError,
                         NotResearchArticle, _byte_offset, _char_offset,
                         _date_from_children, _repair_preamble, _text)


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


def _build_date(style: str, groups: tuple[str, ...]) -> date:
    """The date of a history entry's groups, in the order ``style`` writes
    them."""
    if style == "plos-like":
        month = _MONTHS.get(groups[0].lower())
        if month is None:
            raise ValueError(f"unknown month {groups[0]!r}")
        return date(int(groups[2]), month, int(groups[1]))
    if style == "physica-like":
        month = _MONTHS.get(groups[1].lower())
        if month is None:
            raise ValueError(f"unknown month {groups[1]!r}")
        return date(int(groups[2]), month, int(groups[0]))
    return date(int(groups[0]), int(groups[1]), int(groups[2]))


def parse_history_string(text: str, style: str
                         ) -> tuple[date | None, date | None, date | None]:
    """Extract (received, revised, online) dates from a history line.

    First occurrence of each slot wins.  A keyword whose date is missing
    or malformed leaves its slot empty rather than raising.
    """
    if style not in HISTORY_STYLES:
        raise ValueError(f"unknown history style {style!r}")
    slots: dict[str, date | None] = {"received": None, "revised": None,
                                     "online": None}
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
        except ValueError:
            pass
    return slots["received"], slots["revised"], slots["online"]


def parse_jats_article(document: str | bytes) -> JatsArticle:
    """Parse one JATS-style XML document.

    Raises JatsParseError (with byte offset) on malformed XML,
    NotResearchArticle when the first subject element names anything but a
    research article (missing subject is left for corpus cleaning), and
    ValueError when the received date is after the accepted one.
    """
    decoded = document if isinstance(document, str) \
        else document.decode("utf-8", errors="replace")
    text = _repair_preamble(decoded)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        chars = len(decoded) - len(text) + _char_offset(text, line, column)
        raise JatsParseError(str(exc), _byte_offset(document, chars),
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

    page_count = 0
    for el in root.iter("page-count"):
        try:
            page_count = max(0, int(el.get("count", "0")))
        except ValueError:
            page_count = 0
        break

    # each affiliation is its place: the country segment of its address
    # line, or the whole line when that segment is empty
    aff_by_id: dict[str, str] = {}
    affiliations: list[str] = []
    for el in root.iter("aff"):
        addr = _text(el.find("addr-line"))
        country_raw = addr.rsplit(",", 1)[-1].strip() if addr else ""
        place = country_raw or addr
        affiliations.append(place)
        aff_id = el.get("id")
        if aff_id:
            aff_by_id[aff_id] = place

    emailed: set[str] = set()
    for el in root.iter("corresp"):
        corresp_id = el.get("id")
        if corresp_id and _text(el.find("email")):
            emailed.add(corresp_id)

    # (corresponding, affiliations) of each author
    authors: list[tuple[bool, list[str]]] = []
    for el in root.iter("contrib"):
        if el.get("contrib-type") != "author":
            continue
        rids = [xr.get("rid") for xr in el.iter("xref") if xr.get("rid")]
        authors.append((el.get("corresp") == "yes"
                        or any(rid in emailed for rid in rids),
                        [aff_by_id[rid] for rid in rids
                         if rid in aff_by_id]))

    pools: list[list[str]] = []
    corresponding = next((affs for corr, affs in authors if corr), None)
    if corresponding is not None:
        pools.append(corresponding)
    if authors:
        pools.append(authors[0][1])
    pools.append(affiliations)
    places: list[str] = []
    for pool in pools:
        for place in pool:
            if place not in places:
                places.append(place)

    if received is not None and accepted is not None and received > accepted:
        raise ValueError(f"received {received} after accepted {accepted}")
    return JatsArticle(received=received, accepted=accepted,
                       published=published, page_count=page_count,
                       authors=len(authors), places=tuple(places))
