"""Oracle for country resolution and history-line parsing in ``harvest``.

These are the functions as they were before the lookup was casefolded once
and the history patterns compiled at import.  ``build_name_lookup`` returns
a plain display-name -> ISO dict, and ``normalize_country`` casefolds every
name of it on every call and keeps no memo.  ``parse_history_string``
builds its keyword alternation and compiles its pattern on every call.
"""

from __future__ import annotations

import re
from datetime import date
from typing import Mapping

from dwe.corpus import CountryProfile
from dwe.harvest import (_DATE_BODY, _SLOTS, HISTORY_STYLES, US_STATE_NAMES,
                         HistoryDates, _build_date)


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


def parse_history_string(text: str, style: str) -> HistoryDates:
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
    return HistoryDates(received=slots["received"], revised=slots["revised"],
                        online=slots["online"])
