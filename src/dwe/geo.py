"""Per-country localization quotients and natural-breaks classification.

The localization quotient compares a country's share of some selection of
articles (e.g. "weekday in 6,7") with its share of all articles:

    LQ_c = 100 * (sel_c / tot_c) / (sel_world / tot_world)

100 means the country participates in the selection exactly at the world
rate.  Selections are boolean expressions over the received weekday and the
journal, written either in a bracketed field style
("[received_week_day] = 2 OR [received_week_day] = 3") or a compact one
("weekday in 2,3 and journal = plos-one"); AND binds tighter than OR.

Classification uses Fisher-style natural breaks: the contiguous partition
of the sorted values into k classes minimizing the total within-class sum
of squared deviations, with ties broken to the lexicographically smallest
boundary vector.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Corpus, parse_int, write_table


# -- selection expressions --------------------------------------------------

#: whether an article with this received weekday and journal is selected
_Predicate = Callable[[int, str], bool]


@dataclass(frozen=True)
class SelectionExpr:
    """A selection; ``matches(weekday, journal)`` evaluates it as written."""

    matches: _Predicate
    text: str


_FIELD_ALIASES = {
    "[received_week_day]": "weekday", "received_week_day": "weekday",
    "weekday": "weekday",
    "[idj]": "journal", "idj": "journal", "journal": "journal",
}

_TOKEN_RX = re.compile(r"\[[^\]]+\]|\(|\)|=|,|[^\s(),=]+")
_MAX_DEPTH = 100  # deeper parentheses could exhaust the stack when evaluated


class _Parser:
    def __init__(self, text: str):
        self.tokens = _TOKEN_RX.findall(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of selection expression")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.take()
        if tok.lower() != token:
            raise ValueError(f"expected {token!r}, got {tok!r}")

    def parse_or(self, depth: int) -> _Predicate:
        parts = [self.parse_and(depth)]
        while (tok := self.peek()) is not None and tok.lower() == "or":
            self.take()
            parts.append(self.parse_and(depth))
        return lambda weekday, journal: any(p(weekday, journal) for p in parts)

    def parse_and(self, depth: int) -> _Predicate:
        parts = [self.parse_atom(depth)]
        while (tok := self.peek()) is not None and tok.lower() == "and":
            self.take()
            parts.append(self.parse_atom(depth))
        return lambda weekday, journal: all(p(weekday, journal) for p in parts)

    def parse_atom(self, depth: int) -> _Predicate:
        if self.peek() != "(":
            return self.parse_comparison()
        if depth == _MAX_DEPTH:
            raise ValueError(f"parentheses nest deeper than {_MAX_DEPTH}")
        self.take()
        inner = self.parse_or(depth + 1)
        self.expect(")")
        return inner

    def parse_comparison(self) -> _Predicate:
        field_tok = self.take().lower()
        if field_tok not in _FIELD_ALIASES:
            raise ValueError(f"unknown field {field_tok!r}")
        fieldname = _FIELD_ALIASES[field_tok]
        op = self.take().lower()
        if op not in ("=", "in"):
            raise ValueError(f"expected '=' or 'in' after {field_tok!r}")
        first = self.take()
        if op == "in" and first.startswith("[") and first.endswith("]"):
            # bracketed value list arrives as one token because brackets
            # otherwise delimit field names
            values = [v.strip() for v in first[1:-1].split(",") if v.strip()]
            if not values:
                raise ValueError(f"empty value list after {field_tok!r}")
        else:
            values = [first]
            while self.peek() == ",":
                self.take()
                values.append(self.take())
        if op == "=" and len(values) != 1:
            raise ValueError("'=' takes a single value")
        if fieldname == "weekday":
            try:
                converted = frozenset(map(parse_int, values))
            except ValueError as exc:
                raise ValueError(f"weekday values must be ints: {values}") \
                    from exc
            if not all(1 <= v <= 7 for v in converted):
                raise ValueError(f"weekday values out of 1..7: {values}")
            return lambda weekday, journal: weekday in converted
        journals = frozenset(values)
        return lambda weekday, journal: journal in journals


def parse_selection(text: str) -> SelectionExpr:
    """Parse a selection expression; raises ValueError with the offence."""
    parser = _Parser(text)
    matches = parser.parse_or(0)
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens from {parser.peek()!r}")
    return SelectionExpr(matches=matches, text=text)


# -- localization quotient --------------------------------------------------

@dataclass(frozen=True)
class LqEntry:
    country: str
    selected_count: int
    total_count: int
    lq: float


def localization_quotient(corpus: Corpus,
                          selection: SelectionExpr) -> list[LqEntry]:
    """Per-country quotients; countries ordered by ISO code.

    Every corpus country has an entry (total_count >= 1 by construction);
    a country with nothing in the selection gets LQ 0.  An empty world
    selection leaves the quotient undefined and raises.
    """
    cols = corpus.columns
    if not len(cols):
        raise ValueError("empty corpus")
    # the selection reads only the weekday and the journal
    matches = np.array([[selection.matches(weekday, journal)
                         for journal in cols.journals]
                        for weekday in range(1, 8)], dtype=bool)
    selected_rows = matches[cols.weekday - 1, cols.journal]
    totals = np.bincount(cols.country, minlength=len(cols.countries))
    selected = np.bincount(cols.country[selected_rows],
                           minlength=len(cols.countries))
    sel_world = int(selected.sum())
    if sel_world == 0:
        raise ValueError(f"selection {selection.text!r} matches nothing")
    world_rate = sel_world / len(cols)
    return [LqEntry(country=iso, selected_count=sel_c, total_count=tot_c,
                    lq=100.0 * (sel_c / tot_c) / world_rate)
            for iso, sel_c, tot_c in zip(cols.countries, selected.tolist(),
                                         totals.tolist())]


# -- natural breaks ---------------------------------------------------------

@dataclass(frozen=True)
class ClassBreaks:
    """k classes over sorted values; boundaries are the lower bounds of
    classes 1..k-1 (strictly increasing), so class_of is a bisection."""

    k: int
    boundaries: tuple[float, ...]
    total_ssd: float

    def __post_init__(self) -> None:
        if len(self.boundaries) != self.k - 1:
            raise ValueError("need k-1 boundaries")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must strictly increase")

    def class_of(self, value: float) -> int:
        return bisect_right(self.boundaries, value)


def check_classes(k: int) -> int:
    if k < 1:
        raise ValueError(f"need at least 1 class, got {k}")
    return k


def jenks_breaks(values: Sequence[float], k: int) -> ClassBreaks:
    """Optimal contiguous k-partition of the values by within-class SSD.

    Works on the distinct values with multiplicity weights (duplicates can
    never straddle a boundary, and boundaries stay strictly increasing).
    Needs at least k distinct values, all finite, and sums of squares
    that do not overflow.  Ties in total SSD resolve to the
    lexicographically smallest boundary vector.
    """
    check_classes(k)
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("no values to classify")
    bad = [v for v in vals if not math.isfinite(v)]
    if bad:
        raise ValueError(f"cannot classify the non-finite value {bad[0]}")
    counts = Counter(vals)
    distinct = sorted(counts)
    weights = [counts[v] for v in distinct]
    m = len(distinct)
    if m < k:
        raise ValueError(f"{m} distinct values cannot fill {k} classes")

    # weighted prefix sums for O(1) within-class SSD of [a, b)
    pw = [0.0] * (m + 1)
    ps = [0.0] * (m + 1)
    pq = [0.0] * (m + 1)
    for i, (v, w) in enumerate(zip(distinct, weights)):
        pw[i + 1] = pw[i] + w
        ps[i + 1] = ps[i] + w * v
        pq[i + 1] = pq[i] + w * v * v
    # a class's s*s is at most its weight times its sum of squares
    # (Cauchy-Schwarz), so with this product finite every cost is finite
    if not math.isfinite(pw[m] * pq[m]):
        raise ValueError("sum of squares overflows; values too large to "
                         "classify")

    def cost(a: int, b: int) -> float:
        w = pw[b] - pw[a]
        s = ps[b] - ps[a]
        q = pq[b] - pq[a]
        return q - s * s / w

    INF = float("inf")
    # best[j][i]: minimal SSD splitting distinct[i:] into j classes, and
    # split[j][i] the end of its first class; the strict < keeps the
    # first minimising end, so the boundaries come out smallest first
    best = [[INF] * (m + 1) for _ in range(k + 1)]
    split = [[0] * (m + 1) for _ in range(k + 1)]
    best[1] = [cost(i, m) for i in range(m)] + [INF]
    for j in range(2, k + 1):
        # each of the j classes needs at least one distinct value
        for i in range(m - j, -1, -1):
            acc = INF
            for e in range(i + 1, m - j + 2):
                c = cost(i, e) + best[j - 1][e]
                if c < acc:
                    acc, split[j][i] = c, e
            best[j][i] = acc

    boundaries: list[float] = []
    pos = 0
    for j in range(k, 1, -1):
        pos = split[j][pos]
        boundaries.append(distinct[pos])
    return ClassBreaks(k=k, boundaries=tuple(boundaries),
                       total_ssd=best[k][0])


# -- export -----------------------------------------------------------------

def export_choropleth(entries: Sequence[LqEntry], breaks: ClassBreaks,
                      csv_path: str, geojson_path: str,
                      all_countries: Iterable[str]) -> list[str]:
    """Write the joinable classification table as CSV and GeoJSON.

    ``all_countries`` (the country table's codes) gives a null-class row
    to each country without articles, so a map join paints it as no-data.
    Entry countries missing from ``all_countries`` cannot be joined and are
    returned (and recorded in the GeoJSON) as skipped.
    """
    by_iso = {e.country: e for e in entries}
    known = set(all_countries)
    skipped = sorted(set(by_iso) - known)
    isos = sorted(known)

    # (iso, lq, class index) per row; None for a country without articles
    rows = [(iso, None, None) if e is None else
            (iso, e.lq, breaks.class_of(e.lq))
            for iso, e in zip(isos, map(by_iso.get, isos))]

    write_table(csv_path, ("country", "lq", "class_index"), rows)

    features = [{"type": "Feature", "geometry": None,
                 "properties": {"iso": iso, "lq": lq, "class_index": k}}
                for iso, lq, k in rows]
    doc = {"type": "FeatureCollection", "features": features,
           "skipped": skipped}
    with open(geojson_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return skipped
