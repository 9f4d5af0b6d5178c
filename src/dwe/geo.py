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

import csv
import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus, CorpusRecord


# -- selection expressions --------------------------------------------------

@dataclass(frozen=True)
class _Atom:
    field: str  # "weekday" | "journal"
    values: frozenset

    def matches(self, weekday: int, journal: str) -> bool:
        if self.field == "weekday":
            return weekday in self.values
        return journal in self.values


@dataclass(frozen=True)
class SelectionExpr:
    """Disjunction of conjunctions of field-membership atoms."""

    clauses: tuple[tuple[_Atom, ...], ...]
    text: str

    def matches(self, weekday: int, journal: str) -> bool:
        return any(all(a.matches(weekday, journal) for a in clause)
                   for clause in self.clauses)

    def matches_record(self, rec: CorpusRecord) -> bool:
        return self.matches(rec.features.weekday, rec.article.journal)


_FIELD_ALIASES = {
    "[received_week_day]": "weekday", "received_week_day": "weekday",
    "weekday": "weekday",
    "[idj]": "journal", "idj": "journal", "journal": "journal",
}

_TOKEN_RX = re.compile(r"\[[^\]]+\]|\(|\)|=|,|[^\s(),=]+")


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

    def parse_or(self) -> list[list[_Atom]]:
        clauses = self.parse_and()
        while (tok := self.peek()) is not None and tok.lower() == "or":
            self.take()
            clauses.extend(self.parse_and())
        return clauses

    def parse_and(self) -> list[list[_Atom]]:
        # everything is held in disjunctive normal form; conjoining two
        # disjunctions distributes as a clause cross-product
        clauses = self.parse_atom()
        while (tok := self.peek()) is not None and tok.lower() == "and":
            self.take()
            right = self.parse_atom()
            clauses = [left + extra for left in clauses for extra in right]
        return clauses

    def parse_atom(self) -> list[list[_Atom]]:
        tok = self.peek()
        if tok == "(":
            self.take()
            clauses = self.parse_or()
            self.expect(")")
            return clauses
        return [[self.parse_comparison()]]

    def parse_comparison(self) -> _Atom:
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
                converted = frozenset(int(v) for v in values)
            except ValueError as exc:
                raise ValueError(f"weekday values must be ints: {values}") \
                    from exc
            if not all(1 <= v <= 7 for v in converted):
                raise ValueError(f"weekday values out of 1..7: {values}")
            return _Atom(field="weekday", values=converted)
        return _Atom(field="journal", values=frozenset(values))


def parse_selection(text: str) -> SelectionExpr:
    """Parse a selection expression; raises ValueError with the offence."""
    parser = _Parser(text)
    clauses = parser.parse_or()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens from {parser.peek()!r}")
    return SelectionExpr(clauses=tuple(tuple(c) for c in clauses),
                         text=text)


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
    totals: dict[str, int] = {}
    selected: dict[str, int] = {}
    for rec in corpus.records:
        iso = rec.article.country
        totals[iso] = totals.get(iso, 0) + 1
        if selection.matches_record(rec):
            selected[iso] = selected.get(iso, 0) + 1
    tot_world = sum(totals.values())
    sel_world = sum(selected.values())
    if tot_world == 0:
        raise ValueError("empty corpus")
    if sel_world == 0:
        raise ValueError(f"selection {selection.text!r} matches nothing")
    world_rate = sel_world / tot_world
    entries = []
    for iso in sorted(totals):
        sel_c = selected.get(iso, 0)
        tot_c = totals[iso]
        entries.append(LqEntry(
            country=iso, selected_count=sel_c, total_count=tot_c,
            lq=100.0 * (sel_c / tot_c) / world_rate))
    return entries


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


def jenks_breaks(values: Sequence[float], k: int) -> ClassBreaks:
    """Optimal contiguous k-partition of the values by within-class SSD.

    Works on the distinct values with multiplicity weights (duplicates can
    never straddle a boundary, and boundaries stay strictly increasing).
    Needs at least k distinct values.  Ties in total SSD resolve to the
    lexicographically smallest boundary vector.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("no values to classify")
    distinct: list[float] = []
    weights: list[int] = []
    for v in vals:
        if distinct and v == distinct[-1]:
            weights[-1] += 1
        else:
            distinct.append(v)
            weights.append(1)
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

    def cost(a: int, b: int) -> float:
        w = pw[b] - pw[a]
        s = ps[b] - ps[a]
        q = pq[b] - pq[a]
        return q - s * s / w

    INF = float("inf")
    # best[j][i]: minimal SSD splitting distinct[i:] into j classes
    best = [[INF] * (m + 1) for _ in range(k + 1)]
    for i in range(m + 1):
        best[1][i] = cost(i, m) if i < m else INF
    for j in range(2, k + 1):
        # each of the j classes needs at least one distinct value
        for i in range(m - j, -1, -1):
            acc = INF
            for e in range(i + 1, m - j + 2):
                c = cost(i, e) + best[j - 1][e]
                if c < acc:
                    acc = c
            best[j][i] = acc

    boundaries: list[float] = []
    pos = 0
    for j in range(k, 1, -1):
        target = best[j][pos]
        for e in range(pos + 1, m - j + 2):
            if cost(pos, e) + best[j - 1][e] == target:
                boundaries.append(distinct[e])
                pos = e
                break
        else:  # defensive: float asymmetry between DP and walk
            e = min(range(pos + 1, m - j + 2),
                    key=lambda e_: cost(pos, e_) + best[j - 1][e_])
            boundaries.append(distinct[e])
            pos = e
    return ClassBreaks(k=k, boundaries=tuple(boundaries),
                       total_ssd=best[k][0])


# -- export -----------------------------------------------------------------

def export_choropleth(entries: Sequence[LqEntry], breaks: ClassBreaks,
                      csv_path: str, geojson_path: str,
                      all_countries: Iterable[str] | None = None
                      ) -> list[str]:
    """Write the joinable classification table as CSV and GeoJSON.

    ``all_countries`` (e.g. the country table's codes) adds null-class rows
    for countries without articles, so a map join paints them as no-data.
    Entry countries missing from ``all_countries`` cannot be joined and are
    returned (and recorded in the GeoJSON) as skipped.
    """
    by_iso = {e.country: e for e in entries}
    if all_countries is not None:
        known = set(all_countries)
        skipped = sorted(set(by_iso) - known)
        isos = sorted(known)
    else:
        skipped = []
        isos = sorted(by_iso)

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("country", "lq", "class_index"))
        for iso in isos:
            e = by_iso.get(iso)
            if e is None:
                w.writerow((iso, "", ""))
            else:
                w.writerow((iso, repr(e.lq), breaks.class_of(e.lq)))

    features = []
    for iso in isos:
        e = by_iso.get(iso)
        features.append({
            "type": "Feature",
            "geometry": None,
            "properties": {
                "iso": iso,
                "lq": e.lq if e is not None else None,
                "class_index": breaks.class_of(e.lq) if e is not None
                else None,
            },
        })
    doc = {"type": "FeatureCollection", "features": features,
           "skipped": skipped}
    with open(geojson_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return skipped
