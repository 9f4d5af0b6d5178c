"""Weekly concentration ratio of submissions.

Articles are grouped per (scope, year, week number) where scope is either a
single journal's flow or the consolidated flow of all journals.  Within a
group of N articles the uniform daily rate is UD = N/7; an article received
on weekday k, one of n_k that week, gets the ratio

    RUD = n_k / UD = 7 * n_k / N

so RUD > 1 marks days receiving more than a uniform week would put there.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Mapping

from .corpus import Corpus, CorpusRecord, DerivedFeatures

CONSOLIDATED = "consolidated"


@dataclass(frozen=True)
class WeekGroup:
    """Per-weekday submission counts of one (scope, year, week) cell."""

    scope: str
    year: int
    week_number: int
    day_counts: tuple[int, ...]  # 7 entries, Monday..Sunday

    def __post_init__(self) -> None:
        if len(self.day_counts) != 7:
            raise ValueError("day_counts must have 7 entries")
        if any(c < 0 for c in self.day_counts):
            raise ValueError("negative day count")

    @property
    def total(self) -> int:
        return sum(self.day_counts)


def uniform_daily_rate(group: WeekGroup) -> float:
    """UD = N/7 for the group's N articles; empty groups have no rate."""
    if group.total == 0:
        raise ValueError(
            f"empty week group {group.scope}/{group.year}/w{group.week_number}")
    return group.total / 7.0


def rud_for_day(group: WeekGroup, weekday: int) -> float:
    """RUD of an article received on ``weekday`` within ``group``.

    Only meaningful for days that actually received something (n_k >= 1),
    which holds for every observed article by construction.
    """
    if not 1 <= weekday <= 7:
        raise ValueError(f"weekday {weekday} out of 1..7")
    n_k = group.day_counts[weekday - 1]
    if n_k < 1:
        raise ValueError(
            f"no submissions on weekday {weekday} in group "
            f"{group.scope}/{group.year}/w{group.week_number}")
    return n_k / uniform_daily_rate(group)


@dataclass(frozen=True)
class RudObservation:
    """One article's ratio with its feature snapshot.

    ``y_star`` / ``y_star_star`` hold the one- and two-step normality
    transforms once a transform spec has been applied; they stay None before.
    """

    article_id: int
    scope: str
    journal: str
    received: date
    year: int
    week_number: int
    weekday: int
    day_count: int
    week_total: int
    rud: float
    features: DerivedFeatures
    y_star: float | None = None
    y_star_star: float | None = None


def build_week_groups(records: Iterable[CorpusRecord],
                      scope: str) -> dict[tuple[str, int, int], WeekGroup]:
    """Group records into per-(scope, year, week) weekday counts.

    ``scope`` is "journal" (one group key per journal) or "consolidated"
    (all journals pooled under the single scope label "consolidated").
    """
    if scope not in ("journal", CONSOLIDATED):
        raise ValueError(f"unknown scope {scope!r}")
    counts: dict[tuple[str, int, int], list[int]] = {}
    for rec in records:
        label = rec.article.journal if scope == "journal" else CONSOLIDATED
        key = (label, rec.features.year, rec.features.week_number)
        day_counts = counts.setdefault(key, [0] * 7)
        day_counts[rec.features.weekday - 1] += 1
    return {key: WeekGroup(scope=key[0], year=key[1], week_number=key[2],
                           day_counts=tuple(dc))
            for key, dc in counts.items()}


def build_rud_dataset(corpus: Corpus, scope: str = CONSOLIDATED
                      ) -> list[RudObservation]:
    """Per-article RUD observations under the given grouping scope.

    Output is sorted by article id, so repeated runs over the same corpus
    are byte-identical downstream.
    """
    groups = build_week_groups(corpus.records, scope)
    observations = []
    for rec in sorted(corpus.records, key=lambda r: r.article.id):
        label = rec.article.journal if scope == "journal" else CONSOLIDATED
        group = groups[(label, rec.features.year, rec.features.week_number)]
        observations.append(RudObservation(
            article_id=rec.article.id,
            scope=label,
            journal=rec.article.journal,
            received=rec.article.received,
            year=rec.features.year,
            week_number=rec.features.week_number,
            weekday=rec.features.weekday,
            day_count=group.day_counts[rec.features.weekday - 1],
            week_total=group.total,
            rud=rud_for_day(group, rec.features.weekday),
            features=rec.features))
    return observations


RUD_CSV_COLUMNS = ("article_id", "scope", "year", "week", "weekday",
                   "n_k", "N", "rud")


def write_rud_csv(observations: Iterable[RudObservation], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RUD_CSV_COLUMNS)
        for o in observations:
            w.writerow([o.article_id, o.scope, o.year, o.week_number,
                        o.weekday, o.day_count, o.week_total, repr(o.rud)])


def read_rud_csv(path: str) -> list[dict]:
    """Read back the numeric columns of a RUD CSV (no feature snapshot)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RUD_CSV_COLUMNS:
            raise ValueError(f"{path}: bad rud header {header!r}")
        rows = []
        for line in reader:
            if not line:
                continue
            rows.append({"article_id": int(line[0]), "scope": line[1],
                         "year": int(line[2]), "week": int(line[3]),
                         "weekday": int(line[4]), "n_k": int(line[5]),
                         "N": int(line[6]), "rud": float(line[7])})
    return rows


def attach_transform(observations: Iterable[RudObservation],
                     spec) -> list[RudObservation]:
    """Return copies with y_star / y_star_star filled from ``spec``.

    ``spec`` is a diststat.TransformSpec; imported lazily to keep this module
    free of the numerics stack.  A ratio outside the transform's domain
    raises the ValueError of the first such observation.
    """
    from .diststat import apply_transform_steps_array

    observations = list(observations)
    y1, y2 = apply_transform_steps_array([o.rud for o in observations], spec)
    return [replace(o, y_star=a, y_star_star=b)
            for o, a, b in zip(observations, y1.tolist(), y2.tolist())]
