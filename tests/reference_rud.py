"""Oracle for the columnar ratio table.

The weekly ratio stated row by row, one week cell at a time: a
``WeekGroup`` holds the per-weekday counts of one (scope, year, week)
cell, ``build_week_groups`` counts the cells article by article, and
``rud_for_day`` gives RUD = n_k / (N / 7) for one weekday of one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from dwe.rud import CONSOLIDATED
from reference_corpus import Pair


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


def build_week_groups(pairs: Iterable[Pair],
                      scope: str) -> dict[tuple[str, int, int], WeekGroup]:
    """Group (row, features) pairs into per-(scope, year, week) counts.

    ``scope`` is "journal" (one group key per journal) or "consolidated"
    (all journals pooled under the single scope label "consolidated").
    """
    if scope not in ("journal", CONSOLIDATED):
        raise ValueError(f"unknown scope {scope!r}")
    counts: dict[tuple[str, int, int], list[int]] = {}
    for row, features in pairs:
        label = row.journal if scope == "journal" else CONSOLIDATED
        key = (label, features.year, features.week_number)
        day_counts = counts.setdefault(key, [0] * 7)
        day_counts[features.weekday - 1] += 1
    return {key: WeekGroup(scope=key[0], year=key[1], week_number=key[2],
                           day_counts=tuple(dc))
            for key, dc in counts.items()}
