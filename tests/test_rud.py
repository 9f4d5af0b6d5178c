"""Weekly concentration ratio: worked-example oracle and invariants."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwe import corpus as cm, rud
from reference_corpus import raw_rows, reference_clean
from reference_rud import (WeekGroup, build_week_groups, rud_for_day,
                           uniform_daily_rate)

TOL = 5e-6


class TestWorkedExample:
    def test_ud_and_rud_match_printed_values(self, sample_corpus,
                                             sample_week_rows):
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        assert len(obs) == 47
        expected = {r["article_id"]: r for r in sample_week_rows}
        for o in obs:
            want = expected[o.article_id]
            assert o.weekday == want["weekday"]
            assert o.week_number == want["week"]
            ud = o.week_total / 7.0
            assert ud == pytest.approx(want["ud"], abs=TOL)
            assert o.rud == pytest.approx(want["rud"], abs=TOL)

    def test_big_week_counts(self, sample_corpus):
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        week32 = [o for o in obs if o.year == 2006 and o.week_number == 32]
        assert len(week32) == 26
        assert all(o.week_total == 26 for o in week32)
        monday = [o for o in week32 if o.weekday == 1]
        assert len(monday) == 16 and all(o.day_count == 16 for o in monday)


def _pairs(corpus, countries):
    """The corpus's rows with their row-wise reference features under
    ``countries``, the table the corpus was cleaned with."""
    pairs, _ = reference_clean(corpus.records, countries)
    return pairs


def assert_table_matches_week_groups(corpus, countries, scope):
    pairs = _pairs(corpus, countries)
    groups = build_week_groups(pairs, scope)
    features = {row.id: f for row, f in pairs}
    table = rud.build_rud_dataset(corpus, scope)
    assert [o.article_id for o in table] == sorted(features)
    for o in table:
        f = features[o.article_id]
        assert (o.year, o.week_number, o.weekday) \
            == (f.year, f.week_number, f.weekday)
        g = groups[(o.scope, o.year, o.week_number)]
        assert o.day_count == g.day_counts[o.weekday - 1]
        assert o.week_total == g.total
        assert o.rud == rud_for_day(g, o.weekday)


class TestWeekGroups:
    def test_group_totals_match_membership(self, sample_corpus,
                                           country_table):
        groups = build_week_groups(_pairs(sample_corpus, country_table),
                                   rud.CONSOLIDATED)
        assert sum(g.total for g in groups.values()) == 47

    def test_journal_scope_splits(self, synth_corpus, country_table):
        pairs = _pairs(synth_corpus, country_table)
        per_journal = build_week_groups(pairs, "journal")
        consolidated = build_week_groups(pairs, rud.CONSOLIDATED)
        assert sum(g.total for g in per_journal.values()) \
            == sum(g.total for g in consolidated.values()) \
            == len(synth_corpus.records)
        assert {g.scope for g in consolidated.values()} \
            == {rud.CONSOLIDATED}
        assert {g.scope for g in per_journal.values()} \
            == set(synth_corpus.columns.journals)

    @pytest.mark.parametrize("scope", ["journal", rud.CONSOLIDATED])
    @pytest.mark.parametrize("fixture", ["sample_corpus", "synth_corpus"])
    def test_table_matches_week_groups(self, request, country_table,
                                       fixture, scope):
        assert_table_matches_week_groups(request.getfixturevalue(fixture),
                                         country_table, scope)

    @settings(max_examples=60, deadline=None)
    @given(raw_rows(), st.sampled_from(["journal", rud.CONSOLIDATED]))
    def test_drawn_table_matches_week_groups(self, country_table, rows,
                                             scope):
        corpus = cm.clean_corpus(rows, country_table)
        assert_table_matches_week_groups(corpus, country_table, scope)
        for o, row in zip(rud.build_rud_dataset(corpus, scope),
                          corpus.records):
            assert (o.article_id, o.journal, o.received) \
                == (row.id, row.journal, row.received)


counts = st.lists(st.integers(min_value=0, max_value=40), min_size=7,
                  max_size=7).filter(lambda c: sum(c) > 0)


class TestRatioProperties:
    @given(counts)
    def test_identity_sum(self, day_counts):
        # sum over the received days of n_k / (N/7) is 7
        g = WeekGroup(scope="s", year=2010, week_number=3,
                          day_counts=tuple(day_counts))
        s = sum(rud_for_day(g, k) for k in range(1, 8)
                if g.day_counts[k - 1])
        assert s == pytest.approx(7.0, rel=1e-12)

    @given(counts, st.integers(min_value=2, max_value=9))
    def test_scaling_invariance(self, day_counts, factor):
        g1 = WeekGroup(scope="s", year=2010, week_number=3,
                           day_counts=tuple(day_counts))
        g2 = WeekGroup(scope="s", year=2010, week_number=3,
                           day_counts=tuple(c * factor for c in day_counts))
        for k in range(1, 8):
            if day_counts[k - 1]:
                assert rud_for_day(g2, k) \
                    == pytest.approx(rud_for_day(g1, k), rel=1e-12)

    @given(counts)
    def test_uniform_rate(self, day_counts):
        g = WeekGroup(scope="s", year=2010, week_number=1,
                          day_counts=tuple(day_counts))
        assert uniform_daily_rate(g) \
            == pytest.approx(sum(day_counts) / 7.0, rel=1e-12)

    def test_empty_week_rejected(self):
        g = WeekGroup(scope="s", year=2010, week_number=1,
                          day_counts=(0,) * 7)
        with pytest.raises(ValueError):
            uniform_daily_rate(g)

    def test_zero_day_rejected(self):
        g = WeekGroup(scope="s", year=2010, week_number=1,
                          day_counts=(3, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            rud_for_day(g, 2)


class TestCsv:
    def test_round_trip(self, tmp_path, sample_corpus):
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        path = tmp_path / "rud.csv"
        rud.write_rud_csv(obs, str(path))
        with open(path, newline="", encoding="utf-8") as fh:
            header, *back = csv.reader(fh)
        assert tuple(header) == rud.RUD_CSV_COLUMNS
        assert back == [[str(o.article_id), o.scope, str(o.year),
                         str(o.week_number), str(o.weekday),
                         str(o.day_count), str(o.week_total), repr(o.rud)]
                        for o in obs]
        # repr round-trip is exact
        assert [float(row[7]) for row in back] == obs.rud.tolist()

    def test_attach_transform_populates_both_steps(self, sample_corpus):
        from dwe import diststat
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        spec = diststat.TransformSpec(step1_family="power",
                                      step1_param=0.5, step2_power=1.0)
        y_star, y_star_star = rud.attach_transform(obs, spec)
        assert len(y_star) == len(y_star_star) == len(obs)
        for value in y_star_star:
            assert math.isfinite(value)

    @pytest.mark.parametrize("spec_args", [("power", 0.95, 0.55),
                                           ("log10-shift", 0.2, 1.82),
                                           ("power", 1.5, -0.5)])
    def test_attach_transform_equals_per_value_steps(self, synth_corpus,
                                                     spec_args):
        from dwe import diststat
        spec = diststat.TransformSpec(*spec_args)
        obs = rud.build_rud_dataset(synth_corpus, rud.CONSOLIDATED)
        y_star, y_star_star = rud.attach_transform(obs, spec)
        per_value = [diststat.apply_transform_steps_array([o.rud], spec)
                     for o in obs]
        assert list(zip(y_star.tolist(), y_star_star.tolist())) \
            == [(float(y1[0]), float(y2[0])) for y1, y2 in per_value]

    @pytest.mark.parametrize("bad,first", [((0.2, -1.0), 0.2),
                                           ((-1.0, 0.2), -1.0),
                                           ((float("nan"), 0.2), "nan")])
    def test_attach_transform_raises_for_first_bad_ratio(self, sample_corpus,
                                                         bad, first):
        from dwe import diststat
        # log10(r) - 0.7 + 1 <= 0 for r <= 0.5
        spec = diststat.TransformSpec("log10-shift", -0.7, 0.5)
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        ratios = np.maximum(obs.rud, 1.0)
        ratios[3], ratios[5] = bad
        obs = replace(obs, rud=ratios)
        with pytest.raises(ValueError) as scalar:
            diststat.apply_transform_steps_array([float(first)], spec)
        with pytest.raises(ValueError) as vector:
            rud.attach_transform(obs, spec)
        assert str(vector.value) == str(scalar.value)
