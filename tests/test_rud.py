"""Weekly concentration ratio: worked-example oracle and invariants."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from dwe import rud

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


class TestWeekGroups:
    def test_group_totals_match_membership(self, sample_corpus):
        groups = rud.build_week_groups(sample_corpus.records,
                                       rud.CONSOLIDATED)
        assert sum(g.total for g in groups.values()) == 47

    def test_journal_scope_splits(self, synth_corpus):
        per_journal = rud.build_week_groups(synth_corpus.records, "journal")
        consolidated = rud.build_week_groups(synth_corpus.records,
                                             rud.CONSOLIDATED)
        assert sum(g.total for g in per_journal.values()) \
            == sum(g.total for g in consolidated.values()) \
            == len(synth_corpus.records)
        assert {g.scope for g in consolidated.values()} \
            == {rud.CONSOLIDATED}
        assert {g.scope for g in per_journal.values()} \
            == set(synth_corpus.journals())


counts = st.lists(st.integers(min_value=0, max_value=40), min_size=7,
                  max_size=7).filter(lambda c: sum(c) > 0)


class TestRatioProperties:
    @given(counts)
    def test_identity_sum(self, day_counts):
        g = rud.WeekGroup(scope="s", year=2010, week_number=3,
                          day_counts=tuple(day_counts))
        total = 0.0
        for k in range(1, 8):
            if g.day_counts[k - 1]:
                total += g.day_counts[k - 1] * 0  # placeholder, see below
        # sum over days of n_k * (rud_k / n_k) = sum rud_k = 7 * (N_occupied share)
        s = sum(rud.rud_for_day(g, k) for k in range(1, 8)
                if g.day_counts[k - 1])
        expect = 7.0 * sum(c for c in day_counts if c) / sum(day_counts)
        assert s == pytest.approx(expect, rel=1e-12)

    @given(counts, st.integers(min_value=2, max_value=9))
    def test_scaling_invariance(self, day_counts, factor):
        g1 = rud.WeekGroup(scope="s", year=2010, week_number=3,
                           day_counts=tuple(day_counts))
        g2 = rud.WeekGroup(scope="s", year=2010, week_number=3,
                           day_counts=tuple(c * factor for c in day_counts))
        for k in range(1, 8):
            if day_counts[k - 1]:
                assert rud.rud_for_day(g2, k) \
                    == pytest.approx(rud.rud_for_day(g1, k), rel=1e-12)

    @given(counts)
    def test_uniform_rate(self, day_counts):
        g = rud.WeekGroup(scope="s", year=2010, week_number=1,
                          day_counts=tuple(day_counts))
        assert rud.uniform_daily_rate(g) \
            == pytest.approx(sum(day_counts) / 7.0, rel=1e-12)

    def test_empty_week_rejected(self):
        g = rud.WeekGroup(scope="s", year=2010, week_number=1,
                          day_counts=(0,) * 7)
        with pytest.raises(ValueError):
            rud.uniform_daily_rate(g)

    def test_zero_day_rejected(self):
        g = rud.WeekGroup(scope="s", year=2010, week_number=1,
                          day_counts=(3, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            rud.rud_for_day(g, 2)


class TestCsv:
    def test_round_trip(self, tmp_path, sample_corpus):
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        path = tmp_path / "rud.csv"
        rud.write_rud_csv(obs, str(path))
        back = rud.read_rud_csv(str(path))
        assert len(back) == len(obs)
        for row, o in zip(back, obs):
            assert row["article_id"] == o.article_id
            assert row["rud"] == o.rud  # repr round-trip is exact
            assert row["N"] == o.week_total

    def test_attach_transform_populates_both_steps(self, sample_corpus):
        from dwe import diststat
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        spec = diststat.TransformSpec(step1_family="power",
                                      step1_param=0.5, step2_power=1.0)
        out = rud.attach_transform(obs, spec)
        for o in out:
            assert o.y_star is not None and o.y_star_star is not None
            assert math.isfinite(o.y_star_star)

    @pytest.mark.parametrize("spec_args", [("power", 0.95, 0.55),
                                           ("log10-shift", 0.2, 1.82),
                                           ("power", 1.5, -0.5)])
    def test_attach_transform_equals_per_value_steps(self, synth_corpus,
                                                     spec_args):
        from dwe import diststat
        spec = diststat.TransformSpec(*spec_args)
        obs = rud.build_rud_dataset(synth_corpus, rud.CONSOLIDATED)
        out = rud.attach_transform(obs, spec)
        assert [(o.y_star, o.y_star_star) for o in out] \
            == [diststat.apply_transform_steps(o.rud, spec) for o in obs]
        assert [replace(o, y_star=None, y_star_star=None)
                for o in out] == obs

    @pytest.mark.parametrize("bad,first", [((0.2, -1.0), 0.2),
                                           ((-1.0, 0.2), -1.0),
                                           ((float("nan"), 0.2), "nan")])
    def test_attach_transform_raises_for_first_bad_ratio(self, sample_corpus,
                                                         bad, first):
        from dwe import diststat
        # log10(r) - 0.7 + 1 <= 0 for r <= 0.5
        spec = diststat.TransformSpec("log10-shift", -0.7, 0.5)
        obs = rud.build_rud_dataset(sample_corpus, rud.CONSOLIDATED)
        obs = [replace(o, rud=max(o.rud, 1.0)) for o in obs]
        obs[3] = replace(obs[3], rud=bad[0])
        obs[5] = replace(obs[5], rud=bad[1])
        with pytest.raises(ValueError) as scalar:
            diststat.apply_transform_steps(float(first), spec)
        with pytest.raises(ValueError) as vector:
            rud.attach_transform(obs, spec)
        assert str(vector.value) == str(scalar.value)
