"""Selection expressions, localization quotients, natural breaks, export."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import exhaustive_jenks
from dwe import corpus as cm, geo


class TestSelectionParser:
    def test_bracketed_field_style(self):
        sel = geo.parse_selection(
            "[received_week_day] = 2 OR [received_week_day] = 3 "
            "OR [received_week_day] = 4")
        assert sel.matches(2, "x") and sel.matches(3, "x") \
            and sel.matches(4, "x")
        assert not sel.matches(1, "x") and not sel.matches(5, "x")

    def test_journal_conjunction(self):
        sel = geo.parse_selection(
            "[received_week_day] = 6 OR [received_week_day] = 7 "
            "AND [idj] = cell")
        # OR binds looser than AND: saturday anywhere, sunday only in cell
        assert sel.matches(6, "nature")
        assert sel.matches(7, "cell")
        assert not sel.matches(7, "nature")

    def test_in_list_styles_agree(self):
        a = geo.parse_selection("weekday in [6, 7]")
        b = geo.parse_selection("weekday in 6, 7")
        c = geo.parse_selection("weekday = 6 OR weekday = 7")
        for wd in range(1, 8):
            assert a.matches(wd, "j") == b.matches(wd, "j") \
                == c.matches(wd, "j")

    def test_parentheses_group_or(self):
        sel = geo.parse_selection("(weekday = 1 OR weekday = 2)")
        assert sel.matches(1, "j") and sel.matches(2, "j")
        assert not sel.matches(3, "j")

    def test_or_inside_and_distributes(self):
        sel = geo.parse_selection(
            "(weekday = 1 OR weekday = 2) AND journal = cell")
        assert sel.matches(1, "cell") and sel.matches(2, "cell")
        assert not sel.matches(1, "nature")
        assert not sel.matches(3, "cell")

    def test_anded_ors_parse_in_small_memory(self):
        # 16 ANDed two-way ORs: written out as a disjunction of
        # conjunctions this is 2**16 clauses
        text = " and ".join(["(weekday = 1 or journal = a)"] * 16)
        tracemalloc.start()
        try:
            sel = geo.parse_selection(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        for wd in range(1, 8):
            for journal in ("a", "b"):
                assert sel.matches(wd, journal) == (wd == 1 or journal == "a")

    def test_nesting_depth_is_bounded(self):
        # the deepest nesting accepted still evaluates all the way down;
        # one level more is a named error, not a RecursionError
        def nested(depth):
            return ("weekday = 2 and (weekday = 1 or " * depth
                    + "weekday = 2" + ")" * depth)
        sel = geo.parse_selection(nested(100))
        assert sel.matches(2, "j") and not sel.matches(1, "j")
        with pytest.raises(ValueError, match="nest deeper than 100"):
            geo.parse_selection(nested(101))
        with pytest.raises(ValueError, match="nest deeper than 100"):
            geo.parse_selection("(" * 400 + "weekday = 1" + ")" * 400)

    def test_bad_weekday_rejected(self):
        with pytest.raises(ValueError):
            geo.parse_selection("weekday = 9")
        with pytest.raises(ValueError):
            geo.parse_selection("weekday = mon")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            geo.parse_selection("planet = 3")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            geo.parse_selection("weekday = 1 weekday = 2")

    @given(st.integers(min_value=1, max_value=7))
    def test_single_day_matches_only_itself(self, wd):
        sel = geo.parse_selection(f"weekday = {wd}")
        for other in range(1, 8):
            assert sel.matches(other, "j") == (other == wd)


def selected(sel, row):
    return sel.matches(cm.derive_weekday(row.received), row.journal)


def lq_corpus(seed):
    """Random corpora for recount oracles, via the planted generator."""
    from dwe import synth
    cfg = synth.SynthConfig(seed=seed, start_year=2011, end_year=2011,
                            articles_per_week=12.0,
                            journals=("j1", "j2"))
    return synth.make_corpus(cfg)


class TestLocalizationQuotient:
    def test_brute_force_recount(self):
        corpus = lq_corpus(1)
        sel = geo.parse_selection("weekday in 2, 3, 4")
        entries = geo.localization_quotient(corpus, sel)
        sel_world = sum(1 for r in corpus.records if selected(sel, r))
        tot_by_c, sel_by_c = {}, {}
        for r in corpus.records:
            iso = r.country
            tot_by_c[iso] = tot_by_c.get(iso, 0) + 1
            if selected(sel, r):
                sel_by_c[iso] = sel_by_c.get(iso, 0) + 1
        assert {e.country for e in entries} == set(tot_by_c)
        for e in entries:
            expect = 100.0 * (sel_by_c.get(e.country, 0)
                              / tot_by_c[e.country]) \
                / (sel_world / len(corpus.records))
            assert e.lq == pytest.approx(expect, abs=1e-9)

    def test_world_total_identity(self):
        corpus = lq_corpus(2)
        sel = geo.parse_selection("weekday in 6, 7")
        entries = geo.localization_quotient(corpus, sel)
        assert sum(e.selected_count for e in entries) \
            == sum(1 for r in corpus.records if selected(sel, r))
        assert sum(e.total_count for e in entries) == len(corpus.records)

    def test_uniform_country_lq_is_100(self):
        corpus = lq_corpus(3)
        # selecting everything gives every country the world share
        sel = geo.parse_selection("weekday in 1,2,3,4,5,6,7")
        for e in geo.localization_quotient(corpus, sel):
            assert e.lq == pytest.approx(100.0, abs=1e-9)

    def test_empty_selection_rejected(self):
        corpus = lq_corpus(4)
        sel = geo.parse_selection("journal = nosuch")
        with pytest.raises(ValueError):
            geo.localization_quotient(corpus, sel)


class TestJenks:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=300.0),
                    min_size=5, max_size=12, unique=True),
           st.integers(min_value=2, max_value=4))
    def test_matches_exhaustive_optimum(self, values, k):
        br = geo.jenks_breaks(values, k)
        expect = exhaustive_jenks(values, k)
        assert br.total_ssd == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_simple_two_cluster(self):
        values = [1.0, 1.1, 1.2, 10.0, 10.1]
        br = geo.jenks_breaks(values, 2)
        assert br.class_of(1.1) == 0
        assert br.class_of(10.0) == 1

    def test_class_assignment_monotone(self):
        values = [3.0, 8.0, 9.0, 20.0, 21.0, 40.0, 50.0]
        br = geo.jenks_breaks(values, 3)
        labels = [br.class_of(v) for v in sorted(values)]
        assert labels == sorted(labels)
        assert set(labels) == {0, 1, 2}

    def test_boundaries_strictly_increasing(self):
        values = [5.0, 5.0, 5.0, 6.0, 90.0, 91.0, 200.0]
        br = geo.jenks_breaks(values, 3)
        assert list(br.boundaries) == sorted(set(br.boundaries))

    def test_ties_collapse_to_distinct_values(self):
        values = [2.0] * 6 + [7.0] * 3
        br = geo.jenks_breaks(values, 2)
        assert br.total_ssd == pytest.approx(0.0, abs=1e-12)
        assert br.class_of(2.0) == 0 and br.class_of(7.0) == 1

    @pytest.mark.parametrize("values,k,boundaries", [
        ([0, 1, 3, 4], 3, (1.0, 3.0)),
        ([0, 1, 3, 4, 6, 7], 4, (1.0, 3.0, 6.0))])
    def test_exact_ties_take_the_smallest_boundaries(self, values, k,
                                                     boundaries):
        # every pair split off alone ties; the first boundary vector wins
        assert geo.jenks_breaks(values, k).boundaries == boundaries

    def test_more_classes_than_values_rejected(self):
        with pytest.raises(ValueError):
            geo.jenks_breaks([1.0, 2.0], 3)

    def test_no_values_rejected(self):
        with pytest.raises(ValueError, match="no values to classify"):
            geo.jenks_breaks([], 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # a NaN sorts anywhere and no cost involving it compares
        with pytest.raises(ValueError, match="non-finite value"):
            geo.jenks_breaks([1.0, 2.0, bad, 4.0, 5.0], 3)

    def test_overflowing_sum_of_squares_rejected(self):
        # with the squares at inf every split would score the same, and
        # the first one, 2e160, would win over the optimal 5e160
        with pytest.raises(ValueError, match="sum of squares overflows"):
            geo.jenks_breaks([1e160, 2e160, 5e160, 9e160], 2)

    def test_large_values_below_overflow(self):
        br = geo.jenks_breaks([1e150, 2e150, 5e150, 9e150], 2)
        assert br.boundaries == (5e150,)
        assert br.total_ssd == pytest.approx(
            exhaustive_jenks([1e150, 2e150, 5e150, 9e150], 2), rel=1e-9)

    def test_deterministic(self):
        values = [4.0, 1.0, 7.0, 7.0, 3.0, 12.0, 9.5]
        a = geo.jenks_breaks(values, 3)
        b = geo.jenks_breaks(list(reversed(values)), 3)
        assert a == b


class TestExport:
    def test_outputs_are_deterministic(self, tmp_path, country_table):
        corpus = lq_corpus(5)
        sel = geo.parse_selection("weekday in 6,7")
        entries = geo.localization_quotient(corpus, sel)
        br = geo.jenks_breaks([e.lq for e in entries], 3)
        allc = sorted(country_table)
        outs = []
        for tag in ("a", "b"):
            csv_p = tmp_path / f"{tag}.csv"
            gj_p = tmp_path / f"{tag}.geojson"
            geo.export_choropleth(entries, br, str(csv_p), str(gj_p),
                                  all_countries=allc)
            outs.append((csv_p.read_bytes(), gj_p.read_bytes()))
        assert outs[0] == outs[1]

    def test_geojson_shape(self, tmp_path, country_table):
        corpus = lq_corpus(6)
        sel = geo.parse_selection("weekday in 1")
        entries = geo.localization_quotient(corpus, sel)
        br = geo.jenks_breaks([e.lq for e in entries], 2)
        csv_p, gj_p = tmp_path / "x.csv", tmp_path / "x.geojson"
        allc = sorted(country_table)
        geo.export_choropleth(entries, br, str(csv_p), str(gj_p),
                              all_countries=allc)
        doc = json.loads(gj_p.read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == len(allc)
        classified = {e.country for e in entries}
        for feat in doc["features"]:
            props = feat["properties"]
            if props["iso"] in classified:
                assert 0 <= props["class_index"] < 2
            else:
                assert props["lq"] is None

    def test_null_rows_in_csv(self, tmp_path, country_table):
        corpus = lq_corpus(7)
        sel = geo.parse_selection("weekday in 2")
        entries = geo.localization_quotient(corpus, sel)
        br = geo.jenks_breaks([e.lq for e in entries], 2)
        csv_p, gj_p = tmp_path / "y.csv", tmp_path / "y.geojson"
        geo.export_choropleth(entries, br, str(csv_p), str(gj_p),
                              all_countries=sorted(country_table)
                              + ["ZZ_NOT_REAL"])
        lines = csv_p.read_text().splitlines()
        assert lines[0] == "country,lq,class_index"
        classified = {e.country for e in entries}
        for line in lines[1:]:
            iso, lq, cls = line.split(",")
            if iso not in classified:
                assert lq == "" and cls == ""
