"""Calendar derivations, country table, cleaning, CSV round-trips."""

import dataclasses
import math
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwe import corpus as cm, synth
from reference_corpus import gather_columns, raw_rows, reference_clean

DATES = st.dates(min_value=date(1990, 1, 1), max_value=date(2040, 12, 31))


class TestWeekday:
    def test_monday_is_one(self):
        assert cm.derive_weekday(date(2024, 1, 1)) == 1  # a Monday

    def test_sunday_is_seven(self):
        assert cm.derive_weekday(date(2024, 1, 7)) == 7

    def test_known_friday(self):
        assert cm.derive_weekday(date(2005, 12, 9)) == 5

    @given(DATES)
    def test_range(self, d):
        assert 1 <= cm.derive_weekday(d) <= 7

    @given(DATES)
    def test_consecutive_days_cycle(self, d):
        w1 = cm.derive_weekday(d)
        w2 = cm.derive_weekday(d + timedelta(days=1))
        assert w2 == w1 % 7 + 1


class TestWeekNumber:
    def test_worked_rows(self, sample_week_rows):
        for row in sample_week_rows:
            assert cm.derive_week_number(row["received"]) == row["week"], \
                row["received"]

    def test_jan_first_in_week_one(self):
        for year in range(1995, 2030):
            assert cm.derive_week_number(date(year, 1, 1)) == 1

    def test_week_54_exists(self):
        # 2000 starts on a Saturday; its Dec 31 lands in a 54th week
        assert cm.derive_week_number(date(2000, 12, 31)) == 54

    @given(DATES)
    def test_range(self, d):
        assert 1 <= cm.derive_week_number(d) <= 54

    @given(DATES)
    def test_weeks_start_on_sunday(self, d):
        # week number increments exactly when a Sunday starts
        w_today = cm.derive_week_number(d)
        nxt = d + timedelta(days=1)
        if nxt.year != d.year:
            return
        w_next = cm.derive_week_number(nxt)
        if cm.derive_weekday(nxt) == 7:
            assert w_next == w_today + 1
        else:
            assert w_next == w_today


class TestSeason:
    def test_winter_wraps_year_end(self):
        assert cm.derive_season(date(2010, 12, 25)) == "winter"
        assert cm.derive_season(date(2011, 1, 5)) == "winter"
        assert cm.derive_season(date(2011, 2, 28)) == "winter"

    def test_quarters(self):
        assert cm.derive_season(date(2010, 3, 1)) == "spring"
        assert cm.derive_season(date(2010, 6, 1)) == "summer"
        assert cm.derive_season(date(2010, 9, 1)) == "fall"

    @given(DATES)
    def test_total_partition(self, d):
        assert cm.derive_season(d) in cm.SEASONS


class TestChristmasWindow:
    def test_window_edges(self):
        assert cm.in_christmas_window(date(2010, 12, 20))
        assert cm.in_christmas_window(date(2011, 1, 10))
        assert not cm.in_christmas_window(date(2010, 12, 19))
        assert not cm.in_christmas_window(date(2011, 1, 11))

    @given(DATES)
    def test_inside_iff_day_in_window(self, d):
        inside = ((d.month == 12 and d.day >= 20)
                  or (d.month == 1 and d.day <= 10))
        assert cm.in_christmas_window(d) == inside


class TestWeekendSchedules:
    def test_default_weekend(self, country_table):
        us = country_table["US"]
        assert us.weekend_days(date(2015, 6, 6)) == frozenset({6, 7})

    def test_saudi_switch(self, country_table):
        sa = country_table["SA"]
        # Thu/Fri weekend before mid-2013, Fri/Sat after
        assert sa.weekend_days(date(2013, 6, 1)) == frozenset({4, 5})
        assert sa.weekend_days(date(2013, 6, 29)) == frozenset({5, 6})
        assert cm.classify_weekend(date(2015, 6, 5), sa)   # a Friday
        assert not cm.classify_weekend(date(2015, 6, 7), sa)  # a Sunday

    def test_nepal_single_day(self, country_table):
        np_ = country_table["NP"]
        assert np_.weekend_days(date(2015, 6, 6)) == frozenset({6})

    def test_table_is_wellformed(self, country_table):
        for iso, profile in country_table.items():
            assert profile.iso == iso
            assert profile.continent in cm.CONTINENTS
            assert 0.0 < profile.hdi <= 1.0
            assert profile.lto is None or 0 <= profile.lto <= 100
            froms = [entry[0] for entry in profile.weekend_schedule]
            assert all(a < b for a, b in zip(froms, froms[1:]))


def _row(**kw):
    base = dict(id=1, journal="j", received=date(2010, 5, 3),
                revised=None, online=None, author_count=2,
                page_count=3, country="US")
    base.update(kw)
    return cm.RawRecord(**base)


def assert_same_columns(got, want):
    for f in dataclasses.fields(cm.FeatureColumns):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


class TestDeriveFeatures:
    def test_log_features(self, country_table):
        row = _row(received=date(2012, 3, 9), author_count=10)
        cols = cm.clean_corpus([row], country_table).columns
        assert cols.log10_authors.tolist() == [1.0]
        assert cols.weekday.tolist() == [5]
        assert cols.season.tolist() == [cm.SEASONS.index("spring")]
        assert cols.continent.tolist() == [cm.CONTINENTS.index("america")]
        assert cols.is_weekend.tolist() == [False]
        assert cols.is_christmas.tolist() == [False]

    def test_lto_zero_is_missing(self, country_table):
        table = {iso: cm.CountryProfile(iso=iso, continent="asia", hdi=0.7,
                                        lto=lto, names=("nowhere",))
                 for iso, lto in (("XX", None), ("YY", 0.0))}
        cols = cm.clean_corpus([_row(id=1, country="XX"),
                                _row(id=2, country="YY")], table).columns
        assert np.isnan(cols.log10_lto).all()


class TestColumnarClean:
    @settings(max_examples=200, deadline=None)
    @given(raw_rows())
    def test_equals_row_wise_reference(self, country_table, rows):
        c = cm.clean_corpus(rows, country_table)
        pairs, report = reference_clean(rows, country_table)
        assert c.cleaning_report == report
        assert c.records == tuple(row for row, _ in pairs)
        assert_same_columns(c.columns, gather_columns(pairs))

    def test_every_country_equals_row_wise_reference(self, country_table):
        cfg = synth.SynthConfig(seed=3, start_year=2012, end_year=2014,
                                articles_per_week=60.0,
                                journals=("a", "b", "c"),
                                countries=tuple(sorted(country_table)))
        rows = synth.make_corpus_rows(cfg)
        c = cm.clean_corpus(rows, country_table)
        pairs, report = reference_clean(rows, country_table)
        assert len(c.columns.countries) == len(country_table)
        assert c.cleaning_report == report
        assert_same_columns(c.columns, gather_columns(pairs))


class TestCleaning:
    _raw = staticmethod(_row)

    def test_drops_counted_by_reason(self, country_table):
        rows = [self._raw(),
                self._raw(id=2, received=None),
                self._raw(id=3, country=""),
                self._raw(id=4, country="ZZ"),
                self._raw(id=5, author_count=0)]
        c = cm.clean_corpus(rows, country_table)
        assert len(c.records) == 1
        assert c.cleaning_report["no-reception-date"] == 1
        assert c.cleaning_report["unclear-country"] == 2
        assert c.cleaning_report["no-authors"] == 1

    def test_duplicate_id_is_error(self, country_table):
        rows = [self._raw(), self._raw()]
        with pytest.raises(ValueError, match="duplicate"):
            cm.clean_corpus(rows, country_table)

    def test_idempotent(self, country_table, tmp_path):
        rows = [self._raw(id=i, received=date(2010, 5, i)) for i in (4, 2, 6)]
        rows += [self._raw(id=7, received=None), self._raw(id=8, country="")]
        once = cm.clean_corpus(rows, country_table)
        path = tmp_path / "cleaned.csv"
        cm.write_corpus_csv(once.records, str(path))
        again = cm.clean_corpus(cm.read_corpus_csv(str(path)), country_table)
        assert again.records == once.records
        assert sum(again.cleaning_report.values()) == 0
        assert_same_columns(again.columns, once.columns)

    def test_output_sorted_by_id(self, country_table):
        rows = [self._raw(id=i) for i in (5, 2, 9, 1)]
        c = cm.clean_corpus(rows, country_table)
        assert [r.id for r in c.records] == [1, 2, 5, 9]
        assert c.columns.article_id.tolist() == [1, 2, 5, 9]

    @pytest.mark.parametrize("bad,message", [
        (dict(journal=""), "record 7: empty journal id"),
        (dict(page_count=-1), "record 7: negative page_count")])
    def test_bad_kept_row_is_error(self, country_table, bad, message):
        rows = [self._raw(), self._raw(id=7, **bad)]
        with pytest.raises(ValueError, match=message):
            cm.clean_corpus(rows, country_table)

    @pytest.mark.parametrize("bad,message", [
        (dict(id=2**63), f"record {2**63}: id outside the 64-bit range"),
        (dict(id=-2**63 - 1),
         f"record {-2**63 - 1}: id outside the 64-bit range"),
        (dict(id=7, author_count=2**63),
         "record 7: author_count outside the 64-bit range")])
    def test_number_beyond_int64_is_error(self, country_table, bad, message):
        rows = [self._raw(), self._raw(**bad)]
        with pytest.raises(ValueError) as info:
            cm.clean_corpus(rows, country_table)
        assert str(info.value) == message

    def test_int64_bounds_are_kept(self, country_table):
        rows = [self._raw(id=-2**63), self._raw(id=2**63 - 1,
                                                author_count=2**63 - 1)]
        c = cm.clean_corpus(rows, country_table)
        assert c.columns.article_id.tolist() == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("drop,reason", [
        (dict(received=None), "no-reception-date"),
        (dict(country="ZZ"), "unclear-country"),
        (dict(author_count=0), "no-authors")])
    def test_dropped_row_is_not_checked(self, country_table, drop, reason):
        rows = [self._raw(),
                self._raw(id=7, journal="", page_count=-1, **drop)]
        c = cm.clean_corpus(rows, country_table)
        assert [r.id for r in c.records] == [1]
        assert c.cleaning_report[reason] == 1
        assert sum(c.cleaning_report.values()) == 1


raw_records = st.builds(
    cm.RawRecord,
    id=st.integers(min_value=1, max_value=10**6),
    journal=st.sampled_from(["plos one", "nature", "cell"]),
    received=st.one_of(st.none(), DATES),
    revised=st.none(),
    online=st.none(),
    author_count=st.integers(min_value=0, max_value=50),
    page_count=st.integers(min_value=0, max_value=80),
    country=st.sampled_from(["US", "DE", "JP", "ZZ", ""]),
)


class TestCsvRoundTrip:
    @settings(max_examples=50)
    @given(st.lists(raw_records, max_size=30))
    def test_rows_survive(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        cm.write_corpus_csv(rows, str(path))
        back = cm.read_corpus_csv(str(path))
        assert back == rows

    def test_table_form(self, tmp_path):
        # the form of every table the package writes
        path = tmp_path / "t.csv"
        cm.write_table(str(path), ("x", "y", "z"), [
            (math.nan, math.inf, -math.inf), (-0.0, 1e-300, 0.1),
            (None, 7, np.float64(1 / 3)),
            ("Zürich", 'say "a,b"', "two\nlines")])
        assert path.read_bytes() == (
            "x,y,z\r\n"
            "nan,inf,-inf\r\n"
            "-0.0,1e-300,0.1\r\n"
            ",7,0.3333333333333333\r\n"
            'Zürich,"say ""a,b""","two\nlines"\r\n').encode("utf-8")

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            cm.read_corpus_csv(str(path))

    @pytest.mark.parametrize("line,message", [
        ("1,j,2010-01-04,,,2,3", "expected 8 fields, got 7"),
        ("1,j,2010-01-04,,,2,3,US,x", "expected 8 fields, got 9"),
        ("1,j,2010-01-04,,,x,3,US", "invalid literal for int"),
        ("one,j,2010-01-04,,,2,3,US", "invalid literal for int"),
        ("1,j,2010-02-30,,,2,3,US", "day is out of range"),
        ("1,j,2010-01-04,,04/01/2010,2,3,US", "'04/01/2010'"),
        ("1_0,j,2010-01-04,,,2,3,US", "not a canonical integer: '1_0'"),
        ("1,j,2010-01-04,,, 3 ,3,US", "not a canonical integer: ' 3 '"),
        ("1,j,20100105,,,2,3,US", "not a YYYY-MM-DD date: '20100105'"),
        ("1,j,2010-01-04,,2010-W01-1,2,3,US",
         "not a YYYY-MM-DD date: '2010-W01-1'"),
        pytest.param("1," + "j" * 200_000 + ",2010-01-04,,,2,3,US",
                     "field larger than field limit", id="oversized-field")])
    def test_bad_row_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(cm.CSV_COLUMNS) + "\n"
                        "9,j,2010-01-04,,,2,3,US\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} line 3: ") + ".*" + re.escape(message)):
            cm.read_corpus_csv(str(path))

    def test_blank_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(",".join(cm.CSV_COLUMNS) + "\n"
                        "9,j,2010-01-04,,,2,3,US\n\n"
                        "10,j,2010-13-04,,,2,3,US\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} line 4: month must be in 1..12")):
            cm.read_corpus_csv(str(path))
        path.write_text(",".join(cm.CSV_COLUMNS) + "\n\n"
                        "9,j,2010-01-04,,,2,3,US\n\n")
        assert [r.id for r in cm.read_corpus_csv(str(path))] == [9]

    def test_negative_page_count_reaches_clean(self, tmp_path,
                                               country_table):
        # the reader keeps the sign so that clean can name the record
        path = tmp_path / "neg.csv"
        path.write_text(",".join(cm.CSV_COLUMNS) + "\n"
                        "9,j,2010-01-04,,,2,-3,US\n")
        rows = cm.read_corpus_csv(str(path))
        assert rows[0].page_count == -3
        with pytest.raises(ValueError, match="record 9: negative page_count"):
            cm.clean_corpus(rows, country_table)


class TestCountriesCfg:
    def test_parse_schedule_line(self, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text(
            'iso=SA continent=asia hdi=0.85 lto=36 name="saudi arabia" '
            "from=2013-06-29 days=5,6\n")
        table = cm.read_countries_cfg(str(path))
        sa = table["SA"]
        assert sa.weekend_days(date(2014, 1, 1)) == frozenset({5, 6})
        assert sa.weekend_days(date(2010, 1, 1)) == cm.DEFAULT_WEEKEND

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text("iso=US continent=america hdi=0.9 wat=1\n")
        with pytest.raises(ValueError):
            cm.read_countries_cfg(str(path))

    @pytest.mark.parametrize("schedule,message", [
        # forms date.fromisoformat reads on some Pythons only
        ("from=20130629 days=5,6", "not a YYYY-MM-DD date: '20130629'"),
        ("from=2013-W26-6 days=5,6", "not a YYYY-MM-DD date: '2013-W26-6'"),
        ("from=2013-06-29 days=5,0_6", "not a canonical integer: '0_6'")])
    def test_schedule_values_read_as_the_corpus_csv_does(
            self, tmp_path, schedule, message):
        path = tmp_path / "one.cfg"
        path.write_text(f"iso=SA continent=asia hdi=0.85 {schedule}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path} line 1: {message}")):
            cm.read_countries_cfg(str(path))

    @pytest.mark.parametrize("text,message", [
        ("{sa} wat", "line 1: bare token 'wat'"),
        ("{sa} from=2013-06-29", "line 1: from= without matching days="),
        ("{sa} from=2013-06-29 from=2014-01-01 days=5,6",
         "line 1: from= without matching days="),
        ("{sa} days=5,6", "line 1: days= without preceding from="),
        ("{sa}\n# again\n{sa}", "line 3: duplicate SA"),
        ("iso= continent=asia hdi=0.85", "line 1: empty ISO code"),
        ("iso=SA continent=asia hdi=1.5", "line 1: HDI out of (0, 1]: 1.5"),
        ("{sa} lto=101", "line 1: LTO out of [0, 100]: 101.0"),
        ("{sa} from=2013-06-29 days=5,8",
         "line 1: weekend day codes must be within 1..7"),
        # entries come in date order; they are never re-sorted
        ("{sa} from=2013-06-29 days=5,6 from=1900-01-01 days=4,5",
         "line 1: weekend schedule dates must increase")],
        ids=["bare-token", "from-at-end", "from-then-from", "days-first",
             "duplicate-iso", "empty-iso", "hdi", "lto", "weekday-code",
             "dates-out-of-order"])
    def test_bad_line_names_file_line_and_fault(self, tmp_path, text,
                                                message):
        path = tmp_path / "one.cfg"
        path.write_text(text.format(sa="iso=SA continent=asia hdi=0.85")
                        + "\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path} {message}")):
            cm.read_countries_cfg(str(path))

    def test_repeated_start_date_rejected(self, tmp_path):
        # 0001-01-01 too: Sat+Sun before the first entry is not an entry
        path = tmp_path / "one.cfg"
        path.write_text("iso=SA continent=asia hdi=0.85 "
                        "from=0001-01-01 days=4,5 from=0001-01-01 days=5,6\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} line 1: weekend schedule dates must increase")):
            cm.read_countries_cfg(str(path))
