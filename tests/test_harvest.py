"""History strings, page ranges, country resolution, JATS, card files."""

import multiprocessing
import re
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_harvest as ref
from dwe import corpus, harvest

JATS_OK = """junk before the declaration<?xml version="1.0"?>
<article>
 <front>
  <article-meta>
   <article-categories>
    <subj-group><subject>Research Article</subject></subj-group>
   </article-categories>
   <title-group><article-title>A study</article-title></title-group>
   <contrib-group>
    <contrib contrib-type="author" corresp="yes">
     <name><surname>Lee</surname></name>
     <xref ref-type="aff" rid="aff1"/>
    </contrib>
    <contrib contrib-type="author">
     <name><surname>Kim</surname></name>
     <xref ref-type="aff" rid="aff2"/>
    </contrib>
   </contrib-group>
   <aff id="aff1"><addr-line>Univ A, Rome, Italy</addr-line></aff>
   <aff id="aff2"><addr-line>Univ B, Lyon, France</addr-line></aff>
   <history>
    <date date-type="received"><day>7</day><month>8</month><year>2006</year></date>
    <date date-type="accepted"><day>1</day><month>9</month><year>2006</year></date>
   </history>
   <pub-date pub-type="epub"><day>15</day><month>9</month><year>2006</year></pub-date>
   <article-id pub-id-type="doi">10.1371/journal.pone.0000001</article-id>
   <counts><page-count count="12"/></counts>
  </article-meta>
 </front>
</article>
"""


NO_COUNTRIES = harvest.build_name_lookup({})


def history_dates(text: str, style: str) -> tuple:
    """The (received, revised, online) dates of a card whose only field is
    the history line ``text``."""
    rec = harvest.card_to_raw_record({"history": text}, 1, "j", style,
                                     NO_COUNTRIES)
    return rec.received, rec.revised, rec.online


class TestHistoryStrings:
    def test_physica_style(self):
        # the acceptance date in these strings has no output slot; the
        # revised-form and online dates land in revised/online
        assert history_dates(
            "Received 9 December 2005; received in revised form "
            "3 February 2006; accepted 10 February 2006; "
            "available online 28 February 2006", "physica-like") \
            == (date(2005, 12, 9), date(2006, 2, 3), date(2006, 2, 28))

    def test_plos_style_keeps_comma_dates(self):
        assert history_dates(
            "Received: August 7, 2006; Accepted: September 1, 2006; "
            "Published: September 15, 2006", "plos-like") \
            == (date(2006, 8, 7), date(2006, 9, 1), date(2006, 9, 15))

    def test_nature_style_numeric(self):
        assert history_dates(
            "Received 2006-08-07; Accepted 2006-09-01", "nature-like") \
            == (date(2006, 8, 7), date(2006, 9, 1), None)

    def test_missing_keyword_leaves_none(self):
        assert history_dates("Received 9 December 2005", "physica-like") \
            == (date(2005, 12, 9), None, None)

    def test_keyword_without_date_leaves_slot_empty(self):
        assert history_dates(
            "Received ; received in revised form 10 February 2006",
            "physica-like") == (None, date(2006, 2, 10), None)

    def test_short_month_names(self):
        assert history_dates("Received 3 Sept 2011", "physica-like")[0] \
            == date(2011, 9, 3)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="unknown history style"):
            history_dates("Received 1 May 2010", "wat")


class TestExtractPages:
    def test_simple_range(self):
        assert harvest.extract_pages("Pages 101-110") == (101, 110)

    def test_single_page(self):
        assert harvest.extract_pages("pages 5-5") == (5, 5)

    def test_no_marker_is_zero(self):
        assert harvest.extract_pages("vol 12, no 3") == (0, 0)

    def test_garbled_range_is_zero(self):
        assert harvest.extract_pages("pages i-xii") == (0, 0)

    def test_three_part_range_is_zero(self):
        assert harvest.extract_pages("pages 1-2-3") == (0, 0)


@pytest.fixture(scope="module")
def lookup(country_table):
    return harvest.build_name_lookup(country_table)


class TestCountryNormalization:
    def test_name_collision_rejected(self):
        table = {iso: corpus.CountryProfile(iso=iso, continent="asia",
                                            hdi=0.7, names=(name,))
                 for iso, name in (("XX", "Nowhere"), ("YY", "NOWHERE"))}
        with pytest.raises(ValueError, match=re.escape(
                "name 'NOWHERE' maps to both XX and YY")):
            harvest.build_name_lookup(table)

    def test_same_name_in_two_cases_for_one_code(self):
        table = {"IT": corpus.CountryProfile(iso="IT", continent="europe",
                                             hdi=0.9,
                                             names=("Italy", "ITALY"))}
        lookup = harvest.build_name_lookup(table)
        assert lookup.names == (("italy", "IT"),)
        assert harvest.normalize_country("Rome, Italy", lookup) == "IT"

    def test_exact_and_case(self, lookup):
        assert harvest.normalize_country("Italy", lookup) == "IT"
        assert harvest.normalize_country("ITALY", lookup) == "IT"

    def test_containment(self, lookup):
        got = harvest.normalize_country(
            "Dept. of Physics, University of Rome, Italy", lookup)
        assert got == "IT"

    def test_nested_name_prefers_longer(self, lookup):
        assert harvest.normalize_country("Lagos, Nigeria", lookup) == "NG"
        assert harvest.normalize_country("Niamey, Niger", lookup) == "NE"

    def test_ambiguous_gives_none(self, lookup):
        assert harvest.normalize_country("France and Germany",
                                         lookup) is None

    def test_unknown_gives_none(self, lookup):
        assert harvest.normalize_country("Atlantis", lookup) is None

    def test_us_state_maps_to_us(self, lookup):
        assert harvest.normalize_country("Berkeley, California",
                                         lookup) == "US"

    def test_state_plus_us_name_still_us(self, lookup):
        got = harvest.normalize_country(
            "Berkeley, California, United States", lookup)
        assert got == "US"

    def test_georgia_is_the_country(self, lookup):
        assert harvest.normalize_country("Tbilisi, Georgia", lookup) == "GE"

    @given(name=st.sampled_from(["Italy", "Niger", "Nigeria", "Oman",
                                 "Romania", "South Korea"]),
           pad=st.text(alphabet="abcdefgh ,.", max_size=20))
    def test_padding_never_changes_unique_match(self, lookup, name, pad):
        base = harvest.normalize_country(name, lookup)
        padded = harvest.normalize_country(f"{pad} {name}", lookup)
        assert base is not None
        assert padded == base


_SHIPPED = corpus.load_default_countries()
_NAMES = tuple(ref.build_name_lookup(_SHIPPED))  # with the US states
# characters whose casefold is not their lowercase, or longer than one
_CASEFOLD_ODD = "ßẞİıſKﬀΣς"
_CASES = (str.upper, str.lower, str.title, str.swapcase, str.casefold)


class TestCountryAgainstReference:
    """The memoized resolver answers as the per-call casefolding one."""

    @staticmethod
    def _check(text, lookup, table):
        expected = ref.normalize_country(text, table)
        assert harvest.normalize_country(text, lookup) == expected, text
        # the second answer comes from the memo
        assert harvest.normalize_country(text, lookup) == expected, text

    def test_shipped_names_and_their_substrings(self):
        lookup = harvest.build_name_lookup(_SHIPPED)
        table = ref.build_name_lookup(_SHIPPED)
        strings = {name[i:j] for name in _NAMES
                   for i in range(len(name))
                   for j in range(i + 1, len(name) + 1)}
        for text in sorted(strings):
            self._check(text, lookup, table)

    @pytest.mark.parametrize("text", [
        "Rußia", "RUSSIA", "Ruſſia", "İtaly", "İTALY", "ıtaly", "Straße",
        "Kuwait", "Pakiſtan", "ŞPAIN", "", " "])
    def test_non_ascii_casefold(self, text):
        self._check(text, harvest.build_name_lookup(_SHIPPED),
                    ref.build_name_lookup(_SHIPPED))

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(_NAMES), case=st.sampled_from(_CASES),
           before=st.text(alphabet=" ,.;-()abcXYZß", max_size=12),
           after=st.text(alphabet=" ,.;-()abcXYZİ", max_size=12))
    def test_case_and_padding_variants(self, name, case, before, after):
        self._check(before + case(name) + after,
                    harvest.build_name_lookup(_SHIPPED),
                    ref.build_name_lookup(_SHIPPED))

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(st.text(
        alphabet=sorted(set("".join(_NAMES)) | set(_CASEFOLD_ODD)),
        max_size=30), max_size=5))
    def test_drawn_text(self, texts):
        lookup = harvest.build_name_lookup(_SHIPPED)
        table = ref.build_name_lookup(_SHIPPED)
        for text in texts + texts:
            self._check(text, lookup, table)

    def test_answers_follow_the_lookup_not_the_text(self):
        # the cache outlives a harvest, so the same string meets two
        # lookups in one process
        without_ge = {iso: p for iso, p in _SHIPPED.items() if iso != "GE"}
        assert harvest.normalize_country(
            "Tbilisi, Georgia", harvest.build_name_lookup(_SHIPPED)) == "GE"
        assert harvest.normalize_country(
            "Tbilisi, Georgia", harvest.build_name_lookup(without_ge)) is None

    @settings(max_examples=100, deadline=None)
    @given(queries=st.lists(st.tuples(st.booleans(), st.sampled_from([
        "Berkeley, California", "Austin, TEXAS", "New York", "Georgia",
        "Tbilisi, Georgia", "Washington, United States", "Italy",
        "Niger", "Atlantis"])), min_size=1, max_size=12))
    def test_lookups_from_different_tables_share_no_memo(self, queries):
        without_us = {iso: p for iso, p in _SHIPPED.items() if iso != "US"}
        lookups = {True: harvest.build_name_lookup(_SHIPPED),
                   False: harvest.build_name_lookup(without_us)}
        tables = {True: ref.build_name_lookup(_SHIPPED),
                  False: ref.build_name_lookup(without_us)}
        for with_us, text in queries:
            self._check(text, lookups[with_us], tables[with_us])
        assert harvest.normalize_country("Austin, Texas",
                                         lookups[False]) is None
        assert harvest.normalize_country("Austin, Texas",
                                         lookups[True]) == "US"


_KEYWORDS = sorted({kw for pairs in harvest._SLOTS.values()
                    for kw, _ in pairs})


@st.composite
def _history_clauses(draw):
    """A keyword, in any case and spacing, then a date in any style."""
    keyword = draw(st.sampled_from(_KEYWORDS))
    keyword = draw(st.sampled_from(_CASES[:3]))(keyword).replace(
        " ", draw(st.sampled_from([" ", "  ", "\t", "\n"])))
    day, year = draw(st.sampled_from(["7", "07", "29", "31", "32", "0"])), \
        draw(st.sampled_from(["2006", "1999", "20061"]))
    month = draw(st.sampled_from(["August", "aug", "Sept", "SEPT",
                                  "February", "Febr", "13", "02"]))
    date_text = draw(st.sampled_from([f"{month} {day}, {year}",
                                      f"{day} {month} {year}",
                                      f"{year}-{month}-{day}", ""]))
    return keyword + draw(st.sampled_from([" ", ": ", ":", ""])) + date_text


class TestHistoryAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(style=st.sampled_from(harvest.HISTORY_STYLES),
           parts=st.lists(st.one_of(
               _history_clauses(),
               st.sampled_from(_KEYWORDS + ["May", "2006-08-07", "12"])),
               max_size=6),
           sep=st.sampled_from(["; ", ", ", " ", "\n"]))
    def test_equals_reference(self, style, parts, sep):
        text = sep.join(parts)
        assert history_dates(text, style) \
            == ref.parse_history_string(text, style)


class TestJats:
    def test_full_document(self):
        meta = harvest.parse_jats_article(JATS_OK.encode("utf-8"))
        assert meta.received == date(2006, 8, 7)
        assert meta.accepted == date(2006, 9, 1)
        assert meta.published == date(2006, 9, 15)
        assert meta.page_count == 12
        assert meta.authors == 2
        # the corresponding (first) author's Italy, then every affiliation
        assert meta.places == ("Italy", "France")

    def test_non_research_article_rejected(self):
        doc = JATS_OK.replace("Research Article", "Correction")
        with pytest.raises(harvest.NotResearchArticle):
            harvest.parse_jats_article(doc.encode("utf-8"))

    def test_subject_case_insensitive(self):
        doc = JATS_OK.replace("Research Article", "research article")
        harvest.parse_jats_article(doc.encode("utf-8"))  # must not raise

    def test_malformed_reports_location(self):
        with pytest.raises(harvest.JatsParseError):
            harvest.parse_jats_article(b"<?xml version='1.0'?><article>")

    @pytest.mark.parametrize("doc, tail", [
        (b'junk<?xml version="1.0"?>\n<article><x>\xc3\xa9\xc3\xa9<y></x>'
         b'</article>', b"x></article>"),
        # expat starts lines at CRLF and CR; a byte that is not UTF-8
        # decodes to one replacement character
        (b'ju\xffnk\xe2\x82<?xml version="1.0"?>\r\n<a>\xe2\x82\r<x>'
         b'\xc3\xa9\xff\xf0\x9f\x98\x80<y></x></a>', b"x></a>"),
        # U+0085 and U+2028 end no line for expat
        ('\u00e9<?xml version="1.0"?>\n<a>\x85\u2028<b/>\n'
         '<x>\u00e9<y></x></a>', b"x></a>"),
        (b"<a>\n<b>\xe2\x82\xac&bad;</b></a>", b"&bad;</b></a>"),
    ])
    def test_malformed_offset_is_bytes_of_the_document(self, doc, tail):
        raw = doc if isinstance(doc, bytes) else doc.encode("utf-8")
        with pytest.raises(harvest.JatsParseError) as info:
            harvest.parse_jats_article(raw)
        # expat places a mismatched end tag's failure at the tag's name
        assert raw[info.value.offset:] == tail

    @pytest.mark.parametrize("field", ["day", "month", "year"])
    def test_date_beyond_a_c_long_is_absent(self, field):
        # the received date's field; a C long ends below 2**64
        doc = re.sub(rf"<{field}>[0-9]+</{field}>",
                     f"<{field}>99999999999999999999</{field}>", JATS_OK,
                     count=1)
        meta = harvest.parse_jats_article(doc.encode("utf-8"))
        assert meta.received is None
        assert meta.accepted == date(2006, 9, 1)

    def test_received_after_accepted_rejected(self):
        # the document of test_subject_checked_before_any_date, with a
        # research subject
        document = (
            b'<article><date date-type="received"><day>9</day><month>9'
            b'</month><year>2006</year></date><date date-type="accepted">'
            b"<day>1</day><month>1</month><year>2006</year></date>"
            b"<subject>Research Article</subject></article>")
        with pytest.raises(ValueError) as info:
            harvest.parse_jats_article(document)
        assert type(info.value) is ValueError
        assert str(info.value) == "received 2006-09-09 after accepted " \
            "2006-01-01"

    def test_resolve_country_prefers_corresponding(self, country_table):
        lookup = harvest.build_name_lookup(country_table)
        # move the corresp flag to the second author; their affiliation
        # (France) must win over the first author's (Italy)
        doc = JATS_OK.replace(' corresp="yes"', "").replace(
            '<contrib contrib-type="author">\n     '
            '<name><surname>Kim</surname></name>',
            '<contrib contrib-type="author" corresp="yes">\n     '
            '<name><surname>Kim</surname></name>')
        meta = harvest.parse_jats_article(doc.encode("utf-8"))
        assert meta.places == ("France", "Italy")
        assert harvest.jats_to_raw_record(meta, 1, "j", lookup).country \
            == "FR"

    def test_resolve_falls_back_to_first_author(self, country_table):
        lookup = harvest.build_name_lookup(country_table)
        doc = JATS_OK.replace(' corresp="yes"', "")
        meta = harvest.parse_jats_article(doc.encode("utf-8"))
        assert meta.places == ("Italy", "France")
        assert harvest.jats_to_raw_record(meta, 1, "j", lookup).country \
            == "IT"


_JATS_LEAVES = st.one_of(
    st.sampled_from(["Research Article", "research article", "Editorial",
                     ""]).map(lambda s: f"<subject>{s}</subject>"),
    st.tuples(st.sampled_from(["date", "pub-date"]),
              st.sampled_from(['date-type="received"',
                               'date-type="accepted"', 'pub-type="epub"',
                               'pub-type="ppub"', ""]),
              st.sampled_from(["7", "31", "x", None]),
              st.sampled_from(["2", "8", "13", None]),
              st.sampled_from(["2006", "2005", None])).map(
        lambda t: f"<{t[0]} {t[1]}>" + "".join(
            f"<{k}>{v}</{k}>" for k, v in zip(("day", "month", "year"),
                                               t[2:]) if v is not None)
        + f"</{t[0]}>"),
    st.sampled_from(['count="12"', 'count="-3"', 'count="x"', ""]).map(
        lambda c: f"<page-count {c}/>"),
    st.tuples(st.sampled_from(['id="aff1"', 'id="aff2"', 'id=""', ""]),
              st.sampled_from(["Univ A, Rome, Italy", "Lyon, France", "",
                               "Nowhere"])).map(
        lambda t: f"<aff {t[0]}><addr-line>{t[1]}</addr-line></aff>"),
    st.tuples(st.sampled_from(['id="c1"', ""]),
              st.sampled_from(["a@b.org", ""])).map(
        lambda t: f"<corresp {t[0]}><email>{t[1]}</email></corresp>"),
    st.tuples(st.sampled_from(['contrib-type="author"',
                               'contrib-type="editor"']),
              st.sampled_from(['corresp="yes"', ""]),
              st.lists(st.sampled_from(["aff1", "aff2", "aff9", "c1", ""]),
                       max_size=3)).map(
        lambda t: f"<contrib {t[0]} {t[1]}>" + "".join(
            f'<xref rid="{r}"/>' for r in t[2]) + "</contrib>"),
)

#: elements that hold drawn children, so tags nest inside each other
_JATS_WRAPPERS = ("<g>{}</g>", '<contrib contrib-type="author">{}</contrib>',
                  '<aff id="aff2"><addr-line>Oslo, Norway</addr-line>{}</aff>',
                  '<date date-type="received">{}</date>',
                  "<subj-group>{}</subj-group>")

_JATS_BODIES = st.recursive(
    _JATS_LEAVES,
    lambda inner: st.tuples(st.sampled_from(_JATS_WRAPPERS),
                            st.lists(inner, max_size=4)).map(
        lambda t: t[0].format("".join(t[1]))),
    max_leaves=12)


def _jats_outcome(parse, document):
    try:
        return parse(document)
    except ValueError as exc:
        return type(exc), str(exc)


class TestJatsAgainstReference:
    """One walk of the tree reads what a walk per tag read."""

    @settings(max_examples=300, deadline=None)
    @given(bodies=st.lists(_JATS_BODIES, max_size=8))
    def test_drawn_documents(self, bodies):
        document = f"<article>{''.join(bodies)}</article>".encode("utf-8")
        assert _jats_outcome(harvest.parse_jats_article, document) \
            == _jats_outcome(ref.parse_jats_article, document)

    def test_repeated_and_nested_tags(self):
        # two subjects, two page counts, an aff nested in a contrib, a
        # date nested in a date, and rids that name no aff
        document = (
            b"<article><subject>Research Article</subject>"
            b"<subject>Editorial</subject>"
            b'<page-count count="4"/><page-count count="9"/>'
            b'<contrib contrib-type="author"><xref rid="aff7"/>'
            b'<xref rid="aff1"/><aff id="aff1"><addr-line>Kyoto, Japan'
            b"</addr-line></aff></contrib>"
            b'<date date-type="accepted"><date date-type="received"><day>2'
            b"</day><month>1</month><year>2006</year></date><day>3</day>"
            b"<month>1</month><year>2006</year></date></article>")
        meta = harvest.parse_jats_article(document)
        assert meta == ref.parse_jats_article(document)
        assert meta.page_count == 4
        assert meta.received == date(2006, 1, 2)
        assert meta.accepted == date(2006, 1, 3)
        assert meta.authors == 1
        assert meta.places == ("Japan",)
        assert harvest.jats_to_raw_record(
            meta, 1, "j", harvest.build_name_lookup(_SHIPPED)).country == "JP"

    def test_subject_checked_before_any_date(self):
        # the received date is after the accepted one, which would raise
        # a plain ValueError; the editorial subject must win
        document = (
            b'<article><date date-type="received"><day>9</day><month>9'
            b'</month><year>2006</year></date><date date-type="accepted">'
            b"<day>1</day><month>1</month><year>2006</year></date>"
            b"<subject>Editorial</subject></article>")
        with pytest.raises(harvest.NotResearchArticle):
            harvest.parse_jats_article(document)


CARDS = """Title: First
Authors: A. One, B. Two and C. Three
Pages: pages 10-19
History: Received 9 December 2005; accepted 10 February 2006
Country: Italy

Title: Second
Authors: Solo Author
History: Received 14 January 2005
Country: Germany
"""


class TestCards:
    def test_parse_and_convert(self, country_table):
        cards = harvest.parse_article_cards(CARDS)
        assert len(cards) == 2
        lookup = harvest.build_name_lookup(country_table)
        rec = harvest.card_to_raw_record(cards[0], 7, "j", "physica-like",
                                         lookup)
        assert rec.id == 7
        assert rec.received == date(2005, 12, 9)
        assert rec.author_count == 3
        assert rec.page_count == 10
        assert rec.country == "IT"

    def test_missing_pages_is_zero(self, country_table):
        cards = harvest.parse_article_cards(CARDS)
        lookup = harvest.build_name_lookup(country_table)
        rec = harvest.card_to_raw_record(cards[1], 8, "j", "physica-like",
                                         lookup)
        assert rec.page_count == 0
        assert rec.country == "DE"

    def test_comments_and_leading_blank_lines_dropped(self):
        text = ("\n# archive export\nTitle: First\n# a note\nPages: 1-2\n"
                "\n \n\t\nTitle: Second\n#Pages: 3-4\n")
        assert harvest.parse_article_cards(text) == [
            {"title": "First", "pages": "1-2"}, {"title": "Second"}]

    def test_title_only_block_is_a_card(self, country_table):
        # a title alone still makes a card, and so a row with no dates,
        # authors or country, which the clean stage then drops
        full = CARDS.split("\n\n")[0]
        cards = harvest.parse_article_cards("Title: Only a title\n\n" + full)
        assert len(cards) == 2
        lookup = harvest.build_name_lookup(country_table)
        rows = [harvest.card_to_raw_record(card, i, "j", "physica-like",
                                           lookup)
                for i, card in enumerate(cards, start=1)]
        assert rows[0].received is None
        assert rows[0].author_count == 0 and rows[0].country == ""
        assert cards[1] == harvest.parse_article_cards(full)[0]
        assert (rows[1].id, rows[1].received, rows[1].author_count,
                rows[1].page_count, rows[1].country) \
            == (2, date(2005, 12, 9), 3, 10, "IT")


class TestHarvestDirectory:
    def test_mixed_tree(self, tmp_path, country_table):
        (tmp_path / "b.txt").write_text(CARDS)
        (tmp_path / "a.xml").write_text(JATS_OK)
        (tmp_path / "broken.xml").write_text("<article>")
        lookup = harvest.build_name_lookup(country_table)
        rows, skipped = harvest.harvest_directory(
            str(tmp_path), "physica-like", "testj", lookup)
        # sorted order: a.xml first, then b.txt's two cards
        assert [r.id for r in rows] == [1, 2, 3]
        assert rows[0].received == date(2006, 8, 7)
        assert rows[1].country == "IT"
        assert len(skipped) == 1 and skipped[0][0] == "broken.xml"

    def test_unreadable_file_is_skipped(self, tmp_path, country_table,
                                        monkeypatch):
        # the suite may run as root, which chmod cannot lock out
        (tmp_path / "a.txt").write_text(CARDS, encoding="utf-8")
        (tmp_path / "b.txt").write_text(CARDS, encoding="utf-8")
        (tmp_path / "c.xml").write_text(JATS_OK, encoding="utf-8")
        real_read_text = Path.read_text

        def read_text(self, *args, **kwargs):
            if self.name == "a.txt":
                raise PermissionError(13, "Permission denied", str(self))
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_text)
        lookup = harvest.build_name_lookup(country_table)
        rows, skipped = harvest.harvest_directory(
            str(tmp_path), "physica-like", "j", lookup)
        assert skipped == [("a.txt", "unreadable: Permission denied")]
        assert [r.id for r in rows] == [1, 2, 3]

    def test_non_utf8_card_file_is_skipped(self, tmp_path, country_table):
        (tmp_path / "a.txt").write_bytes(CARDS.encode("utf-8") + b"\xff\xfe")
        (tmp_path / "b.txt").write_text(CARDS, encoding="utf-8")
        lookup = harvest.build_name_lookup(country_table)
        rows, skipped = harvest.harvest_directory(
            str(tmp_path), "physica-like", "j", lookup)
        assert [name for name, _ in skipped] == ["a.txt"]
        assert len(rows) == 2

    def test_unknown_style_raises_before_any_read(self, tmp_path,
                                                  country_table, monkeypatch):
        # skipped per file, a bad style would lose every card and keep the
        # XML articles, which do not use it
        (tmp_path / "a.xml").write_text(JATS_OK, encoding="utf-8")
        (tmp_path / "b.txt").write_text(CARDS, encoding="utf-8")

        def no_read(self, *args, **kwargs):
            raise AssertionError(f"{self.name} read")

        monkeypatch.setattr(Path, "read_bytes", no_read)
        monkeypatch.setattr(Path, "read_text", no_read)
        lookup = harvest.build_name_lookup(country_table)
        with pytest.raises(ValueError, match="unknown history style 'plos'"):
            harvest.harvest_directory(str(tmp_path), "plos", "j", lookup)

    def test_deterministic(self, tmp_path, country_table):
        (tmp_path / "x.txt").write_text(CARDS)
        lookup = harvest.build_name_lookup(country_table)
        a = harvest.harvest_directory(str(tmp_path), "physica-like", "j",
                                      lookup)
        b = harvest.harvest_directory(str(tmp_path), "physica-like", "j",
                                      lookup)
        assert a == b


def _mixed_tree(root: Path) -> None:
    """Cards, JATS, malformed XML, an editorial, a file that is not UTF-8,
    one made unreadable by ``_unreadable`` and a subdirectory."""
    (root / "a.txt").write_text(CARDS, encoding="utf-8")
    (root / "b.xml").write_text(JATS_OK, encoding="utf-8")
    (root / "c.xml").write_text("<article>", encoding="utf-8")
    (root / "d.xml").write_text(JATS_OK.replace("Research Article",
                                                "Editorial"),
                                encoding="utf-8")
    (root / "e.txt").write_bytes(CARDS.encode("utf-8") + b"\xff")
    (root / "f.txt").write_text(CARDS, encoding="utf-8")
    (root / "sub").mkdir()
    (root / "sub" / "g.txt").write_text(CARDS.replace("Italy", "Spain"),
                                        encoding="utf-8")
    (root / "sub" / "h.xml").write_text(
        JATS_OK.replace("2006</year></date>\n    <date",
                        "2005</year></date>\n    <date"), encoding="utf-8")
    (root / "z.txt").write_text(CARDS, encoding="utf-8")


def _unreadable(monkeypatch, name: str, exc: Exception) -> None:
    real_read_text = Path.read_text

    def read_text(self, *args, **kwargs):
        if self.name == name:
            raise exc
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)


class TestHarvestPool:
    """The files spread over worker processes give what one process gives."""

    def _harvest(self, root, cpus, monkeypatch, country_table):
        monkeypatch.setattr(harvest, "_usable_cpus", lambda: cpus)
        lookup = harvest.build_name_lookup(country_table)
        return harvest.harvest_directory(str(root), "physica-like", "j",
                                         lookup, first_id=5)

    def test_same_rows_and_skips_for_any_worker_count(
            self, tmp_path, monkeypatch, country_table):
        _mixed_tree(tmp_path)
        _unreadable(monkeypatch, "f.txt",
                    PermissionError(13, "Permission denied"))
        inline = self._harvest(tmp_path, 1, monkeypatch, country_table)
        pooled = self._harvest(tmp_path, 3, monkeypatch, country_table)
        assert pooled == inline
        rows, skipped = inline
        assert [r.id for r in rows] == list(range(5, 13))
        assert [name for name, _ in skipped] == [
            "c.xml", "d.xml", "e.txt", "f.txt"]
        assert skipped[3][1] == "unreadable: Permission denied"
        # sorted by path: a.txt, b.xml, sub/g.txt, sub/h.xml, z.txt
        assert [r.country for r in rows] == [
            "IT", "DE", "IT", "ES", "DE", "IT", "IT", "DE"]
        assert rows[5].received == date(2005, 8, 7)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_other_errors_propagate(self, tmp_path, monkeypatch,
                                    country_table, cpus):
        _mixed_tree(tmp_path)
        _unreadable(monkeypatch, "f.txt", RuntimeError("f.txt exploded"))
        with pytest.raises(RuntimeError, match="f.txt exploded"):
            self._harvest(tmp_path, cpus, monkeypatch, country_table)
        assert multiprocessing.active_children() == []

    def test_second_harvest_in_one_process_is_the_same(
            self, tmp_path, monkeypatch, country_table):
        # the second harvest, inline and pooled, starts with warm caches
        _mixed_tree(tmp_path)
        _unreadable(monkeypatch, "f.txt",
                    PermissionError(13, "Permission denied"))
        first = self._harvest(tmp_path, 1, monkeypatch, country_table)
        assert self._harvest(tmp_path, 1, monkeypatch, country_table) \
            == first
        assert self._harvest(tmp_path, 3, monkeypatch, country_table) \
            == first
        rows, skipped = first
        assert len(rows) == 8 and len(skipped) == 4

    def test_malformed_date_is_memoised_as_no_date(
            self, tmp_path, monkeypatch, country_table):
        # 31 February is met first in card 1, then again in cards 2 and 3;
        # a later valid date on the same line still fills the slot
        cards = ("History: Received 31 February 2006; "
                 "received 3 March 2006\n\n"
                 "History: Received 31 February 2006\n\n"
                 "History: Received 31 February 2006, "
                 "Received 4 March 2006; revised 31 February 2006\n")
        (tmp_path / "a.txt").write_text(cards, encoding="utf-8")
        harvest._written_ordinal.cache_clear()
        rows, _ = self._harvest(tmp_path, 1, monkeypatch, country_table)
        info = harvest._written_ordinal.cache_info()
        assert (info.misses, info.hits) == (3, 3)
        assert [(r.received, r.revised) for r in rows] == [
            (date(2006, 3, 3), None), (None, None), (date(2006, 3, 4), None)]
        assert harvest._written_ordinal("2006", "February", "31") == 0
        assert [r.received for r in rows] == [
            ref.parse_history_string(block, "physica-like")[0]
            for block in cards.split("\n\n")]
