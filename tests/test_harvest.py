"""History strings, page ranges, country resolution, JATS, card files."""

from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dwe import corpus as cm, harvest

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


class TestHistoryStrings:
    def test_physica_style(self):
        # the acceptance date in these strings has no output slot; the
        # revised-form and online dates land in revised/online
        h = harvest.parse_history_string(
            "Received 9 December 2005; received in revised form "
            "3 February 2006; accepted 10 February 2006; "
            "available online 28 February 2006", "physica-like")
        assert h.received == date(2005, 12, 9)
        assert h.revised == date(2006, 2, 3)
        assert h.online == date(2006, 2, 28)

    def test_plos_style_keeps_comma_dates(self):
        h = harvest.parse_history_string(
            "Received: August 7, 2006; Accepted: September 1, 2006; "
            "Published: September 15, 2006", "plos-like")
        assert h.received == date(2006, 8, 7)
        assert h.revised == date(2006, 9, 1)
        assert h.online == date(2006, 9, 15)

    def test_nature_style_numeric(self):
        h = harvest.parse_history_string(
            "Received 2006-08-07; Accepted 2006-09-01", "nature-like")
        assert h.received == date(2006, 8, 7)
        assert h.revised == date(2006, 9, 1)

    def test_missing_keyword_leaves_none(self):
        h = harvest.parse_history_string("Received 9 December 2005",
                                         "physica-like")
        assert h.received == date(2005, 12, 9)
        assert h.revised is None and h.online is None
        assert not h.errors

    def test_keyword_without_date_reports_field_error(self):
        h = harvest.parse_history_string(
            "Received ; received in revised form 10 February 2006",
            "physica-like")
        assert h.received is None
        assert h.revised == date(2006, 2, 10)
        assert any(e.field == "received" for e in h.errors)

    def test_short_month_names(self):
        h = harvest.parse_history_string("Received 3 Sept 2011",
                                         "physica-like")
        assert h.received == date(2011, 9, 3)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            harvest.parse_history_string("Received 1 May 2010", "wat")


class TestExtractPages:
    def test_simple_range(self):
        assert harvest.extract_pages("Pages 101-110") == (101, 110)

    def test_single_page(self):
        assert harvest.extract_pages("pages 5-5") == (5, 5)

    def test_no_marker_is_zero(self):
        assert harvest.extract_pages("vol 12, no 3") == (0, 0)

    def test_garbled_range_is_zero(self):
        assert harvest.extract_pages("pages i-xii") == (0, 0)


@pytest.fixture(scope="module")
def lookup(country_table):
    return harvest.build_name_lookup(country_table)


class TestCountryNormalization:
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


class TestJats:
    def test_full_document(self):
        meta = harvest.parse_jats_article(JATS_OK)
        assert meta.received == date(2006, 8, 7)
        assert meta.accepted == date(2006, 9, 1)
        assert meta.published == date(2006, 9, 15)
        assert meta.page_count == 12
        assert meta.doi == "10.1371/journal.pone.0000001"
        assert len(meta.authors) == 2
        assert meta.authors[0].corresponding
        assert meta.authors[0].affiliations[0].country_raw == "Italy"
        assert meta.authors[1].affiliations[0].country_raw == "France"

    def test_non_research_article_rejected(self):
        doc = JATS_OK.replace("Research Article", "Correction")
        with pytest.raises(harvest.NotResearchArticle):
            harvest.parse_jats_article(doc)

    def test_subject_case_insensitive(self):
        doc = JATS_OK.replace("Research Article", "research article")
        harvest.parse_jats_article(doc)  # must not raise

    def test_malformed_reports_location(self):
        with pytest.raises(harvest.JatsParseError):
            harvest.parse_jats_article("<?xml version='1.0'?><article>")

    def test_resolve_country_prefers_corresponding(self, country_table):
        lookup = harvest.build_name_lookup(country_table)
        # move the corresp flag to the second author; their affiliation
        # (France) must win over the first author's (Italy)
        doc = JATS_OK.replace(' corresp="yes"', "").replace(
            '<contrib contrib-type="author">\n     '
            '<name><surname>Kim</surname></name>',
            '<contrib contrib-type="author" corresp="yes">\n     '
            '<name><surname>Kim</surname></name>')
        meta = harvest.parse_jats_article(doc)
        assert harvest.resolve_article_country(meta, lookup) == "FR"

    def test_resolve_falls_back_to_first_author(self, country_table):
        lookup = harvest.build_name_lookup(country_table)
        doc = JATS_OK.replace(' corresp="yes"', "")
        meta = harvest.parse_jats_article(doc)
        assert harvest.resolve_article_country(meta, lookup) == "IT"


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

    def test_deterministic(self, tmp_path, country_table):
        (tmp_path / "x.txt").write_text(CARDS)
        lookup = harvest.build_name_lookup(country_table)
        a = harvest.harvest_directory(str(tmp_path), "physica-like", "j",
                                      lookup)
        b = harvest.harvest_directory(str(tmp_path), "physica-like", "j",
                                      lookup)
        assert a == b
