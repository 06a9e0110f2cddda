"""Dialect parsers and the citation-string grammar."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathrepo.oai_client import parse_oai_envelope
from mathrepo.parsers import (
    MetadataError,
    parse_citation_string,
    parse_junii2,
    parse_oai_dc,
)

from support import EUCLID_DC, OCHANOMIZU_JUNII2, format_citation


@pytest.fixture(scope="module")
def euclid_payload():
    (record,) = parse_oai_envelope(EUCLID_DC.read_bytes())
    return record.payload


@pytest.fixture(scope="module")
def ochanomizu_payload():
    (record,) = parse_oai_envelope(OCHANOMIZU_JUNII2.read_bytes())
    return record.payload


class TestParseOaiDc:
    def test_euclid_fixture_fields(self, euclid_payload):
        rec = parse_oai_dc(euclid_payload)
        assert rec.title == "Minimal 2-regular digraphs with given girth"
        assert rec.creators == ["BEHZAD, Mehdi"]
        assert rec.subjects == ["05C20"]
        assert rec.publisher == "Mathematical Society of Japan"
        assert rec.date == "1973-01"
        assert rec.type == "Text"
        assert rec.format == "application/pdf"
        assert rec.identifiers == [
            "http://projecteuclid.org/euclid.jmsj/1240435759",
            "J. Math. Soc. Japan 25, no. 1 (1973), 1-6",
            "doi:10.2969/jmsj/02510001",
        ]
        assert rec.language == "en"
        assert rec.rights == "Copyright 1973 Mathematical Society of Japan"

    def test_minimal_record(self):
        payload = (
            '<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/" '
            'xmlns:dc="http://purl.org/dc/elements/1.1/">'
            "<dc:title>Only a title</dc:title>"
            "<dc:identifier>http://example.org/a</dc:identifier>"
            "</oai_dc:dc>"
        )
        rec = parse_oai_dc(payload)
        assert rec.title == "Only a title"
        assert rec.identifiers == ["http://example.org/a"]
        assert rec.creators == [] and rec.subjects == []
        assert rec.publisher == "" and rec.date == "" and rec.language == ""

    def test_two_creators_keep_order(self):
        payload = (
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/">'
            "<dc:title>T</dc:title>"
            "<dc:creator>ALPHA, A</dc:creator><dc:creator>BETA, B</dc:creator>"
            "<dc:identifier>http://example.org/a</dc:identifier>"
            "</dc>"
        )
        assert parse_oai_dc(payload).creators == ["ALPHA, A", "BETA, B"]

    def test_missing_title_raises(self):
        payload = (
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/">'
            "<dc:identifier>http://example.org/a</dc:identifier></dc>"
        )
        with pytest.raises(MetadataError, match="title"):
            parse_oai_dc(payload)

    def test_missing_identifier_raises(self):
        payload = '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title></dc>'
        with pytest.raises(MetadataError, match="identifier"):
            parse_oai_dc(payload)

    def test_pure_function(self, euclid_payload):
        assert parse_oai_dc(euclid_payload) == parse_oai_dc(euclid_payload)


class TestParseJunii2:
    def test_ochanomizu_fixture_fields(self, ochanomizu_payload):
        rec = parse_junii2(ochanomizu_payload)
        assert rec.title == "CONDITIONALLY TRIMMED SUMS FOR INDEPENDENT RANDOM VARIABLES"
        assert rec.creators == ["KASAHARA, Yuji"]
        assert rec.ndc == "400"
        assert rec.publisher == "Ochanomizu University"
        assert rec.nii_type == "Departmental Bulletin Paper"
        assert rec.formats == ["application/pdf", "191755 bytes"]
        assert rec.uri == "http://hdl.handle.net/10083/843"
        assert rec.full_text_url == (
            "http://teapot.lib.ocha.ac.jp/ocha/bitstream/10083/843/1/KJ00004470846.pdf"
        )
        assert rec.issn == "00298190"
        assert rec.ncid == "AN00033958"
        assert rec.jtitle == "Natur. Sci. Rep. Ochanomizu Univ."
        assert rec.volume == "46"
        assert rec.issue == "2"
        assert rec.spage == "9"
        assert rec.epage == "12"
        assert rec.date_of_issued == "1995-12-30"

    def test_missing_jtitle_is_fine(self):
        payload = (
            '<meta xmlns="http://ju.nii.ac.jp/junii2">'
            "<title>T</title><URI>http://example.org/x</URI></meta>"
        )
        rec = parse_junii2(payload)
        assert rec.jtitle == ""

    def test_inverted_page_range_rejected(self):
        payload = (
            '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title>'
            "<URI>http://example.org/x</URI><spage>12</spage><epage>9</epage></meta>"
        )
        with pytest.raises(MetadataError, match="inverted"):
            parse_junii2(payload)

    def test_non_digit_volume_rejected(self):
        payload = (
            '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title>'
            "<URI>http://example.org/x</URI><volume>XLVI</volume></meta>"
        )
        with pytest.raises(MetadataError, match="volume"):
            parse_junii2(payload)

    def test_bad_issn_rejected(self):
        payload = (
            '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title>'
            "<URI>http://example.org/x</URI><issn>12345</issn></meta>"
        )
        with pytest.raises(MetadataError, match="ISSN"):
            parse_junii2(payload)

    def test_missing_title_raises(self):
        payload = '<meta xmlns="http://ju.nii.ac.jp/junii2"><URI>http://example.org/x</URI></meta>'
        with pytest.raises(MetadataError, match="no title"):
            parse_junii2(payload)

    def test_missing_uri_raises(self):
        payload = '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title></meta>'
        with pytest.raises(MetadataError, match="URI"):
            parse_junii2(payload)


class TestCitationGrammar:
    def test_journal_volume_issue_year_pages(self):
        c = parse_citation_string("J. Math. Soc. Japan 25, no. 1 (1973), 1-6")
        assert c.journal_title == "J. Math. Soc. Japan"
        assert c.volume == "25"
        assert c.issue == "1"
        assert c.year == 1973
        assert (c.spage, c.epage) == (1, 6)
        assert c.raw == "J. Math. Soc. Japan 25, no. 1 (1973), 1-6"

    def test_long_journal_with_pp_marker(self):
        c = parse_citation_string(
            "Nat. Sci. J. Fac. Educ. Hum. Sci. Yokohama National University Sec. I, "
            "1 (1998) . pp. 43-46."
        )
        assert c.journal_title == (
            "Nat. Sci. J. Fac. Educ. Hum. Sci. Yokohama National University Sec. I"
        )
        assert c.volume == "1"
        assert c.issue == ""
        assert c.year == 1998
        assert (c.spage, c.epage) == (43, 46)

    def test_unstructured_fallback(self):
        c = parse_citation_string("Some Unstructured String")
        assert c.journal_title == "Some Unstructured String"
        assert c.volume == "" and c.issue == ""
        assert c.year is None and c.spage is None and c.epage is None
        assert parse_citation_string("J. Math: ;").journal_title == "J. Math"

    def test_en_dash_page_separator(self):
        c = parse_citation_string("Ann. Example 7 (2001), 15–20")
        assert (c.spage, c.epage) == (15, 20)
        assert c.volume == "7" and c.year == 2001

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            parse_citation_string("  ")

    def test_out_of_range_year_ignored(self):
        c = parse_citation_string("Proc. Imaginary 3 (0999), 1-2")
        assert c.year is None
        assert (c.spage, c.epage) == (1, 2)

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    @settings(max_examples=300)
    def test_never_raises_on_printable_input(self, s):
        citation = parse_citation_string(s)
        assert citation.raw == s
        if citation.year is not None:
            assert 1600 <= citation.year <= 2100

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    @example("0: :")  # separators with whitespace between them
    @settings(max_examples=300)
    def test_idempotent_on_canonical_rendering(self, s):
        first = parse_citation_string(s)
        second = parse_citation_string(format_citation(first)) if format_citation(first) else first
        for field in ("journal_title", "volume", "year", "spage", "epage"):
            assert getattr(second, field) == getattr(first, field)
