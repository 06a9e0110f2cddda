"""Canonicalization and the line-delimited record store."""

import dataclasses
import errno
import json
import os
import re
import signal
import urllib.parse

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mathrepo import records
from mathrepo.oai_client import parse_oai_envelope
from mathrepo.parsers import MetadataError, parse_junii2, parse_oai_dc
from mathrepo.records import (
    CanonicalRecord,
    Classification,
    NameParts,
    RecordError,
    RelatedUrl,
    StoreError,
    _is_http_url,
    _to_line,
    canonical_from_dc,
    canonical_from_junii2,
    canonicalize,
    load_classifications,
    load_records,
    make_record_id,
    split_name,
    store_records,
)

from support import EUCLID_DC, OCHANOMIZU_JUNII2, canonical_records, classified_record, force_fork
from support import make_record, msc_codes


def euclid_canonical():
    (oai_rec,) = parse_oai_envelope(EUCLID_DC.read_bytes())
    dc = parse_oai_dc(oai_rec.payload)
    return canonical_from_dc(dc, "euclid", oai_rec.identifier)


def ochanomizu_canonical():
    (oai_rec,) = parse_oai_envelope(OCHANOMIZU_JUNII2.read_bytes())
    junii2 = parse_junii2(oai_rec.payload)
    return canonical_from_junii2(junii2, "ochanomizu", oai_rec.identifier)


class TestCanonicalFromDc:
    def test_euclid_fixture(self):
        rec = euclid_canonical()
        assert rec.title == "Minimal 2-regular digraphs with given girth"
        assert rec.publication == "J. Math. Soc. Japan"
        assert rec.volume == "25"
        assert rec.issue == "1"
        assert rec.pagerange == "1-6"
        assert rec.date == "1973-01"
        assert rec.year == 1973
        assert rec.official_url == "http://projecteuclid.org/euclid.jmsj/1240435759"
        assert rec.related_urls[0].url == "doi:10.2969/jmsj/02510001"
        assert rec.related_urls[0].type == "doi"
        assert rec.msc_secondary == ["05C20"]
        assert rec.msc_primary == ""
        assert rec.creators == [NameParts(family="BEHZAD", given="Mehdi")]
        assert rec.creators[0].raw == "BEHZAD, Mehdi"
        assert rec.record_id == make_record_id("euclid", rec.oai_identifier)

    def test_url_only_identifiers(self):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            "<dc:identifier>http://example.org/a</dc:identifier></dc>"
        )
        rec = canonical_from_dc(dc, "src", "oai:x:1")
        assert rec.official_url == "http://example.org/a"
        assert rec.publication == "" and rec.pagerange == ""

    def test_second_url_identifier_is_a_related_url(self):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            "<dc:identifier>http://example.org/a</dc:identifier>"
            "<dc:identifier>http://example.org/b</dc:identifier></dc>"
        )
        rec = canonical_from_dc(dc, "src", "oai:x:1")
        assert rec.official_url == "http://example.org/a"
        assert rec.related_urls == [RelatedUrl(url="http://example.org/b", type="url")]

    def test_date_falls_back_to_the_citation_year(self):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            "<dc:identifier>http://example.org/a</dc:identifier>"
            "<dc:identifier>J. Example 12 (1987), 1-2</dc:identifier></dc>"
        )
        rec = canonical_from_dc(dc, "src", "oai:x:1")
        assert rec.date == "1987" and rec.publication == "J. Example"

    @pytest.mark.parametrize(
        "value, expected",
        [("2009-02-30", "2009-02"), ("2009-13-45", "2009"), ("2008-02-29", "2008-02-29")],
    )
    def test_date_keeps_its_longest_real_prefix(self, value, expected):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            f"<dc:date>{value}</dc:date><dc:identifier>http://example.org/a</dc:identifier></dc>"
        )
        assert canonical_from_dc(dc, "src", "oai:x:1").date == expected

    def test_unsplittable_creator(self):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            "<dc:creator>Madonna</dc:creator>"
            "<dc:identifier>http://example.org/a</dc:identifier></dc>"
        )
        rec = canonical_from_dc(dc, "src", "oai:x:1")
        assert rec.creators[0].family == "Madonna"
        assert rec.creators[0].given == ""
        assert rec.creators[0].raw == "Madonna"

    def test_no_url_identifier_is_unplaceable(self):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            "<dc:identifier>J. Example 1 (2000), 1-2</dc:identifier></dc>"
        )
        with pytest.raises(RecordError, match="URL"):
            canonical_from_dc(dc, "src", "oai:x:1")

    def test_non_msc_subjects_dropped(self):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            "<dc:subject>53A35</dc:subject><dc:subject>QA</dc:subject>"
            "<dc:identifier>http://example.org/a</dc:identifier></dc>"
        )
        rec = canonical_from_dc(dc, "src", "oai:x:1")
        assert rec.msc_secondary == ["53A35"]

    def test_non_ascii_digits_are_neither_date_nor_msc(self):
        dc = parse_oai_dc(
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/"><dc:title>T</dc:title>'
            "<dc:date>\u0661\u0669\u0669\u0668-\u0660\u0666</dc:date>"
            "<dc:subject>\u0665\u0663A35</dc:subject><dc:subject>53A35</dc:subject>"
            "<dc:identifier>http://example.org/a</dc:identifier></dc>"
        )
        rec = canonical_from_dc(dc, "src", "oai:x:1")
        assert rec.date == "" and rec.year is None
        assert rec.msc_secondary == ["53A35"]


class TestCanonicalFromJunii2:
    def test_ochanomizu_fixture(self):
        rec = ochanomizu_canonical()
        assert rec.publication == "Natur. Sci. Rep. Ochanomizu Univ."
        assert rec.volume == "46"
        assert rec.issue == "2"
        assert rec.pagerange == "9-12"
        assert rec.date == "1995-12-30"
        assert rec.official_url == "http://hdl.handle.net/10083/843"
        assert rec.full_text_url == (
            "http://teapot.lib.ocha.ac.jp/ocha/bitstream/10083/843/1/KJ00004470846.pdf"
        )
        assert rec.creators[0] == NameParts(family="KASAHARA", given="Yuji")

    def test_open_page_range_uses_spage_alone(self):
        junii2 = parse_junii2(
            '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title>'
            "<URI>http://example.org/x</URI><spage>9</spage></meta>"
        )
        rec = canonical_from_junii2(junii2, "src", "oai:x:1")
        assert rec.pagerange == "9"

    @pytest.mark.parametrize(
        "value, expected",
        [("2009-02-30", "2009-02"), ("2009-13-45", "2009"), ("2008-02-29", "2008-02-29")],
    )
    def test_date_keeps_its_longest_real_prefix(self, value, expected):
        junii2 = parse_junii2(
            '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title>'
            f"<URI>http://example.org/x</URI><dateofissued>{value}</dateofissued></meta>"
        )
        assert canonical_from_junii2(junii2, "src", "oai:x:1").date == expected

    def test_empty_volume_stays_absent(self):
        junii2 = parse_junii2(
            '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title>'
            "<URI>http://example.org/x</URI></meta>"
        )
        rec = canonical_from_junii2(junii2, "src", "oai:x:1")
        assert rec.volume == ""


class TestCanonicalize:
    @pytest.mark.parametrize(
        "fixture, source, expected",
        [(EUCLID_DC, "euclid", euclid_canonical), (OCHANOMIZU_JUNII2, "ochanomizu", ochanomizu_canonical)],
        ids=["oai_dc", "junii2"],
    )
    def test_dialect_comes_from_the_root_namespace(self, fixture, source, expected):
        (oai_rec,) = parse_oai_envelope(fixture.read_bytes())
        assert canonicalize(oai_rec.payload, source, oai_rec.identifier) == expected()

    @pytest.mark.parametrize(
        "payload",
        [
            "<meta><title>T</title><URI>http://example.org/x</URI></meta>",
            '<dc xmlns="http://purl.org/dc/elements/1.1/"><title>T</title></dc>',
            '<meta xmlns="http://ju.nii.ac.jp/junii2/"><title>T</title></meta>',
        ],
        ids=["no_namespace", "dc_elements", "junii2_trailing_slash"],
    )
    def test_other_root_namespace_is_metadata_error(self, payload):
        with pytest.raises(MetadataError, match="neither oai_dc nor junii2"):
            canonicalize(payload, "src", "oai:x:1")


class TestInvariants:
    def test_record_id_must_derive_from_source_and_identifier(self):
        with pytest.raises(RecordError, match="record_id"):
            CanonicalRecord(
                record_id="bogus",
                source="s",
                oai_identifier="oai:x:1",
                title="T",
                official_url="http://example.org/a",
            )

    def test_invalid_msc_code_rejected(self):
        with pytest.raises(RecordError, match="MSC"):
            make_record(msc_secondary=["5A3"])

    def test_nonpositive_mr_rejected(self):
        with pytest.raises(RecordError, match="mr_number"):
            make_record(mr_number=0)

    def test_bad_date_rejected(self):
        # the last five have the shape but name no calendar date
        for date in ["December 1995", " 1995", "1995-06x", "2009-02-30", "1900-02-29", "2009-04-31",
                     "2009-13", "2009-00-10"]:
            with pytest.raises(RecordError, match="date"):
                make_record(date=date)

    @pytest.mark.parametrize("date", ["2008-02-29", "2000-02-29", "2009-12-31", "2009-12", "0000"])
    def test_real_date_accepted(self, date):
        assert make_record(date=date).date == date

    def test_empty_title_rejected(self):
        with pytest.raises(RecordError, match="requires a title"):
            make_record(title="")

    @pytest.mark.parametrize("url", ["", "ftp://example.org/a", "example.org/a"])
    def test_official_url_must_be_http(self, url):
        with pytest.raises(RecordError, match="official_url must be an absolute URL"):
            make_record(official_url=url)

    # Arabic-Indic and fullwidth digits are Unicode decimal digits, not date digits
    @pytest.mark.parametrize("date", ["\u0661\u0669\u0669\u0668", "\uff11\uff19\uff19\uff18-06"])
    def test_non_ascii_digit_date_rejected(self, date):
        with pytest.raises(RecordError, match="date"):
            make_record(date=date)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"title": 7}, "title must be a string"),
            ({"language": None}, "language must be a string"),
            ({"msc_secondary": ("53A35",)}, "msc_secondary must be a list"),
            ({"msc_secondary": [53]}, "MSC"),
            ({"refereed": 1}, "refereed"),
            ({"mr_number": 5.0}, "mr_number"),
            ({"mr_number": True}, "mr_number"),
        ],
    )
    def test_field_of_wrong_type_rejected(self, changes, message):
        with pytest.raises(RecordError, match=message):
            make_record(**changes)

    def test_name_and_url_parts_must_be_strings(self):
        with pytest.raises(RecordError, match="name parts"):
            NameParts(family="F", given=None)
        with pytest.raises(RecordError, match="related URL"):
            RelatedUrl(url=b"http://example.org/a")

    def test_split_name_first_comma_only(self):
        parts = split_name("VAN DER WAERDEN, Bartel, Leendert")
        assert parts.family == "VAN DER WAERDEN"
        assert parts.given == "Bartel, Leendert"


def _urlsplit_check(value):
    parsed = urllib.parse.urlsplit(value)
    return parsed.scheme in ("http", "https") and bool(parsed.netloc)


def _verdict(check, value):
    try:
        return check(value)
    except ValueError as exc:
        return ("ValueError", str(exc))


# pieces that move urlsplit's verdict: scheme spellings, delimiters, brackets,
# the characters it strips, and non-ASCII look-alikes of "%" and "/"
_URL_PIECES = [
    "http", "https", "HTTP", "hTtPs", "ftp", "://", ":", "/", "//", "?", "#", "[", "]",
    "@", "\t", "\r", "\n", " ", "\x00", "％", "／", "é", "h", "t", "p", "s", "S",
    "example.org", "::1", "[::1]", "%2F", "\u2100",
]


class TestHttpUrlCheck:
    @given(st.one_of(st.lists(st.sampled_from(_URL_PIECES)).map("".join), st.text()))
    @settings(max_examples=600, deadline=None)
    @example("HTTP://example.org/a")
    @example(" http://example.org/a")
    @example("\thttp://example.org/a")
    @example("http://")
    @example("http:///path")
    @example("http://[::1]/a")
    @example("http://[::1/a")
    @example("http://exa\nmple.org/")
    @example("http://\n")
    @example("https://\t/a")
    @example("http://example.org[")
    @example("http://example.org/é")
    @example("http://ex\u2100mple.org/")
    def test_same_verdict_as_urlsplit(self, value):
        assert _verdict(_is_http_url, value) == _verdict(_urlsplit_check, value)


# characters json.dumps escapes, or could be expected to: quote, backslash, slash,
# C0 controls, DEL, the JavaScript line separators and a non-BMP character
_JSON_AWKWARD = [
    '"', "\\", "/", "\x00", "\b", "\f", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "\U0001d400",
]
# lone surrogates cannot be UTF-8 encoded, so make_record_id's inputs go without them
_text = st.text(
    st.one_of(st.characters(codec="utf-8"), st.sampled_from(_JSON_AWKWARD)), max_size=12
)
_wide_text = st.text(
    st.one_of(st.characters(), st.sampled_from([*_JSON_AWKWARD, "\ud800", "\udfff"])), max_size=12
)


@st.composite
def wide_records(draw):
    source, ident = draw(_text), draw(_text)
    return CanonicalRecord(
        record_id=make_record_id(source, ident),
        source=source,
        oai_identifier=ident,
        title=draw(_wide_text.filter(bool)),
        creators=draw(
            st.lists(st.builds(NameParts, _wide_text, _wide_text, _wide_text), max_size=3)
        ),
        publication=draw(_wide_text),
        volume=draw(_wide_text),
        issue=draw(_wide_text),
        pagerange=draw(_wide_text),
        date=draw(st.sampled_from(["", "1998", "1998-06", "1998-06-15"])),
        publisher=draw(_wide_text),
        official_url=draw(_wide_text.map(lambda s: f"http://example.org/{s}")),
        full_text_url=draw(_wide_text),
        msc_primary=draw(st.one_of(st.just(""), msc_codes)),
        msc_secondary=draw(st.lists(msc_codes, max_size=3)),
        mr_number=draw(st.one_of(st.none(), st.integers(1, 10**40))),
        related_urls=draw(st.lists(st.builds(RelatedUrl, _wide_text, _wide_text), max_size=3)),
        refereed=draw(st.booleans()),
        language=draw(_wide_text),
    )


class TestLineEncoder:
    @given(wide_records())
    # the first text draw in a fresh checkout pays hypothesis's one-off character-table build
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example(
        make_record(
            title="".join(_JSON_AWKWARD) + "\ud800",
            creators=[NameParts(family="\udfff", given="\u2028")],
            msc_secondary=["53A35", "20-xx"],
            mr_number=10**30,
            related_urls=[RelatedUrl(url="/\\", type='"')],
            refereed=False,
        )
    )
    def test_same_text_as_json_dumps(self, rec):
        assert _to_line(rec) == json.dumps(dataclasses.asdict(rec), ensure_ascii=False)


def append_edited_line(path, field, value):
    """Append the store's first line under a new identifier, with ``field`` set to ``value``."""
    line = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    line.update(oai_identifier="oai:x:2", record_id=make_record_id(line["source"], "oai:x:2"))
    line[field] = value
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")


class TestStore:
    def test_round_trip_fixture_records(self, tmp_path):
        records = [euclid_canonical(), ochanomizu_canonical()]
        path = tmp_path / "store.jsonl"
        assert store_records(records, path) == 2
        loaded = load_records(path)
        assert loaded == records
        assert [dataclasses.asdict(r) for r in loaded] == [
            dataclasses.asdict(r) for r in records
        ]

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "store.jsonl"
        assert store_records([], path) == 0
        assert load_records(path) == []

    def test_corrupt_line_strict_reports_line_number(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store_records([euclid_canonical()], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(StoreError, match=":2"):
            load_records(path)

    @pytest.mark.parametrize(
        "field, value, message", [("date", "2009\n", "date"), ("msc_primary", "53A35\n", "MSC")]
    )
    def test_trailing_newline_in_value_names_the_line(self, tmp_path, field, value, message):
        path = tmp_path / "store.jsonl"
        store_records([euclid_canonical()], path)
        append_edited_line(path, field, value)
        with pytest.raises(StoreError, match=f"{re.escape(str(path))}:2: .*{message}"):
            load_records(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("official_url", 5, "official_url must be a string"),
            ("title", 7, "title must be a string"),
            ("refereed", 1, "refereed"),
            ("mr_number", 5.0, "mr_number"),
            ("msc_secondary", {"53A35": 1}, "msc_secondary"),
            ("creators", [{"family": 5, "given": "G"}], "name parts"),
            ("related_urls", [{"url": 5, "type": "doi"}], "related URL"),
            ("creators", "", "creators must be a list"),
            ("related_urls", {}, "related_urls must be a list"),
        ],
        ids=[
            "official_url", "title", "refereed", "mr_number", "msc_secondary", "family", "url",
            "creators", "related_urls",
        ],
    )
    def test_value_of_wrong_type_names_the_line(self, tmp_path, field, value, message):
        path = tmp_path / "store.jsonl"
        store_records([euclid_canonical()], path)
        append_edited_line(path, field, value)
        with pytest.raises(StoreError, match=f"{re.escape(str(path))}:2: .*{message}"):
            load_records(path)

    def test_impossible_date_names_the_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store_records([euclid_canonical()], path)
        append_edited_line(path, "date", "2009-02-30")
        with pytest.raises(StoreError, match=f"{re.escape(str(path))}:2: .*date"):
            load_records(path)

    def test_unknown_key_loads_in_strict_mode(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store_records([euclid_canonical()], path)
        line = json.loads(path.read_text(encoding="utf-8"))
        line["added_later"] = "x"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        assert load_records(path) == [euclid_canonical()]

    def test_append_dedupes_keeping_latest(self, tmp_path):
        path = tmp_path / "store.jsonl"
        original = make_record(title="Old title")
        updated = dataclasses.replace(original, title="New title")
        later = tmp_path / "later.jsonl"
        store_records([original], path)
        store_records([updated], later)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(later.read_text(encoding="utf-8"))
        loaded = load_records(path)
        assert len(loaded) == 1
        assert loaded[0].title == "New title"

    def test_failed_write_keeps_old_store(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        store_records([euclid_canonical(), ochanomizu_canonical()], path)
        before = path.read_bytes()
        calls = []

        def failing_to_line(rec):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return _to_line(rec)

        monkeypatch.setattr("mathrepo.records._to_line", failing_to_line)
        with pytest.raises(StoreError, match="No space left") as raised:
            store_records([make_record(title="Replacement"), euclid_canonical()], path)
        monkeypatch.undo()
        assert str(path) in str(raised.value)
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert not (tmp_path / "store.jsonl.tmp").exists()

    @pytest.mark.parametrize(
        "name, value",
        [("title", 7), ("creators", ["x"]), ("msc_secondary", "53A35"), ("refereed", "no")],
        ids=["title", "creators", "msc_secondary", "refereed"],
    )
    def test_record_retyped_after_construction_keeps_old_store(self, tmp_path, name, value):
        path = tmp_path / "store.jsonl"
        store_records([euclid_canonical(), ochanomizu_canonical()], path)
        before = path.read_bytes()
        retyped = make_record(title="Replacement")
        setattr(retyped, name, value)
        with pytest.raises(StoreError, match=re.escape(f"cannot write store {path}")):
            store_records([euclid_canonical(), retyped], path)
        assert path.read_bytes() == before
        assert not (tmp_path / "store.jsonl.tmp").exists()

    @given(st.lists(canonical_records(), max_size=6, unique_by=lambda r: r.record_id))
    # the first text draw in a fresh checkout pays hypothesis's one-off character-table build
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip_random_records(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        store_records(records, path)
        loaded = load_records(path)
        assert loaded == records
        assert [dataclasses.asdict(r) for r in loaded] == [
            dataclasses.asdict(r) for r in records
        ]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counted_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def thirty_line_store(path):
    """30 records, lines 1-30. Forced to three chunks of lines 1-10, 11-20 and 21-31 (the
    empty text after the last newline), lines 15 and 25 repeat the ids of lines 6 and 18."""
    recs = [classified_record(n, 1950 + n, f"{10 + n}A05", [f"{40 + k}B10" for k in range(n % 3)])
            for n in range(30)]
    recs[14] = dataclasses.replace(recs[5], msc_primary="53A35")
    recs[24] = dataclasses.replace(recs[17], date="")
    store_records(recs, path)
    return recs


def replace_lines(path, edits: dict[int, bytes]):
    lines = path.read_bytes().split(b"\n")
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path.write_bytes(b"\n".join(lines))


class TestLoadClassifications:
    def test_projection_of_load_records_across_chunk_boundaries(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        thirty_line_store(path)
        expected = [Classification(r.msc_primary, r.msc_secondary, r.year) for r in load_records(path)]
        assert len(expected) == 28
        assert expected[5] == ("53A35", ["40B10", "41B10"], 1955)  # later lines win, in first place
        assert expected[16] == ("27A05", ["40B10", "41B10"], None)
        assert load_classifications(path) == expected  # in-process
        force_fork(monkeypatch)
        forks = counted_forks(monkeypatch)
        assert load_classifications(path) == expected
        assert len(forks) == 2
        no_child_left()

    def test_small_store_stays_in_process(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        thirty_line_store(path)
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(records, "_cpu_count", lambda: 3)
        assert len(load_classifications(path)) == 28  # 31 lines < 2 * _LINES_PER_PROCESS
        force_fork(monkeypatch)
        monkeypatch.delattr(os, "fork")
        assert len(load_classifications(path)) == 28
        assert forks == []

    @pytest.mark.parametrize(
        "first, edits",
        [
            (15, {15: b'{"record_id": "broken"', 28: b'{"record_id": 5'}),
            (3, {3: b'{"record_id": "broken"', 25: b'{"record_id": 5'}),
            (28, {28: b'{"record_id": "broken"'}),
            (22, {22: b'{"record_id": "x", "source": "s", "oai_identifier": "o", "title": "t", "official_url": 5}'}),
        ],
        ids=["middle-and-last", "parent-and-last", "last", "record-check"],
    )
    def test_first_bad_line_is_reported_as_load_records_does(self, tmp_path, monkeypatch, first, edits):
        path = tmp_path / "store.jsonl"
        thirty_line_store(path)
        replace_lines(path, edits)
        with pytest.raises(StoreError) as serial:
            load_records(path)
        assert str(serial.value).startswith(f"{path}:{first}: ")
        force_fork(monkeypatch)
        with pytest.raises(StoreError) as forked:
            load_classifications(path)
        assert str(forked.value) == str(serial.value)
        no_child_left()

    def test_bytes_not_utf8_in_a_child_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        thirty_line_store(path)
        replace_lines(path, {25: b'{"title": "\xff"}'})
        force_fork(monkeypatch)
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: not UTF-8"):
            load_classifications(path)
        no_child_left()

    @pytest.mark.parametrize("death", ["exit", "kill"])
    def test_child_that_sends_nothing_is_an_error(self, tmp_path, monkeypatch, death):
        path = tmp_path / "store.jsonl"
        thirty_line_store(path)
        force_fork(monkeypatch)
        parent, real = os.getpid(), records._classified

        def dying(*args):
            if os.getpid() != parent:
                if death == "exit":
                    os._exit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(records, "_classified", dying)
        with pytest.raises(StoreError, match="ended without a result"):
            load_classifications(path)
        no_child_left()

    def test_children_are_reaped_when_the_parent_chunk_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        thirty_line_store(path)
        force_fork(monkeypatch)
        parent, real = os.getpid(), records._classified

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(records, "_classified", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_classifications(path)
        no_child_left()
