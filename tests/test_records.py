"""Canonicalization and the line-delimited record store."""

import dataclasses
import errno
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mathrepo.oai_client import parse_oai_envelope
from mathrepo.parsers import parse_junii2, parse_oai_dc
from mathrepo.records import (
    CanonicalRecord,
    NameParts,
    RecordError,
    StoreError,
    canonical_from_dc,
    canonical_from_junii2,
    load_records,
    make_record_id,
    split_name,
    store_records,
)

from support import EUCLID_DC, OCHANOMIZU_JUNII2, canonical_records, make_record


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

    def test_empty_volume_stays_absent(self):
        junii2 = parse_junii2(
            '<meta xmlns="http://ju.nii.ac.jp/junii2"><title>T</title>'
            "<URI>http://example.org/x</URI></meta>"
        )
        rec = canonical_from_junii2(junii2, "src", "oai:x:1")
        assert rec.volume == ""


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
        with pytest.raises(RecordError, match="date"):
            make_record(date="December 1995")

    def test_split_name_first_comma_only(self):
        parts = split_name("VAN DER WAERDEN, Bartel, Leendert")
        assert parts.family == "VAN DER WAERDEN"
        assert parts.given == "Bartel, Leendert"


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
        real_dumps = json.dumps
        calls = []

        def failing_dumps(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr("mathrepo.records.json.dumps", failing_dumps)
        with pytest.raises(StoreError, match="No space left") as raised:
            store_records([make_record(title="Replacement"), euclid_canonical()], path)
        monkeypatch.undo()
        assert str(path) in str(raised.value)
        assert len(calls) == 2
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
