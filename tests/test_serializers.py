"""EPrints XML, ORE Atom, and METS serializer contracts."""

import re
import xml.etree.ElementTree as ET
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings

from mathrepo.records import NameParts, RelatedUrl
from mathrepo.serialize import (
    AggregatedResource,
    Aggregation,
    ORE_AGGREGATES_REL,
    SerializationError,
    from_eprints_xml,
    post_package,
    to_eprints_xml,
    to_mets,
    to_ore_atom,
)
from mathrepo.xmlutil import local_name

from support import (
    EPRINTS_ARTICLE,
    canonical_records,
    et_eprints_xml,
    et_mets,
    et_ore_atom,
    make_record,
    serve_handler,
    wide_aggregations,
    wide_records,
)


def horie_record():
    return make_record(
        source="",
        oai_identifier="",
        title="Note on the Schur multiplier of a certain semidirect product",
        official_url="http://hdl.handle.net/10083/839",
        creators=[NameParts(family="Horie", given="Mitsuko")],
        publication="Natur. Sci. Report. Ochanomizu. Univ.",
        volume="45",
        pagerange="85-88",
        date="1994-12-15",
        publisher="Ochanomizu Univeristy",
        msc_primary="20J06",
        msc_secondary=["20C25"],
        mr_number=1317509,
        related_urls=[
            RelatedUrl(url="http://www.ams.org/mathscinet-getitem?mr=1317509", type="MathSciNet")
        ],
    )


_URL = "<official_url>http://example.org/a</official_url>"


class TestEprintsReader:
    def test_reads_archived_article_fixture(self):
        rec = from_eprints_xml(EPRINTS_ARTICLE.read_bytes())
        assert rec.title == "Note on the Schur multiplier of a certain semidirect product"
        assert rec.publication == "Natur. Sci. Report. Ochanomizu. Univ."
        assert rec.creators == [NameParts(family="Horie", given="Mitsuko")]
        assert rec.official_url == "http://hdl.handle.net/10083/839"
        assert rec.pagerange == "85-88"
        assert rec.volume == "45"
        assert rec.date == "1994-12-15"
        assert rec.publisher == "Ochanomizu Univeristy"
        assert rec.msc_primary == "20J06"
        assert rec.msc_secondary == ["20C25"]
        assert rec.mr_number == 1317509
        assert rec.related_urls == [
            RelatedUrl(url="http://www.ams.org/mathscinet-getitem?mr=1317509", type="MathSciNet")
        ]
        assert rec.refereed is True

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("<eprints><eprint><title>T</title></eprints>", "malformed EPrints XML"),
            ("<eprints><item><title>T</title></item></eprints>", "no eprint element"),
            ("<eprints><eprint><title> </title></eprint></eprints>", "no title"),
            (f"<eprint><title>T</title>{_URL}<mr>abc</mr></eprint>", "not a valid record: invalid literal"),
            ("<eprint><title>T</title><official_url></official_url></eprint>", "official_url"),
            (f"<eprint><title>T</title>{_URL}<date>May 2009</date></eprint>", "date must be"),
        ],
        ids=["malformed", "no_eprint", "empty_title", "mr_not_integer", "no_official_url", "date_not_a_date"],
    )
    def test_unreadable_document_is_serialization_error(self, doc, message):
        with pytest.raises(SerializationError, match=message):
            from_eprints_xml(doc)


class TestEprintsEmitter:
    def test_enriched_record_elements(self):
        doc = to_eprints_xml(horie_record())
        assert "<msc_p>20J06</msc_p>" in doc
        assert "<mr>1317509</mr>" in doc
        assert "<url>http://www.ams.org/mathscinet-getitem?mr=1317509</url>" in doc
        assert "<type>MathSciNet</type>" in doc
        root = ET.fromstring(doc)
        subjects = [
            (item.text or "") for item in root.findall(".//{*}subjects")[0]
        ]
        assert subjects == ["20-xx", "QA"]

    def test_unenriched_record_omits_enrichment_elements(self):
        doc = to_eprints_xml(make_record())
        assert "<msc_p>" not in doc
        assert "<msc>" not in doc
        assert "<mr>" not in doc
        assert "<subjects>" not in doc

    def test_element_order_matches_platform_layout(self):
        doc = to_eprints_xml(horie_record())
        root = ET.fromstring(doc)
        eprint = root.find(".//{*}eprint")
        names = [local_name(child.tag) for child in eprint]
        expected_order = [
            "type", "subjects", "publication", "title", "creators_name",
            "official_url", "pagerange", "volume", "date", "publisher",
            "msc_p", "msc", "mr", "related_url",
        ]
        positions = [names.index(name) for name in expected_order]
        assert positions == sorted(positions)

    def test_round_trip_on_fixture_record(self):
        rec = horie_record()
        assert from_eprints_xml(to_eprints_xml(rec)) == rec

    def test_deterministic_output(self):
        rec = horie_record()
        assert to_eprints_xml(rec) == to_eprints_xml(rec)

    @given(canonical_records())
    @settings(max_examples=120)
    def test_round_trip_identity(self, rec):
        doc = to_eprints_xml(rec)
        ET.fromstring(doc)  # well-formed
        assert from_eprints_xml(doc) == rec


class TestOreAtom:
    def euclid_aggregation(self):
        return Aggregation(
            resource_map_uri="http://example.org/ore/sample",
            aggregated=(
                AggregatedResource(
                    href="http://projecteuclid.org/euclid.kmj/1138846413",
                    title="A remark on derived spaces",
                ),
                AggregatedResource(
                    href="http://projecteuclid.org/euclid.tmj/1192117987",
                    title="Spectral synthesis in the Fourier algebra and the Varopoulos algebra",
                ),
            ),
        )

    def test_two_resource_aggregation_links(self):
        doc = to_ore_atom(self.euclid_aggregation())
        root = ET.fromstring(doc)
        links = [el for el in root.iter() if local_name(el.tag) == "link"]
        aggregates = [el for el in links if el.get("rel") == ORE_AGGREGATES_REL]
        assert len(aggregates) == 2
        assert aggregates[0].get("href") == "http://projecteuclid.org/euclid.kmj/1138846413"
        assert aggregates[0].get("title") == "A remark on derived spaces"
        assert aggregates[1].get("href") == "http://projecteuclid.org/euclid.tmj/1192117987"
        assert aggregates[1].get("title") == (
            "Spectral synthesis in the Fourier algebra and the Varopoulos algebra"
        )

    def test_entry_id_is_resource_map_uri(self):
        doc = to_ore_atom(self.euclid_aggregation())
        root = ET.fromstring(doc)
        ids = [el.text for el in root.iter() if local_name(el.tag) == "id"]
        assert ids == ["http://example.org/ore/sample"]

    def test_single_resource(self):
        agg = Aggregation(
            resource_map_uri="http://example.org/ore/one",
            aggregated=(AggregatedResource(href="http://example.org/a", title="A"),),
        )
        root = ET.fromstring(to_ore_atom(agg))
        links = [el for el in root.iter() if el.get("rel") == ORE_AGGREGATES_REL]
        assert len(links) == 1

    def test_duplicate_href_rejected(self):
        with pytest.raises(SerializationError, match="duplicate"):
            Aggregation(
                resource_map_uri="http://example.org/ore/dup",
                aggregated=(
                    AggregatedResource(href="http://example.org/a", title="A"),
                    AggregatedResource(href="http://example.org/a", title="B"),
                ),
            )

    def test_empty_aggregation_rejected(self):
        with pytest.raises(SerializationError, match="at least one"):
            Aggregation(resource_map_uri="http://example.org/ore/none", aggregated=())

    def test_relative_href_rejected(self):
        with pytest.raises(SerializationError, match="absolute"):
            Aggregation(
                resource_map_uri="http://example.org/ore/r",
                aggregated=(AggregatedResource(href="articles/1", title="A"),),
            )

    def test_link_count_matches_resource_count(self):
        for n in (1, 2, 5, 9):
            agg = Aggregation(
                resource_map_uri="http://example.org/ore/n",
                aggregated=tuple(
                    AggregatedResource(href=f"http://example.org/{i}", title=f"R{i}")
                    for i in range(n)
                ),
            )
            root = ET.fromstring(to_ore_atom(agg))
            links = [el for el in root.iter() if el.get("rel") == ORE_AGGREGATES_REL]
            assert len(links) == n


class TestMets:
    def maeda_record(self):
        return make_record(
            source="yokohama",
            oai_identifier="oai:example:10131/1069",
            title="The four-or-more Vertex Theorems in 2-dimensional Space Forms",
            official_url="http://hdl.handle.net/10131/1069",
            publication="Nat. Sci. J. Fac. Educ. Hum. Sci. Yokohama National University Sec. I",
            volume="1",
            pagerange="43-46",
            date="1998",
        )

    def test_descriptive_section_carries_title_and_identifier(self):
        root = ET.fromstring(to_mets(self.maeda_record()))
        dmd = root.findall(".//{*}dmdSec")[0]
        titles = [el.text for el in dmd.iter() if local_name(el.tag) == "title"]
        identifiers = [el.text for el in dmd.iter() if local_name(el.tag) == "identifier"]
        assert "The four-or-more Vertex Theorems in 2-dimensional Space Forms" in titles
        assert "http://hdl.handle.net/10131/1069" in identifiers

    def test_file_section_empty_without_full_text(self):
        root = ET.fromstring(to_mets(self.maeda_record()))
        (file_sec,) = root.findall(".//{*}fileSec")
        assert len(list(file_sec)) == 0

    def test_file_section_references_full_text(self):
        rec = make_record(full_text_url="http://example.org/files/1.pdf")
        root = ET.fromstring(to_mets(rec))
        locs = root.findall(".//{*}FLocat")
        assert len(locs) == 1
        href = locs[0].get("{http://www.w3.org/1999/xlink}href")
        assert href == "http://example.org/files/1.pdf"

    def test_root_attributes_and_sections(self):
        rec = self.maeda_record()
        root = ET.fromstring(to_mets(rec))
        assert local_name(root.tag) == "mets"
        assert root.get("OBJID") == rec.record_id
        assert len(root.findall(".//{*}metsHdr")) == 1
        assert len(root.findall(".//{*}structMap")) == 1
        assert len(root.findall(".//{*}div")) == 1

    @pytest.mark.parametrize(
        "fields, expected",
        [
            ({"volume": "1", "date": "1998", "pagerange": "43-46"}, "J. Geom. 1 (1998), 43-46"),
            ({"date": "1998", "pagerange": "43-46"}, "J. Geom. (1998), 43-46"),
            ({"volume": "1", "pagerange": "43-46"}, "J. Geom. 1, 43-46"),
            ({"volume": "1", "date": "1998-05", "pagerange": "9"}, "J. Geom. 1 (1998), 9"),
        ],
        ids=["full", "no-volume", "no-year", "single-page"],
    )
    def test_source_carries_citation_line(self, fields, expected):
        root = ET.fromstring(to_mets(make_record(publication="J. Geom.", **fields)))
        (source,) = root.findall(".//{*}source")
        assert source.text == expected

    @given(canonical_records())
    @settings(max_examples=60)
    def test_well_formed_for_random_records(self, rec):
        ET.fromstring(to_mets(rec))
        ET.fromstring(to_eprints_xml(rec))

    def test_deterministic_output(self):
        rec = self.maeda_record()
        assert to_mets(rec) == to_mets(rec)


def _one_resource(rec):
    return Aggregation(
        resource_map_uri="http://example.org/ore/one",
        aggregated=(AggregatedResource(href=rec.official_url, title=rec.title),),
    )


WRITERS = {
    "eprints": (to_eprints_xml, et_eprints_xml),
    "mets": (to_mets, et_mets),
    "ore": (lambda rec: to_ore_atom(_one_resource(rec)), lambda rec: et_ore_atom(_one_resource(rec))),
}


class TestElementTreeBytes:
    """Each writer gives the bytes ElementTree gives for the same document (support's reference writers)."""

    @given(canonical_records())
    @settings(max_examples=150)
    def test_canonical_records(self, rec):
        for write, reference in WRITERS.values():
            assert write(rec) == reference(rec)

    @given(wide_records())
    @settings(max_examples=150)
    def test_text_that_needs_escaping(self, rec):
        for write, reference in WRITERS.values():
            assert write(rec) == reference(rec)

    @given(wide_aggregations())
    @settings(max_examples=100)
    def test_ore_attributes_that_need_escaping(self, agg):
        assert to_ore_atom(agg) == et_ore_atom(agg)

    @pytest.mark.parametrize("fmt", WRITERS)
    def test_refuses_exactly_what_xml_cannot_carry(self, fmt):
        # the ElementTree reference writes any character; expat then says whether XML can carry it
        write, reference = WRITERS[fmt]
        codes = [*range(0x20), 0x7F, 0x85, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0xFFFD, 0xFFFE,
                 0xFFFF, 0x10000, 0x10FFFF]
        for code in codes:
            rec = make_record(title=f"a{chr(code)}b")
            document = reference(rec)
            try:
                ET.fromstring(document.encode("utf-8"))
            except (ET.ParseError, UnicodeEncodeError):
                with pytest.raises(SerializationError, match=re.escape(f"holds {chr(code)!r}")):
                    write(rec)
            else:
                assert write(rec) == document


class TestDeposit:
    def test_single_post_delivers_package(self):
        received = {}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received["body"] = self.rfile.read(length)
                received["content_type"] = self.headers["Content-Type"]
                self.send_response(201)
                self.end_headers()

            def log_message(self, *args):
                pass

        package = to_mets(make_record())
        with serve_handler(Handler) as base_url:
            status = post_package(package, f"{base_url}/deposit")
        assert status == 201
        assert received["body"].decode("utf-8") == package
        assert "text/xml" in received["content_type"]
