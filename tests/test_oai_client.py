"""Envelope parsing, serialization round-trips, and fixture-endpoint paging."""

import urllib.parse
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathrepo.fixture_server import serve_fixtures
from mathrepo.oai_client import (
    EndpointConfig,
    EnvelopeError,
    HarvestError,
    HttpTransport,
    OaiProtocolError,
    OaiRecord,
    list_records,
    parse_datestamp,
    parse_oai_envelope,
    serialize_envelope,
)

from support import EUCLID_DC, OCHANOMIZU_JUNII2, dc_record_xml, serve_handler, write_dc_fixture_dir


def endpoint_for(server, prefix="oai_dc", **kwargs):
    return EndpointConfig(name="fixture", base_url=server.base_url, metadata_prefix=prefix, **kwargs)


class TestEndpointConfig:
    def test_rejects_unknown_prefix(self):
        with pytest.raises(ValueError, match="metadata prefix"):
            EndpointConfig(name="x", base_url="http://example.org/oai", metadata_prefix="marcxml")

    def test_rejects_relative_url(self):
        with pytest.raises(ValueError, match="absolute"):
            EndpointConfig(name="x", base_url="example.org/oai", metadata_prefix="oai_dc")

    def test_rejects_non_string_url(self):
        with pytest.raises(ValueError, match="absolute"):
            EndpointConfig(name="x", base_url=5, metadata_prefix="oai_dc")


class TestEnvelopeParsing:
    def test_euclid_record_header(self):
        records = parse_oai_envelope(EUCLID_DC.read_bytes())
        assert len(records) == 1
        rec = records[0]
        assert rec.identifier == "oai:CULeuclid:euclid.jmsj/1240435759"
        assert rec.datestamp == "2009-04-23"
        assert rec.set_specs == ("jmsj",)
        assert not rec.deleted
        assert rec.payload is not None and "Minimal 2-regular digraphs" in rec.payload

    def test_ochanomizu_record_header(self):
        records = parse_oai_envelope(OCHANOMIZU_JUNII2.read_bytes())
        assert len(records) == 1
        rec = records[0]
        assert rec.identifier == "oai:teapot.lib.ocha.ac.jp:10083/843"
        assert rec.datestamp == "2007-07-02T06:30:00Z"
        assert rec.set_specs == ("hdl_10083_792",)

    def test_zero_records(self):
        xml = b'<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListRecords/></OAI-PMH>'
        assert parse_oai_envelope(xml) == []

    def test_bare_record(self):
        (rec,) = parse_oai_envelope(dc_record_xml("oai:x:1"))
        assert rec.identifier == "oai:x:1"
        assert "A synthetic article" in rec.payload

    def test_payload_element_named_record_is_not_a_record(self):
        payload_child = '<x:record xmlns:x="http://example.org/ext">abc</x:record>'
        xml = (
            '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListRecords>'
            + dc_record_xml("oai:x:1").replace("</oai_dc:dc>", payload_child + "</oai_dc:dc>")
            + "</ListRecords></OAI-PMH>"
        )
        (rec,) = parse_oai_envelope(xml)
        assert rec.identifier == "oai:x:1"

    @pytest.mark.parametrize(
        "xml",
        [
            '<html xmlns="http://www.w3.org/1999/xhtml"><body><p>Down for maintenance</p></body></html>',
            '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><GetRecord>'
            + dc_record_xml("oai:x:1") + "</GetRecord></OAI-PMH>",
        ],
        ids=["xhtml", "get-record"],
    )
    def test_neither_record_nor_list_records_is_rejected(self, xml):
        with pytest.raises(EnvelopeError, match="neither a record nor a ListRecords"):
            parse_oai_envelope(xml)

    def test_deleted_record_has_no_payload(self):
        xml = (
            "<record><header status=\"deleted\">"
            "<identifier>oai:x:1</identifier><datestamp>2009-01-01</datestamp>"
            "</header></record>"
        )
        (rec,) = parse_oai_envelope(xml)
        assert rec.deleted and rec.payload is None

    def test_malformed_xml(self):
        with pytest.raises(EnvelopeError):
            parse_oai_envelope(b"<record><header></record>")

    def test_record_without_header(self):
        with pytest.raises(EnvelopeError, match="without header"):
            parse_oai_envelope("<record><metadata><data>x</data></metadata></record>")

    def test_missing_identifier(self):
        xml = "<record><header><datestamp>2009-01-01</datestamp></header></record>"
        with pytest.raises(EnvelopeError, match="identifier"):
            parse_oai_envelope(xml)

    def test_bad_datestamp_rejected(self):
        with pytest.raises(ValueError):
            parse_datestamp("2009/01/01")

    @pytest.mark.parametrize("stamp", ["2009-1-2", "2009-01-02T1:2:3Z"])
    def test_unpadded_header_datestamp_is_envelope_error(self, stamp):
        with pytest.raises(EnvelopeError, match="bad OAI datestamp"):
            parse_oai_envelope(dc_record_xml("oai:x:1", datestamp=stamp))


oai_records = st.builds(
    OaiRecord,
    identifier=st.from_regex(r"oai:[a-z]{1,8}:[a-z0-9]{1,8}", fullmatch=True),
    datestamp=st.one_of(
        st.just("2009-04-23"),
        st.just("2007-07-02T06:30:00Z"),
        st.integers(1990, 2020).map(lambda y: f"{y}-06-15"),
    ),
    set_specs=st.lists(st.from_regex(r"[a-z_0-9]{1,10}", fullmatch=True), max_size=3).map(tuple),
    payload=st.one_of(st.none(), st.just("<data>x</data>")),
    deleted=st.just(False),
)


class TestEnvelopeRoundTrip:
    @given(st.lists(oai_records, max_size=8, unique_by=lambda r: r.identifier))
    @settings(max_examples=60)
    def test_header_fields_survive(self, records):
        parsed = parse_oai_envelope(serialize_envelope(records))
        assert [r.identifier for r in parsed] == [r.identifier for r in records]
        assert [r.datestamp for r in parsed] == [r.datestamp for r in records]
        assert [r.set_specs for r in parsed] == [r.set_specs for r in records]
        assert [r.deleted for r in parsed] == [r.deleted for r in records]

    def test_deleted_flag_survives(self):
        rec = OaiRecord(identifier="oai:x:1", datestamp="2009-01-01", deleted=True)
        (parsed,) = parse_oai_envelope(serialize_envelope([rec]))
        assert parsed.deleted and parsed.payload is None


class TestFixtureServerPaging:
    def test_three_pages_in_order(self, tmp_path):
        identifiers = write_dc_fixture_dir(tmp_path, count=6)
        with serve_fixtures(tmp_path, page_size=2) as server:
            records = list_records(endpoint_for(server))
        assert [r.identifier for r in records] == identifiers

    def test_exact_fit_single_page(self, tmp_path):
        identifiers = write_dc_fixture_dir(tmp_path, count=5)
        with serve_fixtures(tmp_path, page_size=5) as server:
            records = list_records(endpoint_for(server))
        assert [r.identifier for r in records] == identifiers

    def test_delay_comes_between_page_fetches(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr("mathrepo.oai_client.time.sleep", sleeps.append)
        identifiers = write_dc_fixture_dir(tmp_path, count=3)
        with serve_fixtures(tmp_path, page_size=1) as server:
            records = list_records(endpoint_for(server), HttpTransport(delay=0.25))
        assert [r.identifier for r in records] == identifiers
        assert sleeps == [0.25, 0.25]  # three pages, no pause before the first

    def test_no_records_match_is_empty_success(self, tmp_path):
        with serve_fixtures(tmp_path, page_size=2) as server:
            assert list_records(endpoint_for(server)) == []

    def test_duplicate_identifier_keeps_latest_datestamp(self, tmp_path):
        write_dc_fixture_dir(tmp_path, count=12, duplicate=True)
        with serve_fixtures(tmp_path, page_size=2) as server:
            assert len(server.records) == 12
            records = list_records(endpoint_for(server))
        assert len(records) == 11
        (updated,) = [r for r in records if r.identifier == "oai:example.org:rec/000"]
        assert updated.datestamp == "2009-02-01"
        # first occurrence keeps its position
        assert records[0].identifier == "oai:example.org:rec/000"

    @pytest.mark.parametrize("page_size", [1, 2, 3, 4, 5, 6, 7])
    def test_paging_is_invisible(self, tmp_path, page_size):
        identifiers = write_dc_fixture_dir(tmp_path, count=6)
        with serve_fixtures(tmp_path, page_size=page_size) as server:
            records = list_records(endpoint_for(server))
        assert sorted(r.identifier for r in records) == sorted(identifiers)

    def test_rerun_is_deterministic(self, tmp_path):
        write_dc_fixture_dir(tmp_path, count=6)
        with serve_fixtures(tmp_path, page_size=2) as server:
            first = list_records(endpoint_for(server))
            second = list_records(endpoint_for(server))
        assert first == second

    def test_base_url_query_is_kept(self, tmp_path):
        identifiers = write_dc_fixture_dir(tmp_path, count=3)
        with serve_fixtures(tmp_path, page_size=2) as server:
            endpoint = EndpointConfig(
                name="fixture", base_url=f"{server.base_url}?site=math", metadata_prefix="oai_dc"
            )
            records = list_records(endpoint)
        assert [r.identifier for r in records] == identifiers

    def test_date_filtering(self, tmp_path):
        write_dc_fixture_dir(tmp_path, count=6)  # datestamps 2009-01-01 .. 2009-01-06
        with serve_fixtures(tmp_path, page_size=2) as server:
            records = list_records(
                endpoint_for(server, from_date="2009-01-03", until_date="2009-01-05")
            )
        assert [r.datestamp for r in records] == ["2009-01-03", "2009-01-04", "2009-01-05"]

    def test_bad_argument_raises(self, tmp_path):
        write_dc_fixture_dir(tmp_path, count=2)
        with serve_fixtures(tmp_path, page_size=2) as server:
            response = server.respond({"verb": "ListRecords"})
        assert 'code="badArgument"' in response

    def test_unreachable_endpoint_surfaces_name_and_page(self):
        endpoint = EndpointConfig(
            name="offline", base_url="http://127.0.0.1:9/oai", metadata_prefix="oai_dc"
        )
        with pytest.raises(HarvestError, match="offline.*page 1"):
            list_records(endpoint, HttpTransport(timeout=0.2), retries=0)

    def test_truncated_page_is_harvest_error_after_retries(self):
        paths = []

        class TruncatingHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                paths.append(self.path)
                self.send_response(200)
                self.send_header("Content-Type", "text/xml; charset=utf-8")
                self.send_header("Content-Length", "1000")
                self.end_headers()
                self.wfile.write(b"<OAI-PMH>")  # 9 of the 1000 promised bytes

            def log_message(self, *args):
                pass

        with serve_handler(TruncatingHandler) as base_url:
            endpoint = EndpointConfig(
                name="truncated", base_url=f"{base_url}/oai", metadata_prefix="oai_dc"
            )
            with pytest.raises(HarvestError, match="truncated.*page 1"):
                list_records(endpoint, HttpTransport(timeout=5), retries=2)
        assert len(paths) == 3

    @pytest.mark.parametrize("status, requests", [(404, 1), (400, 1), (503, 3), (429, 3)])
    def test_only_server_errors_are_retried(self, status, requests):
        paths = []

        class StatusHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                paths.append(self.path)
                self.send_error(status)

            def log_message(self, *args):
                pass

        with serve_handler(StatusHandler) as base_url:
            endpoint = EndpointConfig(
                name="failing", base_url=f"{base_url}/oai", metadata_prefix="oai_dc"
            )
            with pytest.raises(HarvestError, match=f"failing.*page 1.*{status}"):
                list_records(endpoint, HttpTransport(timeout=5), retries=2)
        assert len(paths) == requests

    @staticmethod
    def token_rejecting_handler(requests, rejections):
        """Two pages joined by the token "t1"; the first ``rejections`` requests for
        "t1" get ``badResumptionToken``."""

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                token = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query).get("resumptionToken")
                requests.append(token)
                if token is None:
                    listing = dc_record_xml("oai:x:1") + "<resumptionToken>t1</resumptionToken>"
                    inner = f"<ListRecords>{listing}</ListRecords>"
                elif sum(t is not None for t in requests) <= rejections:
                    inner = '<error code="badResumptionToken">expired</error>'
                else:
                    inner = f"<ListRecords>{dc_record_xml('oai:x:2')}</ListRecords>"
                body = f'<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">{inner}</OAI-PMH>'.encode()
                self.send_response(200)
                self.send_header("Content-Type", "text/xml")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        return Handler

    def test_rejected_token_restarts_the_harvest_once(self):
        requests = []
        with serve_handler(self.token_rejecting_handler(requests, rejections=1)) as base_url:
            endpoint = EndpointConfig(name="expiring", base_url=f"{base_url}/oai", metadata_prefix="oai_dc")
            records = list_records(endpoint, HttpTransport(timeout=5))
        assert [r.identifier for r in records] == ["oai:x:1", "oai:x:2"]
        assert requests == [None, ["t1"], None, ["t1"]]

    def test_token_rejected_again_raises_its_code(self):
        requests = []
        with serve_handler(self.token_rejecting_handler(requests, rejections=99)) as base_url:
            endpoint = EndpointConfig(name="expiring", base_url=f"{base_url}/oai", metadata_prefix="oai_dc")
            with pytest.raises(OaiProtocolError) as info:
                list_records(endpoint, HttpTransport(timeout=5))
        assert info.value.code == "badResumptionToken"
        assert requests == [None, ["t1"], None, ["t1"]]

    def test_protocol_error_raises(self, tmp_path):
        write_dc_fixture_dir(tmp_path, count=2)
        with serve_fixtures(tmp_path, page_size=2) as server:

            class BadVerbTransport(HttpTransport):
                def get(self, url, params):
                    params = dict(params, verb="Identify")
                    return super().get(url, params)

            with pytest.raises(OaiProtocolError, match="badVerb"):
                list_records(endpoint_for(server), BadVerbTransport())
