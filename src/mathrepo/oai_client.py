"""OAI-PMH harvesting client: ListRecords paging and envelope handling."""

from __future__ import annotations

import http.client
import time
import urllib.error
import urllib.parse
import urllib.request
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone
from xml.sax.saxutils import escape

from .errors import MathRepoError
from .records import _is_http_url
from .xmlutil import children, first_child, local_name

SUPPORTED_PREFIXES = ("oai_dc", "junii2")

OAI_NS = "http://www.openarchives.org/OAI/2.0/"

# keep extracted payload subtrees readable when re-serialized
ET.register_namespace("oai_dc", "http://www.openarchives.org/OAI/2.0/oai_dc/")
ET.register_namespace("junii2", "http://ju.nii.ac.jp/junii2")


class HarvestError(MathRepoError):
    """Transport-level failure while talking to an endpoint."""


class OaiProtocolError(MathRepoError):
    """The endpoint answered with an OAI-PMH error condition."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


class EnvelopeError(MathRepoError):
    """Malformed or incomplete OAI-PMH response envelope."""


@dataclass(frozen=True)
class EndpointConfig:
    """One harvested repository: where it lives and how to ask it."""

    name: str
    base_url: str
    metadata_prefix: str
    set_spec: str | None = None
    from_date: str | None = None
    until_date: str | None = None

    def __post_init__(self):
        if self.metadata_prefix not in SUPPORTED_PREFIXES:
            raise ValueError(
                f"unsupported metadata prefix {self.metadata_prefix!r}; "
                f"expected one of {SUPPORTED_PREFIXES}"
            )
        if not _is_http_url(self.base_url):
            raise ValueError(f"base_url must be an absolute HTTP(S) URL: {self.base_url!r}")


@dataclass(frozen=True)
class OaiRecord:
    """Raw harvested envelope entry.

    ``payload`` holds the serialized metadata subtree (the first element
    child of ``<metadata>``); immutable and safe to share across threads.
    """

    identifier: str
    datestamp: str
    set_specs: tuple[str, ...] = ()
    payload: str | None = None
    deleted: bool = False

    def __post_init__(self):
        if not self.identifier:
            raise ValueError("OAI record identifier must be non-empty")
        if self.deleted and self.payload is not None:
            raise ValueError("deleted record cannot carry a metadata payload")
        parse_datestamp(self.datestamp)


def parse_datestamp(value: str) -> datetime:
    """Parse an OAI datestamp, either date-only or a full UTC timestamp."""
    for fmt in ("%Y-%m-%d", "%Y-%m-%dT%H:%M:%SZ"):
        try:
            return datetime.strptime(value, fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
    raise ValueError(f"bad OAI datestamp: {value!r}")


def _parse_xml(data) -> ET.Element:
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise EnvelopeError(f"malformed envelope XML: {exc}") from exc


def _record_from_element(elem: ET.Element) -> OaiRecord:
    header = first_child(elem, "header")
    if header is None:
        raise EnvelopeError("record element without header")
    ident = first_child(header, "identifier")
    identifier = (ident.text or "").strip() if ident is not None else ""
    if not identifier:
        raise EnvelopeError("record header missing identifier")
    stamp = first_child(header, "datestamp")
    datestamp = (stamp.text or "").strip() if stamp is not None else ""
    set_specs = tuple(
        (spec.text or "").strip() for spec in children(header, "setSpec") if (spec.text or "").strip()
    )
    deleted = header.get("status") == "deleted"
    payload = None
    if not deleted:
        metadata = first_child(elem, "metadata")
        if metadata is not None:
            inner = next(iter(metadata), None)
            if inner is not None:
                payload = ET.tostring(inner, encoding="unicode")
    try:
        return OaiRecord(
            identifier=identifier,
            datestamp=datestamp,
            set_specs=set_specs,
            payload=payload,
            deleted=deleted,
        )
    except ValueError as exc:
        raise EnvelopeError(str(exc)) from exc


def _records_in(root: ET.Element) -> list[OaiRecord]:
    if local_name(root.tag) == "record":
        return [_record_from_element(root)]
    listing = first_child(root, "ListRecords")
    if listing is None:
        raise EnvelopeError(f"<{local_name(root.tag)}> is neither a record nor a ListRecords response")
    return [_record_from_element(elem) for elem in children(listing, "record")]


def parse_oai_envelope(data) -> list[OaiRecord]:
    """Extract the records of an OAI-PMH ListRecords response or fixture file.

    Accepts a bare ``<record>`` or a root whose ``ListRecords`` child holds
    the records; anything else is an ``EnvelopeError``. Namespaces are
    ignored.
    """
    return _records_in(_parse_xml(data))


def _serialize_record(rec: OaiRecord) -> str:
    status = ' status="deleted"' if rec.deleted else ""
    parts = [
        f"<record><header{status}>",
        f"<identifier>{escape(rec.identifier)}</identifier>",
        f"<datestamp>{escape(rec.datestamp)}</datestamp>",
    ]
    parts.extend(f"<setSpec>{escape(spec)}</setSpec>" for spec in rec.set_specs)
    parts.append("</header>")
    if rec.payload is not None:
        parts.append(f"<metadata>{rec.payload}</metadata>")
    parts.append("</record>")
    return "".join(parts)


def serialize_envelope(records, resumption_token: str | None = None, response_date: str | None = None) -> str:
    """Render records as a ListRecords response envelope.

    ``response_date=None`` omits the element so spooled envelopes stay
    byte-identical across reruns.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<OAI-PMH xmlns="{OAI_NS}">',
    ]
    if response_date:
        parts.append(f"<responseDate>{escape(response_date)}</responseDate>")
    parts.append("<ListRecords>")
    parts.extend(_serialize_record(rec) for rec in records)
    if resumption_token:
        parts.append(f"<resumptionToken>{escape(resumption_token)}</resumptionToken>")
    parts.append("</ListRecords></OAI-PMH>")
    return "".join(parts)


class HttpTransport:
    """Thin HTTP GET wrapper, one instance per harvested endpoint.

    ``delay`` is the politeness pause between consecutive page fetches; leave
    it at 0 for local fixture endpoints.
    """

    def __init__(self, timeout: float = 30.0, delay: float = 0.0):
        self.timeout = timeout
        self.delay = delay
        self._fetched = False

    def get(self, url: str, params: dict) -> bytes:
        if self._fetched and self.delay > 0:
            time.sleep(self.delay)
        self._fetched = True
        sep = "&" if "?" in url else "?"  # keep a query the base URL already carries
        request_url = url + sep + urllib.parse.urlencode(params)
        try:
            with urllib.request.urlopen(request_url, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            exc.close()  # the error response still holds the connection
            raise


def list_records(endpoint: EndpointConfig, transport: HttpTransport | None = None, retries: int = 2) -> list[OaiRecord]:
    """Harvest every record the endpoint exposes, following resumption tokens.

    Duplicate identifiers across pages are deduplicated keeping the latest datestamp (the
    first occurrence keeps its position). ``noRecordsMatch`` yields an empty list; a rejected
    resumption token triggers one full re-harvest before giving up, and a token the endpoint
    sent before is a ``HarvestError``.
    """
    transport = transport or HttpTransport()
    try:
        return _harvest_once(endpoint, transport, retries)
    except OaiProtocolError as exc:
        if exc.code == "badResumptionToken":
            return _harvest_once(endpoint, transport, retries)
        raise


def _harvest_once(endpoint: EndpointConfig, transport, retries: int) -> list[OaiRecord]:
    merged: dict[str, OaiRecord] = {}
    token: str | None = None
    sent: set[str] = set()  # a token seen twice would page forever
    page = 1
    while True:
        params = {"verb": "ListRecords"}
        if token is None:
            params["metadataPrefix"] = endpoint.metadata_prefix
            if endpoint.set_spec:
                params["set"] = endpoint.set_spec
            if endpoint.from_date:
                params["from"] = endpoint.from_date
            if endpoint.until_date:
                params["until"] = endpoint.until_date
        else:
            params["resumptionToken"] = token
        root = _parse_xml(_fetch(endpoint, transport, params, page, retries))
        error = first_child(root, "error")
        if error is not None:
            code = error.get("code", "")
            if code == "noRecordsMatch":
                return list(merged.values())
            raise OaiProtocolError(code, (error.text or "").strip())
        for rec in _records_in(root):
            previous = merged.get(rec.identifier)
            if previous is None or parse_datestamp(rec.datestamp) >= parse_datestamp(previous.datestamp):
                merged[rec.identifier] = rec
        listing = first_child(root, "ListRecords")
        token_elem = first_child(listing, "resumptionToken") if listing is not None else None
        token = (token_elem.text or "").strip() if token_elem is not None else ""
        if not token:
            return list(merged.values())
        if token in sent:
            raise HarvestError(f"endpoint {endpoint.name!r} page {page}: resumption token {token!r} repeated")
        sent.add(token)
        page += 1


def _fetch(endpoint, transport, params, page, retries) -> bytes:
    last_error = None
    for _ in range(retries + 1):
        try:
            return transport.get(endpoint.base_url, params)
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
    raise HarvestError(
        f"endpoint {endpoint.name!r} page {page}: {last_error}"
    ) from last_error
