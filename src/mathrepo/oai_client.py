"""OAI-PMH harvesting client: ListRecords paging and envelope handling."""

from __future__ import annotations

import http.client
import re
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
from .xmlutil import children, first_child, local_name, parse_xml, text_of

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


def is_file_name(name: str) -> bool:
    """Whether ``name`` names an entry of the directory it is joined to: it is not
    empty, ``.`` or ``..``, and holds no ``/`` or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


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
        if not (isinstance(self.name, str) and is_file_name(self.name)):  # it names the spool file
            raise ValueError(f"endpoint name must be a file name: {self.name!r}")
        for key in ("set_spec", "from_date", "until_date"):
            value = getattr(self, key)
            if not isinstance(value, (str, type(None))):
                raise ValueError(f"{key} must be a string or null: {value!r}")
            if key != "set_spec" and value is not None:
                parse_datestamp(value)
        start, end = self.from_date, self.until_date
        if start and end and parse_datestamp(start) > parse_datestamp(end):  # OAI-PMH: badArgument
            raise ValueError(f"from_date {start!r} is after until_date {end!r}")
        if self.metadata_prefix not in SUPPORTED_PREFIXES:
            raise ValueError(
                f"unsupported metadata prefix {self.metadata_prefix!r}; "
                f"expected one of {SUPPORTED_PREFIXES}"
            )
        if not (isinstance(self.base_url, str) and _is_http_url(self.base_url)):
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


_DATESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}(T\d{2}:\d{2}:\d{2}Z)?", re.ASCII)


def parse_datestamp(value: str) -> datetime:
    """Parse a zero-padded OAI datestamp, ``YYYY-MM-DD`` or ``YYYY-MM-DDThh:mm:ssZ`` (OAI-PMH 3.3.1)."""
    if _DATESTAMP_RE.fullmatch(value):
        try:
            return datetime.fromisoformat(value[:19]).replace(tzinfo=timezone.utc)
        except ValueError:  # a field out of range, such as month 13
            pass
    raise ValueError(f"bad OAI datestamp: {value!r}")


def _record_from_element(elem: ET.Element) -> OaiRecord:
    header = first_child(elem, "header")
    if header is None:
        raise EnvelopeError("record element without header")
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
            identifier=text_of(header, "identifier"),  # OaiRecord rejects an empty one
            datestamp=text_of(header, "datestamp"),
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
    return _records_in(parse_xml(data, EnvelopeError, "envelope XML"))


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
        root = parse_xml(_fetch(endpoint, transport, params, page, retries), EnvelopeError, "envelope XML")
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
        token = text_of(listing, "resumptionToken") if listing is not None else ""
        if not token:
            return list(merged.values())
        if token in sent:
            raise HarvestError(f"endpoint {endpoint.name!r} page {page}: resumption token {token!r} repeated")
        sent.add(token)
        page += 1


# the longest Retry-After wait honoured, so one answer cannot stall a harvest
_RETRY_AFTER_CAP_S = 30


def _fetch(endpoint, transport, params, page, retries) -> bytes:
    """One page, retrying transport failures and 5xx/429 answers; any other
    HTTP status is final. Before a retry, a 503 or 429 answer's ``Retry-After``
    in whole seconds is slept, up to ``_RETRY_AFTER_CAP_S``."""
    last_error = None
    for _ in range(retries + 1):
        if wait := _retry_after(last_error):  # 0 before the first attempt
            time.sleep(wait)
        try:
            return transport.get(endpoint.base_url, params)
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            if isinstance(exc, urllib.error.HTTPError) and exc.code < 500 and exc.code != 429:
                break
    raise HarvestError(
        f"endpoint {endpoint.name!r} page {page}: {last_error}"
    ) from last_error


def _retry_after(exc) -> int:
    """The capped seconds of a 503 or 429 answer's ``Retry-After``; 0 for an HTTP date or none."""
    if isinstance(exc, urllib.error.HTTPError) and exc.code in (429, 503):
        value = ((exc.headers or {}).get("Retry-After") or "").strip()
        if value.isascii() and value.isdigit():
            return min(int(value), _RETRY_AFTER_CAP_S)
    return 0
