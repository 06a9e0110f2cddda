"""Exchange-format serializers: EPrints XML, ORE Atom entries, METS packages.

All serializers are deterministic (same record, byte-identical output) and
emit well-formed UTF-8 XML.
"""

from __future__ import annotations

import http.client
import urllib.parse
import urllib.request
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .errors import MathRepoError
from .msc import msc_fields
from .parsers import citation_text
from .records import CanonicalRecord, NameParts, RecordError, RelatedUrl, make_record_id
from .xmlutil import first_child, local_name, parse_xml, text_of

EPRINTS_NS = "http://eprints.org/ep2/data/2.0"
ATOM_NS = "http://www.w3.org/2005/Atom"
METS_NS = "http://www.loc.gov/METS/"
DC_NS = "http://purl.org/dc/elements/1.1/"
XLINK_NS = "http://www.w3.org/1999/xlink"
ORE_AGGREGATES_REL = "http://www.openarchives.org/ore/terms/aggregates"

ET.register_namespace("atom", ATOM_NS)
ET.register_namespace("mets", METS_NS)
ET.register_namespace("dc", DC_NS)
ET.register_namespace("xlink", XLINK_NS)


class SerializationError(MathRepoError):
    """Record or aggregation cannot be rendered in the requested format."""


class DepositError(MathRepoError):
    """A package could not be delivered to the deposit URL."""


def _document(root: ET.Element) -> str:
    ET.indent(root, space="  ")
    return '<?xml version="1.0" encoding="utf-8" ?>\n' + ET.tostring(root, encoding="unicode")


# ---------------------------------------------------------------------------
# EPrints XML

def _ep(parent: ET.Element, tag: str, text: str | None = None) -> ET.Element:
    # plain tags; the namespace is declared as a literal xmlns attribute on
    # the eprint element so the document matches the platform layout
    elem = ET.SubElement(parent, tag)
    elem.text = text
    return elem


def _subject_items(rec: CanonicalRecord) -> list[str]:
    # Presentation-only: collective "-xx" forms of the record's top-level
    # fields, plus the library class for mathematics.
    fields = dict.fromkeys(msc_fields([code for code in (rec.msc_primary, *rec.msc_secondary) if code]))
    return [*(f"{top}-xx" for top in fields), "QA"] if fields else []


# The text elements and the record fields they carry, as three runs in document
# order; the writer puts the list elements between the runs, the reader reads them all.
_EP_TEXT_RUNS = (
    (("publication", "publication"), ("title", "title")),
    (("official_url", "official_url"), ("pagerange", "pagerange"), ("volume", "volume"), ("number", "issue"),
     ("date", "date"), ("publisher", "publisher"), ("msc_p", "msc_primary")),
    (("full_text_url", "full_text_url"), ("language", "language"), ("source", "source"),
     ("oai_identifier", "oai_identifier")),
)


def _ep_texts(ep: ET.Element, rec: CanonicalRecord, run) -> None:
    for tag, name in run:
        value = getattr(rec, name)
        if value:
            _ep(ep, tag, value)


def to_eprints_xml(rec: CanonicalRecord) -> str:
    """Render a record as an EPrints XML import document.

    Emits the platform boilerplate plus the bibliographic and enrichment
    elements; fields absent from the record are omitted. Provenance fields
    (source, oai_identifier, full_text_url, language) ride along as custom
    elements so the document round-trips.
    """
    head, biblio, provenance = _EP_TEXT_RUNS
    root = ET.Element("eprints")
    ep = ET.SubElement(root, "eprint", {"xmlns": EPRINTS_NS})
    _ep(ep, "rev_number", "1")
    _ep(ep, "eprint_status", "archive")
    _ep(ep, "userid", "1")
    _ep(ep, "metadata_visibility", "show")
    _ep(ep, "type", "article")
    _ep(ep, "ispublished", "pub")
    subjects = _subject_items(rec)
    if subjects:
        container = _ep(ep, "subjects")
        for code in subjects:
            _ep(container, "item", code)
    _ep(ep, "refereed", "TRUE" if rec.refereed else "FALSE")
    _ep(ep, "full_text_status", "public")
    _ep(ep, "date_type", "published")
    _ep_texts(ep, rec, head)
    if rec.creators:
        creators = _ep(ep, "creators_name")
        for name in rec.creators:
            item = _ep(creators, "item")
            _ep(item, "family", name.family)
            _ep(item, "given", name.given)
    _ep_texts(ep, rec, biblio)
    if rec.msc_secondary:
        msc = _ep(ep, "msc")
        for code in rec.msc_secondary:
            _ep(msc, "item", code)
    if rec.mr_number is not None:
        _ep(ep, "mr", str(rec.mr_number))
    if rec.related_urls:
        related = _ep(ep, "related_url")
        for ru in rec.related_urls:
            item = _ep(related, "item")
            _ep(item, "url", ru.url)
            _ep(item, "type", ru.type)
    _ep_texts(ep, rec, provenance)
    return _document(root)


def from_eprints_xml(data) -> CanonicalRecord:
    """Read an EPrints XML document back into a CanonicalRecord.

    The document is an ``eprint`` element or a root (``eprints``) whose
    child it is. Platform boilerplate and the derived subjects block are
    ignored; missing provenance elements default to empty strings.
    """
    root = parse_xml(data, SerializationError, "EPrints XML")
    ep = root if local_name(root.tag) == "eprint" else first_child(root, "eprint")
    if ep is None:
        raise SerializationError("document has no eprint element")

    texts = {name: text_of(ep, tag) for run in _EP_TEXT_RUNS for tag, name in run}
    if not texts["title"]:
        raise SerializationError("eprint element has no title")

    def items(tag: str) -> list[ET.Element]:  # the children of list element ``tag``
        container = first_child(ep, tag)
        return [] if container is None else list(container)

    names = [(text_of(item, "family"), text_of(item, "given")) for item in items("creators_name")]
    codes = [(item.text or "").strip() for item in items("msc")]
    urls = [(text_of(item, "url"), text_of(item, "type")) for item in items("related_url")]
    mr_text = text_of(ep, "mr")
    try:
        return CanonicalRecord(
            record_id=make_record_id(texts["source"], texts["oai_identifier"]),
            creators=[NameParts(family=family, given=given) for family, given in names if family or given],
            msc_secondary=[code for code in codes if code],
            mr_number=int(mr_text) if mr_text else None,
            related_urls=[RelatedUrl(url=url, type=kind) for url, kind in urls if url],
            refereed=text_of(ep, "refereed") != "FALSE",
            **texts,
        )
    except (ValueError, RecordError) as exc:  # a non-integer <mr>, or a field that breaks an invariant
        raise SerializationError(f"eprint element is not a valid record: {exc}") from exc


# ---------------------------------------------------------------------------
# OAI-ORE Atom serialization

def _is_absolute_uri(value: str) -> bool:
    return bool(urllib.parse.urlparse(value).scheme)


@dataclass(frozen=True)
class AggregatedResource:
    href: str
    title: str


@dataclass(frozen=True)
class Aggregation:
    """A resource map aggregating web resources (e.g. the article's official
    location and its portal entry)."""

    resource_map_uri: str
    aggregated: tuple[AggregatedResource, ...]
    created: str = "1970-01-01T00:00:00Z"
    modified: str = "1970-01-01T00:00:00Z"

    def __post_init__(self):
        object.__setattr__(self, "aggregated", tuple(self.aggregated))
        if not self.aggregated:
            raise SerializationError("aggregation must contain at least one resource")
        if not _is_absolute_uri(self.resource_map_uri):
            raise SerializationError(f"resource map URI must be absolute: {self.resource_map_uri!r}")
        seen = set()
        for res in self.aggregated:
            if not _is_absolute_uri(res.href):
                raise SerializationError(f"aggregated href must be absolute: {res.href!r}")
            if res.href in seen:
                raise SerializationError(f"duplicate aggregated href: {res.href!r}")
            seen.add(res.href)


def to_ore_atom(agg: Aggregation) -> str:
    """Render an aggregation as an Atom entry with one ore:aggregates link
    per resource."""
    entry = ET.Element(f"{{{ATOM_NS}}}entry")
    ET.SubElement(entry, f"{{{ATOM_NS}}}id").text = agg.resource_map_uri
    ET.SubElement(entry, f"{{{ATOM_NS}}}title").text = agg.resource_map_uri
    ET.SubElement(entry, f"{{{ATOM_NS}}}published").text = agg.created
    ET.SubElement(entry, f"{{{ATOM_NS}}}updated").text = agg.modified
    entry.append(ET.Comment(" Aggregated Resources "))
    for res in agg.aggregated:
        link = ET.SubElement(entry, f"{{{ATOM_NS}}}link")
        link.set("href", res.href)
        link.set("title", res.title)
        link.set("rel", ORE_AGGREGATES_REL)
    return _document(entry)


# ---------------------------------------------------------------------------
# METS

def _mets(parent: ET.Element, tag: str, attrib: dict | None = None) -> ET.Element:
    return ET.SubElement(parent, f"{{{METS_NS}}}{tag}", attrib or {})


def _dc(parent: ET.Element, tag: str, text: str) -> None:
    ET.SubElement(parent, f"{{{DC_NS}}}{tag}").text = text


def to_mets(rec: CanonicalRecord) -> str:
    """Render a record as a minimal METS package: header, Dublin Core
    descriptive section, file section (empty without a full-text URL), and
    a single-division structural map."""
    mets = ET.Element(f"{{{METS_NS}}}mets", {"OBJID": rec.record_id, "LABEL": rec.title})
    header = _mets(mets, "metsHdr")
    agent = _mets(header, "agent", {"ROLE": "CREATOR", "TYPE": "OTHER", "OTHERTYPE": "SOFTWARE"})
    _mets(agent, "name").text = "mathrepo"
    dmd = _mets(mets, "dmdSec", {"ID": "DMD1"})
    wrap = _mets(dmd, "mdWrap", {"MDTYPE": "DC"})
    xml_data = _mets(wrap, "xmlData")
    _dc(xml_data, "title", rec.title)
    for name in rec.creators:
        _dc(xml_data, "creator", name.display())
    if rec.publisher:
        _dc(xml_data, "publisher", rec.publisher)
    if rec.date:
        _dc(xml_data, "date", rec.date)
    if rec.publication:
        _dc(xml_data, "source", citation_text(rec.publication, rec.volume, rec.year, rec.pagerange))
    _dc(xml_data, "identifier", rec.official_url)
    if rec.language:
        _dc(xml_data, "language", rec.language)
    file_sec = _mets(mets, "fileSec")
    if rec.full_text_url:
        group = _mets(file_sec, "fileGrp", {"USE": "public"})
        file_elem = _mets(group, "file", {"ID": "FILE1", "MIMETYPE": "application/pdf"})
        _mets(file_elem, "FLocat", {"LOCTYPE": "URL", f"{{{XLINK_NS}}}href": rec.full_text_url})
    struct = _mets(mets, "structMap", {"TYPE": "PHYSICAL"})
    div = _mets(struct, "div", {"TYPE": "article", "DMDID": "DMD1"})
    if rec.full_text_url:
        _mets(div, "fptr", {"FILEID": "FILE1"})
    return _document(mets)


def post_package(package: str | bytes, deposit_url: str, timeout: float = 30.0) -> int:
    """Push a serialized package to a deposit URL with a single HTTP POST.

    Returns the response status code; raises ``DepositError`` on transport
    or HTTP errors.
    """
    data = package.encode("utf-8") if isinstance(package, str) else package
    request = urllib.request.Request(
        deposit_url, data=data, headers={"Content-Type": "text/xml; charset=utf-8"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status
    except (OSError, http.client.HTTPException) as exc:
        raise DepositError(f"deposit to {deposit_url} failed: {exc}") from exc
