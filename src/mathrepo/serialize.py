"""Exchange-format serializers: EPrints XML, ORE Atom entries, METS packages.

All serializers are deterministic (same record, byte-identical output) and
emit well-formed UTF-8 XML, written line by line in the bytes ElementTree
would give; a record holding a character that XML 1.0 cannot carry is a
``SerializationError``. ElementTree only reads (``from_eprints_xml``).
"""

from __future__ import annotations

import functools
import http.client
import re
import urllib.parse
import urllib.request
from dataclasses import dataclass
from xml.sax.saxutils import escape

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

# the characters XML 1.0 forbids: C0 controls other than tab, LF and CR; surrogates; U+FFFE and U+FFFF
_NOT_XML_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# an attribute value escaped as ElementTree escapes it: & < > and also ", CR, LF and tab
_attr = functools.partial(escape, entities={'"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


class SerializationError(MathRepoError):
    """Record or aggregation cannot be rendered in the requested format."""


class DepositError(MathRepoError):
    """A package could not be delivered to the deposit URL."""


def _leaf(depth: int, tag: str, text: str) -> str:
    """The line of element ``tag`` holding ``text``, ``depth`` levels in; ``<tag />`` when it is empty."""
    pad = "  " * depth
    return f"{pad}<{tag}>{escape(text)}</{tag}>" if text else f"{pad}<{tag} />"


def _branch(depth: int, start: str, lines: list[str]) -> list[str]:
    """Element ``start`` (name, then attributes) around ``lines``, ``depth`` levels in; ``<start />`` if none."""
    pad = "  " * depth
    return [f"{pad}<{start}>", *lines, f"{pad}</{start.partition(' ')[0]}>"] if lines else [f"{pad}<{start} />"]


def _finished(lines: list[str], subject: str) -> str:
    """The document of ``lines``; a ``SerializationError`` naming ``subject`` if XML cannot carry it."""
    text = "\n".join(lines)
    if bad := _NOT_XML_RE.search(text):
        raise SerializationError(f"{subject} holds {bad.group()!r}, which XML cannot carry")
    return '<?xml version="1.0" encoding="utf-8" ?>\n' + text


# ---------------------------------------------------------------------------
# EPrints XML

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


def to_eprints_xml(rec: CanonicalRecord) -> str:
    """Render a record as an EPrints XML import document.

    Emits the platform boilerplate plus the bibliographic and enrichment
    elements; fields absent from the record are omitted. Provenance fields
    (source, oai_identifier, full_text_url, language) ride along as custom
    elements so the document round-trips.
    """
    head, biblio, provenance = (
        [_leaf(2, tag, value) for tag, name in run if (value := getattr(rec, name))] for run in _EP_TEXT_RUNS
    )
    subjects = [_leaf(3, "item", code) for code in _subject_items(rec)]
    creators = [line for name in rec.creators
                for line in _branch(3, "item", [_leaf(4, "family", name.family), _leaf(4, "given", name.given)])]
    related = [line for ru in rec.related_urls
               for line in _branch(3, "item", [_leaf(4, "url", ru.url), _leaf(4, "type", ru.type)])]
    # plain tags; the namespace is a literal xmlns attribute so the document matches the platform layout
    lines = _branch(0, "eprints", _branch(1, f'eprint xmlns="{EPRINTS_NS}"', [
        "    <rev_number>1</rev_number>",
        "    <eprint_status>archive</eprint_status>",
        "    <userid>1</userid>",
        "    <metadata_visibility>show</metadata_visibility>",
        "    <type>article</type>",
        "    <ispublished>pub</ispublished>",
        *(_branch(2, "subjects", subjects) if subjects else []),
        f"    <refereed>{'TRUE' if rec.refereed else 'FALSE'}</refereed>",
        "    <full_text_status>public</full_text_status>",
        "    <date_type>published</date_type>",
        *head,
        *(_branch(2, "creators_name", creators) if creators else []),
        *biblio,
        *(_branch(2, "msc", [_leaf(3, "item", code) for code in rec.msc_secondary]) if rec.msc_secondary else []),
        *([] if rec.mr_number is None else [_leaf(2, "mr", str(rec.mr_number))]),
        *(_branch(2, "related_url", related) if related else []),
        *provenance,
    ]))
    return _finished(lines, f"record {rec.record_id}")


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

    def items(tag: str) -> list:  # the elements that are children of list element ``tag``
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
    lines = _branch(0, f'atom:entry xmlns:atom="{ATOM_NS}"', [
        _leaf(1, "atom:id", agg.resource_map_uri),
        _leaf(1, "atom:title", agg.resource_map_uri),
        _leaf(1, "atom:published", agg.created),
        _leaf(1, "atom:updated", agg.modified),
        "  <!-- Aggregated Resources -->",
        *(f'  <atom:link href="{_attr(res.href)}" title="{_attr(res.title)}" rel="{ORE_AGGREGATES_REL}" />'
          for res in agg.aggregated),
    ])
    return _finished(lines, f"resource map {agg.resource_map_uri!r}")


# ---------------------------------------------------------------------------
# METS

def to_mets(rec: CanonicalRecord) -> str:
    """Render a record as a minimal METS package: header, Dublin Core
    descriptive section, file section (empty without a full-text URL), and
    a single-division structural map."""
    source = citation_text(rec.publication, rec.volume, rec.year, rec.pagerange) if rec.publication else ""
    dc = [("title", rec.title), *(("creator", name.display()) for name in rec.creators)]
    dc += [(tag, text) for tag, text in (("publisher", rec.publisher), ("date", rec.date), ("source", source)) if text]
    dc += [("identifier", rec.official_url), *([("language", rec.language)] if rec.language else [])]
    href = _attr(rec.full_text_url)
    flocat = [f'        <mets:FLocat LOCTYPE="URL" xlink:href="{href}" />'] if href else []
    xlink = f' xmlns:xlink="{XLINK_NS}"' if flocat else ""  # ElementTree declares a prefix only where it is used
    root = f'mets:mets xmlns:dc="{DC_NS}" xmlns:mets="{METS_NS}"{xlink} OBJID="{_attr(rec.record_id)}"'
    lines = _branch(0, f'{root} LABEL="{_attr(rec.title)}"', [
        *_branch(1, "mets:metsHdr", _branch(2, 'mets:agent ROLE="CREATOR" TYPE="OTHER" OTHERTYPE="SOFTWARE"',
                                            ["      <mets:name>mathrepo</mets:name>"])),
        *_branch(1, 'mets:dmdSec ID="DMD1"', _branch(2, 'mets:mdWrap MDTYPE="DC"', _branch(3, "mets:xmlData", [
            _leaf(4, f"dc:{tag}", text) for tag, text in dc
        ]))),
        *_branch(1, "mets:fileSec", _branch(2, 'mets:fileGrp USE="public"', _branch(
            3, 'mets:file ID="FILE1" MIMETYPE="application/pdf"', flocat)) if flocat else []),
        *_branch(1, 'mets:structMap TYPE="PHYSICAL"', _branch(2, 'mets:div TYPE="article" DMDID="DMD1"', [
            '      <mets:fptr FILEID="FILE1" />',
        ] if flocat else [])),
    ])
    return _finished(lines, f"record {rec.record_id}")


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
