"""Metadata dialect parsers: oai_dc, junii2, and free-text citation strings."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import MathRepoError
from .xmlutil import collapse_ws, local_name, parse_xml


class MetadataError(MathRepoError):
    """Payload violates the dialect contract (missing title, bad pages, ...)."""


@dataclass
class DcRecord:
    """Simple Dublin Core payload as delivered inside oai_dc metadata."""

    title: str
    creators: list[str] = field(default_factory=list)
    subjects: list[str] = field(default_factory=list)
    publisher: str = ""
    date: str = ""
    type: str = ""
    format: str = ""
    identifiers: list[str] = field(default_factory=list)
    language: str = ""
    rights: str = ""


@dataclass
class Junii2Record:
    """junii2 payload; every bibliographic element is a distinct field."""

    title: str
    uri: str
    creators: list[str] = field(default_factory=list)
    ndc: str = ""
    publisher: str = ""
    nii_type: str = ""
    formats: list[str] = field(default_factory=list)
    full_text_url: str = ""
    issn: str = ""
    ncid: str = ""
    jtitle: str = ""
    volume: str = ""
    issue: str = ""
    spage: str = ""
    epage: str = ""
    date_of_issued: str = ""


@dataclass
class Citation:
    """Best-effort structure extracted from a free-text citation string."""

    raw: str
    journal_title: str = ""
    volume: str = ""
    issue: str = ""
    year: int | None = None
    spage: int | None = None
    epage: int | None = None


def _as_element(payload) -> ET.Element:
    if isinstance(payload, ET.Element):
        return payload
    if isinstance(payload, (str, bytes)):
        return parse_xml(payload, MetadataError, "metadata payload")
    raise MetadataError(f"metadata payload must be XML text or an Element, not {payload!r}")


def _collect(payload, lists: dict[str, str], scalars: dict[str, str]) -> dict:
    """Walk the payload once, mapping element local names to record fields.

    List fields collect every value in source order; a scalar field keeps
    its first value. Text is whitespace-collapsed; elements without text are skipped.
    """
    found: dict = {name: [] for name in lists.values()}
    for node in _as_element(payload).iter():
        name = local_name(node.tag)
        text = collapse_ws(node.text)
        if not text:
            continue
        if name in lists:
            found[lists[name]].append(text)
        elif name in scalars:
            found.setdefault(scalars[name], text)
    return found


_DC_LISTS = {"creator": "creators", "subject": "subjects", "identifier": "identifiers"}
_DC_SCALARS = {n: n for n in ("title", "publisher", "date", "type", "format", "language", "rights")}


def parse_oai_dc(payload) -> DcRecord:
    """Map dc:* children onto a DcRecord.

    Repeated list elements accumulate in source order; repeated scalar
    elements keep the first occurrence. Text is whitespace-collapsed.
    """
    found = _collect(payload, _DC_LISTS, _DC_SCALARS)
    if "title" not in found:
        raise MetadataError("oai_dc payload has no dc:title")
    if not found["identifiers"]:
        raise MetadataError("oai_dc payload has no dc:identifier")
    return DcRecord(**found)


# junii2 element name -> record field
_JUNII2_LISTS = {"creator": "creators", "format": "formats"}
_JUNII2_SCALARS = {
    "title": "title",
    "NDC": "ndc",
    "publisher": "publisher",
    "NIItype": "nii_type",
    "URI": "uri",
    "fullTextURL": "full_text_url",
    "issn": "issn",
    "NCID": "ncid",
    "jtitle": "jtitle",
    "volume": "volume",
    "issue": "issue",
    "spage": "spage",
    "epage": "epage",
    "dateofissued": "date_of_issued",
}
_JUNII2_NUMERIC = ("volume", "issue", "spage", "epage")


def parse_junii2(payload) -> Junii2Record:
    """Map junii2 children onto a Junii2Record and validate numeric fields."""
    found = _collect(payload, _JUNII2_LISTS, _JUNII2_SCALARS)
    if "title" not in found:
        raise MetadataError("junii2 payload has no title")
    if "uri" not in found:
        raise MetadataError("junii2 payload has no URI")
    for key in _JUNII2_NUMERIC:
        value = found.get(key, "")
        if value and not value.isdigit():
            raise MetadataError(f"junii2 {key} must be digits, got {value!r}")
    spage, epage = found.get("spage", ""), found.get("epage", "")
    if spage and epage and int(spage) > int(epage):
        raise MetadataError(f"junii2 page range inverted: spage {spage} > epage {epage}")
    issn = found.get("issn", "")
    if issn and len(issn.replace("-", "")) != 8:
        raise MetadataError(f"junii2 ISSN must have 8 characters: {issn!r}")
    return Junii2Record(**found)


# Layered citation grammar, applied back to front:
# trailing page range, parenthesized year, issue marker, volume, journal.
_PAGE_RANGE_RE = re.compile(r"[\s.,;:]*(?:pp?\.?\s*)?(\d+)\s*[-–]\s*(\d+)\s*\.?\s*$")
_YEAR_RE = re.compile(r"\((\d{4})\)")
_ISSUE_RE = re.compile(r"(?:\bno\.?|\bissue\b)\s*(\d+)", re.IGNORECASE)
_STANDALONE_INT_RE = re.compile(r"(?<![\w.])(\d+)(?![\w.])")
_TRAILING_SEPARATORS_RE = re.compile(r"[\s,;:]+\Z")


def parse_citation_string(s: str) -> Citation:
    """Extract journal/volume/issue/year/pages from a citation string.

    Total on non-empty input: unidentifiable fields stay empty, and a
    string with no recognizable structure comes back as journal_title.
    """
    if not s or not s.strip():
        raise ValueError("citation string must be non-empty")
    work = s.strip()
    spage = epage = None
    pages_found = False
    match = _PAGE_RANGE_RE.search(work)
    if match:
        spage, epage = int(match.group(1)), int(match.group(2))
        pages_found = True
        work = work[: match.start()]

    year = None
    year_span = None
    for ym in _YEAR_RE.finditer(work):
        value = int(ym.group(1))
        if 1600 <= value <= 2100:
            year, year_span = value, ym.span()

    issue = ""
    issue_span = None
    im = _ISSUE_RE.search(work)
    if im:
        issue, issue_span = im.group(1), im.span()

    # Volume needs an anchor (year or page range) so that bare trailing
    # numbers in unstructured strings are not misread as volumes.
    volume = ""
    volume_span = None
    if year_span is not None or pages_found:
        limit = year_span[0] if year_span is not None else len(work)
        for vm in _STANDALONE_INT_RE.finditer(work, 0, limit):
            if issue_span is not None and issue_span[0] <= vm.start() < issue_span[1]:
                continue
            volume, volume_span = vm.group(1), vm.span()

    if volume_span is not None:
        prefix = work[: volume_span[0]]
    elif year_span is not None:
        prefix = work[: year_span[0]]
    else:
        prefix = work
    journal = _TRAILING_SEPARATORS_RE.sub("", prefix).lstrip()
    if not journal and year is None and not volume and not pages_found:
        journal = work
    return Citation(
        raw=s,
        journal_title=journal,
        volume=volume,
        issue=issue,
        year=year,
        spage=spage,
        epage=epage,
    )


def citation_text(journal: str, volume: str, year: int | None, pages: str) -> str:
    """Render "journal volume (year), pages", leaving out the empty parts.

    ``pages`` is taken as text: a store's pagerange may be a single page
    or a non-numeric value such as "e123".
    """
    out = journal
    if volume:
        out = f"{out} {volume}" if out else volume
    if year is not None:
        out = f"{out} ({year})" if out else f"({year})"
    if pages:
        out = f"{out}, {pages}" if out else pages
    return out
