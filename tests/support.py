"""Shared builders, strategies, and oracles for the test suite."""

from __future__ import annotations

import json
import os
import threading
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from http.server import HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from mathrepo import records
from mathrepo.analytics import MscGraph
from mathrepo.parsers import Citation, citation_text
from mathrepo.records import CanonicalRecord, NameParts, RelatedUrl, make_record_id
from mathrepo.serialize import _EP_TEXT_RUNS, ATOM_NS, DC_NS, EPRINTS_NS, METS_NS, XLINK_NS, _subject_items
from mathrepo.serialize import AggregatedResource, Aggregation

FIXTURES = Path(__file__).parent / "fixtures"

EUCLID_DC = FIXTURES / "euclid_oai_dc.xml"
OCHANOMIZU_JUNII2 = FIXTURES / "ochanomizu_junii2.xml"
EPRINTS_ARTICLE = FIXTURES / "eprints_article.xml"


# ---------------------------------------------------------------------------
# Local HTTP servers

@contextmanager
def serve_handler(handler):
    """Serve ``handler`` (a BaseHTTPRequestHandler class) on a free local
    port; yields the server's base URL."""
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Synthetic OAI record XML

def dc_record_xml(
    ident: str,
    datestamp: str = "2009-01-01",
    title: str = "A synthetic article",
    url: str | None = None,
    citation: str | None = None,
    subject: str | None = None,
    set_spec: str = "synthetic",
) -> str:
    url = url or f"http://example.org/articles/{ident.rsplit('/', 1)[-1]}"
    extra = ""
    if citation:
        extra += f"<dc:identifier>{citation}</dc:identifier>"
    if subject:
        extra += f"<dc:subject>{subject}</dc:subject>"
    return (
        "<record><header>"
        f"<identifier>{ident}</identifier>"
        f"<datestamp>{datestamp}</datestamp>"
        f"<setSpec>{set_spec}</setSpec>"
        "</header><metadata>"
        '<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/" '
        'xmlns:dc="http://purl.org/dc/elements/1.1/">'
        f"<dc:title>{title}</dc:title>"
        "<dc:creator>DOE, Jane</dc:creator>"
        f"<dc:identifier>{url}</dc:identifier>"
        f"{extra}"
        "</oai_dc:dc></metadata></record>"
    )


def write_dc_fixture_dir(directory: Path, count: int = 6, duplicate: bool = False) -> list[str]:
    """Write ``count`` DC record fixture files; returns served identifiers.

    With ``duplicate`` the third file repeats the first file's identifier
    with a newer datestamp.
    """
    directory.mkdir(parents=True, exist_ok=True)
    identifiers = []
    for i in range(count):
        ident = f"oai:example.org:rec/{i:03d}"
        stamp = f"2009-01-{i + 1:02d}"
        if duplicate and i == 2:
            ident = identifiers[0]
            stamp = "2009-02-01"
        (directory / f"{i:03d}.xml").write_text(
            dc_record_xml(ident, datestamp=stamp, title=f"Synthetic article {i}"),
            encoding="utf-8",
        )
        identifiers.append(ident)
    return identifiers


# ---------------------------------------------------------------------------
# Canonical record construction

def make_record(
    source: str = "test",
    oai_identifier: str = "oai:example.org:1",
    title: str = "A title",
    official_url: str = "http://example.org/1",
    **kwargs,
) -> CanonicalRecord:
    return CanonicalRecord(
        record_id=make_record_id(source, oai_identifier),
        source=source,
        oai_identifier=oai_identifier,
        title=title,
        official_url=official_url,
        **kwargs,
    )


def classified_record(n: int, year: int, primary: str, secondary: list[str]) -> CanonicalRecord:
    return make_record(
        oai_identifier=f"oai:example.org:cls/{n}",
        official_url=f"http://example.org/cls/{n}",
        title=f"Classified article {n}",
        date=str(year),
        msc_primary=primary,
        msc_secondary=secondary,
    )


def force_fork(monkeypatch, cpus: int = 3, lines_per_process: int = 10) -> None:
    """Make ``records.map_store``, and so every stage that reads the store through it, split
    a small store into up to ``cpus`` chunks, one per process, on any host."""
    monkeypatch.setattr("mathrepo.records._LINES_PER_PROCESS", lines_per_process)
    monkeypatch.setattr("mathrepo.records._cpu_count", lambda: cpus)


def write_sidecar(store: Path, rows) -> None:
    """Write ``<store>.classifications`` holding ``rows``, any JSON value, under the key that
    ``records.load_classifications`` checks, so that a read of ``store`` gets as far as the rows."""
    text = json.dumps(rows).encode()
    key = records._DECODER_SHA256.copy()
    key.update(store.read_bytes())
    key.update(text)
    Path(f"{store}.classifications").write_bytes(key.hexdigest().encode() + b"\n" + text)


def sidecar_rows(store: Path):
    """The rows ``<store>.classifications`` holds, as JSON values."""
    return json.loads(Path(f"{store}.classifications").read_bytes().partition(b"\n")[2])


def no_child_left() -> None:
    """Assert that this process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def format_citation(c: Citation) -> str:
    """Canonical rendering "journal volume (year), spage-epage", which ``parse_citation_string``
    reads back."""
    pages = f"{c.spage}-{c.epage}" if c.spage is not None and c.epage is not None else ""
    return citation_text(c.journal_title, c.volume, c.year, pages)


# ---------------------------------------------------------------------------
# Reference serializers: the exchange formats as an ElementTree renders them, which
# the text-built writers of mathrepo.serialize must match byte for byte

ET.register_namespace("atom", ATOM_NS)
ET.register_namespace("mets", METS_NS)
ET.register_namespace("dc", DC_NS)
ET.register_namespace("xlink", XLINK_NS)


def _et_document(root: ET.Element) -> str:
    ET.indent(root, space="  ")
    return '<?xml version="1.0" encoding="utf-8" ?>\n' + ET.tostring(root, encoding="unicode")


def _ep(parent: ET.Element, tag: str, text: str | None = None) -> ET.Element:
    elem = ET.SubElement(parent, tag)
    elem.text = text
    return elem


def _ep_texts(ep: ET.Element, rec: CanonicalRecord, run) -> None:
    for tag, name in run:
        value = getattr(rec, name)
        if value:
            _ep(ep, tag, value)


def et_eprints_xml(rec: CanonicalRecord) -> str:
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
    return _et_document(root)


def et_ore_atom(agg) -> str:
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
        link.set("rel", "http://www.openarchives.org/ore/terms/aggregates")
    return _et_document(entry)


def _mets(parent: ET.Element, tag: str, attrib: dict | None = None) -> ET.Element:
    return ET.SubElement(parent, f"{{{METS_NS}}}{tag}", attrib or {})


def _dc(parent: ET.Element, tag: str, text: str) -> None:
    ET.SubElement(parent, f"{{{DC_NS}}}{tag}").text = text


def et_mets(rec: CanonicalRecord) -> str:
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
    return _et_document(mets)


# ---------------------------------------------------------------------------
# Hypothesis strategies

def _clean_text(min_size=1, max_size=40):
    return (
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
            min_size=min_size,
            max_size=max_size,
        )
        .map(lambda s: " ".join(s.split()))
        .filter(lambda s: len(s) >= min_size)
    )


_slug = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)

msc_codes = st.one_of(
    st.from_regex(r"[0-9]{2}", fullmatch=True),
    st.from_regex(r"[0-9]{2}[A-Z][0-9]{2}", fullmatch=True),
    st.from_regex(r"[0-9]{2}-xx", fullmatch=True),
)


@st.composite
def name_parts(draw):
    family = draw(_clean_text(1, 15))
    given = draw(st.one_of(st.just(""), _clean_text(1, 10)))
    return NameParts(family=family, given=given)


@st.composite
def canonical_records(draw):
    source = draw(_slug)
    ident = f"oai:{draw(_slug)}.example.org:{draw(_slug)}"
    date = draw(
        st.one_of(
            st.just(""),
            st.integers(1600, 2100).map(str),
            st.integers(1600, 2100).map(lambda y: f"{y}-06"),
            st.integers(1600, 2100).map(lambda y: f"{y}-06-15"),
        )
    )
    pagerange = draw(
        st.one_of(
            st.just(""),
            st.integers(1, 999).map(str),
            st.tuples(st.integers(1, 500), st.integers(1, 499)).map(
                lambda p: f"{p[0]}-{p[0] + p[1]}"
            ),
        )
    )
    mr = draw(st.one_of(st.none(), st.integers(1, 9_999_999)))
    related = draw(
        st.lists(
            st.builds(
                RelatedUrl,
                url=_slug.map(lambda s: f"http://example.org/rel/{s}"),
                type=st.sampled_from(["doi", "url", "MathSciNet", ""]),
            ),
            max_size=3,
        )
    )
    return make_record(
        source=source,
        oai_identifier=ident,
        title=draw(_clean_text(1, 60)),
        official_url=f"http://example.org/{draw(_slug)}",
        creators=draw(st.lists(name_parts(), max_size=3)),
        publication=draw(st.one_of(st.just(""), _clean_text(1, 40))),
        volume=draw(st.one_of(st.just(""), st.integers(1, 999).map(str))),
        issue=draw(st.one_of(st.just(""), st.integers(1, 99).map(str))),
        pagerange=pagerange,
        date=date,
        publisher=draw(st.one_of(st.just(""), _clean_text(1, 30))),
        full_text_url=draw(st.one_of(st.just(""), _slug.map(lambda s: f"http://example.org/pdf/{s}"))),
        msc_primary=draw(st.one_of(st.just(""), msc_codes)),
        msc_secondary=draw(st.lists(msc_codes, max_size=4)),
        mr_number=mr,
        related_urls=related,
        refereed=draw(st.booleans()),
        language=draw(st.sampled_from(["", "en", "ja", "fr"])),
    )


# Text that keeps what _clean_text strips, and what an XML writer must escape: tab, LF, CR,
# surrounding spaces, quotes, & < >, and characters beyond the BMP. Every character is one
# XML 1.0 can carry.
_wide_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(list(" \t\n\r\"'&<>")),
        st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\ufffe\uffff"),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=20,
)


@st.composite
def wide_records(draw):
    """Records whose every free-text field, URLs and names included, is ``_wide_text``."""
    def text():
        return draw(_wide_text)

    return make_record(
        source=text(),
        oai_identifier=text(),
        title=draw(_wide_text.filter(bool)),
        official_url=f"http://example.org/{text()}",
        creators=draw(st.lists(st.builds(NameParts, family=_wide_text, given=_wide_text), max_size=2)),
        publication=text(),
        volume=text(),
        issue=text(),
        pagerange=text(),
        date=draw(st.sampled_from(["", "1998", "1998-06", "1998-06-15"])),
        publisher=text(),
        full_text_url=text(),
        msc_primary=draw(st.one_of(st.just(""), msc_codes)),
        msc_secondary=draw(st.lists(msc_codes, max_size=2)),
        mr_number=draw(st.one_of(st.none(), st.integers(1, 9_999_999))),
        related_urls=draw(st.lists(st.builds(RelatedUrl, url=_wide_text, type=_wide_text), max_size=2)),
        refereed=draw(st.booleans()),
        language=text(),
    )


@st.composite
def wide_aggregations(draw):
    """Aggregations whose resource map URI, stamps, hrefs and titles hold ``_wide_text``."""
    titles = draw(st.lists(_wide_text, min_size=1, max_size=3))
    return Aggregation(
        resource_map_uri=f"http://example.org/ore/{draw(_wide_text)}",
        aggregated=[AggregatedResource(href=f"http://example.org/{n}/{draw(_wide_text)}", title=title)
                    for n, title in enumerate(titles)],
        created=draw(_wide_text),
        modified=draw(_wide_text),
    )


# ---------------------------------------------------------------------------
# Plain seeded record generator (for fixed-count acceptance runs)

_WORDS = (
    "minimal regular digraphs girth spectral synthesis algebra trimmed sums "
    "independent random variables vertex theorems space forms derived spaces "
    "schur multiplier semidirect product conditionally potential theory"
).split()


def random_record(rng: np.random.Generator, n: int) -> CanonicalRecord:
    def words(k):
        return " ".join(rng.choice(_WORDS) for _ in range(k))

    def maybe(value, p=0.5):
        return value if rng.random() < p else ""

    def msc():
        return f"{rng.integers(0, 100):02d}{chr(ord('A') + rng.integers(0, 26))}{rng.integers(0, 100):02d}"

    creators = [
        NameParts(family=words(1).upper(), given=maybe(words(1).capitalize(), 0.8))
        for _ in range(rng.integers(0, 3))
    ]
    spage = int(rng.integers(1, 400))
    pagerange = maybe(f"{spage}-{spage + int(rng.integers(0, 40))}", 0.7)
    related = [
        RelatedUrl(url=f"http://example.org/rel/{rng.integers(1, 10**6)}", type=t)
        for t in rng.choice(["doi", "url", "MathSciNet"], size=rng.integers(0, 3), replace=False)
    ]
    return make_record(
        source=f"repo{rng.integers(0, 20)}",
        oai_identifier=f"oai:example.org:acc/{n}",
        title=words(int(rng.integers(2, 8))),
        official_url=f"http://example.org/acc/{n}",
        creators=creators,
        publication=maybe(words(3).title(), 0.8),
        volume=maybe(str(rng.integers(1, 200)), 0.7),
        issue=maybe(str(rng.integers(1, 12)), 0.4),
        pagerange=pagerange,
        date=maybe(f"{rng.integers(1900, 2020)}-{rng.integers(1, 13):02d}", 0.8),
        publisher=maybe(words(2).title(), 0.5),
        full_text_url=maybe(f"http://example.org/pdf/{n}.pdf", 0.5),
        msc_primary=maybe(msc(), 0.6),
        msc_secondary=[msc() for _ in range(rng.integers(0, 4))],
        mr_number=int(rng.integers(1, 10**7)) if rng.random() < 0.4 else None,
        related_urls=related,
        refereed=bool(rng.random() < 0.9),
        language=str(rng.choice(["", "en", "ja"])),
    )


# ---------------------------------------------------------------------------
# Graph generation, a plain-loop reference graph and dense eigensolver oracle

def loop_msc_graph(records) -> MscGraph:
    """Reference co-occurrence graph, one dict update per code pair and no
    numpy counting: nodes are the sorted fields on some pair."""
    counts: dict[tuple[str, str], int] = {}
    for rec in records:
        if rec.msc_primary and rec.msc_secondary:
            for code in rec.msc_secondary:
                pair = (rec.msc_primary[:2], code[:2])
                counts[pair] = counts.get(pair, 0) + 1
    nodes = sorted({node for pair in counts for node in pair})
    weights = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for (src, dst), count in counts.items():
        weights[nodes.index(src), nodes.index(dst)] = count
    return MscGraph(nodes=nodes, weights=weights)


def random_graph(rng: np.random.Generator, max_nodes: int = 10, max_weight: int = 9) -> MscGraph:
    """Random directed integer-weight graph with at least one edge."""
    n = int(rng.integers(2, max_nodes + 1))
    while True:
        density = rng.uniform(0.15, 0.7)
        weights = rng.integers(0, max_weight + 1, size=(n, n))
        weights[rng.random((n, n)) > density] = 0
        if weights.any():
            break
    nodes = [f"{i:02d}" for i in range(n)]
    return MscGraph(nodes=nodes, weights=weights.astype(np.int64))


def symmetric_graph(rng: np.random.Generator, max_nodes: int = 10, max_weight: int = 4) -> MscGraph:
    graph = random_graph(rng, max_nodes=max_nodes, max_weight=max_weight)
    sym = graph.weights + graph.weights.T
    return MscGraph(nodes=graph.nodes, weights=sym)


def dense_dominant_eigenvector(sym: np.ndarray, rel_gap: float = 1e-5):
    """Principal eigenvector of a symmetric PSD matrix via full
    eigendecomposition; flags (near-)degenerate leading eigenvalues.

    Independent of the power-iteration path under test.
    """
    values, vectors = np.linalg.eigh(sym)
    lead = values[-1]
    vector = np.abs(vectors[:, -1])
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector = vector / norm
    degenerate = lead <= 0 or (
        values.size >= 2 and (lead - values[-2]) <= rel_gap * max(lead, 1e-300)
    )
    return vector, degenerate
