"""Harvesting records from an OAI-PMH endpoint, page by page.

Starts a local fixture endpoint that serves six records two per page, then
harvests it with resumption-token paging and prints what came back. The
same client talks to real repositories once pointed at their base URL.
"""

from pathlib import Path

from mathrepo.fixture_server import serve_fixtures
from mathrepo.oai_client import EndpointConfig, HttpTransport, list_records

OUT = Path(__file__).resolve().parent.parent / "build" / "demo_harvest"
FIXTURES = OUT / "fixtures"


def record_xml(n: int) -> str:
    return f"""<record>
<header>
<identifier>oai:demo.example.org:article/{n}</identifier>
<datestamp>2009-01-{n + 1:02d}</datestamp>
<setSpec>demo</setSpec>
</header>
<metadata>
<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/"
           xmlns:dc="http://purl.org/dc/elements/1.1/">
  <dc:title>Demonstration article number {n}</dc:title>
  <dc:creator>DOE, Jane</dc:creator>
  <dc:identifier>http://demo.example.org/articles/{n}</dc:identifier>
  <dc:identifier>Demo J. Math. {n + 1} (2009), 1-10</dc:identifier>
</oai_dc:dc>
</metadata>
</record>"""


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for n in range(6):
        (FIXTURES / f"{n:02d}.xml").write_text(record_xml(n), encoding="utf-8")
    print(f"wrote 6 fixture records to {FIXTURES}")

    # page_size=2 forces three pages chained by resumption tokens
    with serve_fixtures(FIXTURES, page_size=2) as server:
        print(f"fixture endpoint listening at {server.base_url}")
        endpoint = EndpointConfig(
            name="demo",
            base_url=server.base_url,
            metadata_prefix="oai_dc",
        )
        records = list_records(endpoint, HttpTransport())

    print(f"harvested {len(records)} records (paging is invisible to the caller):")
    for rec in records:
        print(f"  {rec.identifier}  datestamp={rec.datestamp}  sets={list(rec.set_specs)}")

    # the payload is the verbatim metadata subtree, ready for the dialect parsers
    print("\nfirst payload snippet:")
    print("  " + records[0].payload[:100] + "...")


if __name__ == "__main__":
    main()
