"""From dialect payloads to canonical records.

Shows the two metadata dialects side by side: oai_dc, where bibliographic
detail hides inside free-text dc:identifier strings, and junii2, where each
element is already structured. Both end up in the same canonical record
model and round-trip through the line-delimited store.
"""

from pathlib import Path

from mathrepo.parsers import parse_citation_string, parse_junii2, parse_oai_dc
from mathrepo.records import canonical_from_dc, canonical_from_junii2, load_records, store_records

OUT = Path(__file__).resolve().parent.parent / "build" / "demo_records"

DC_PAYLOAD = """
<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/"
           xmlns:dc="http://purl.org/dc/elements/1.1/">
  <dc:title>Minimal 2-regular digraphs with given girth</dc:title>
  <dc:creator>BEHZAD, Mehdi</dc:creator>
  <dc:subject>05C20</dc:subject>
  <dc:date>1973-01</dc:date>
  <dc:identifier>http://projecteuclid.org/euclid.jmsj/1240435759</dc:identifier>
  <dc:identifier>J. Math. Soc. Japan 25, no. 1 (1973), 1-6</dc:identifier>
  <dc:identifier>doi:10.2969/jmsj/02510001</dc:identifier>
</oai_dc:dc>
"""

JUNII2_PAYLOAD = """
<meta xmlns="http://ju.nii.ac.jp/junii2">
  <title>CONDITIONALLY TRIMMED SUMS FOR INDEPENDENT RANDOM VARIABLES</title>
  <creator>KASAHARA, Yuji</creator>
  <URI>http://hdl.handle.net/10083/843</URI>
  <jtitle>Natur. Sci. Rep. Ochanomizu Univ.</jtitle>
  <volume>46</volume><issue>2</issue><spage>9</spage><epage>12</epage>
  <dateofissued>1995-12-30</dateofissued>
</meta>
"""


def main():
    # the oai_dc pain point: structure must be pulled out of a citation string
    citation = parse_citation_string("J. Math. Soc. Japan 25, no. 1 (1973), 1-6")
    print("citation string parsed:")
    print(f"  journal = {citation.journal_title!r}")
    print(f"  volume={citation.volume!r} issue={citation.issue!r} year={citation.year}")
    print(f"  pages = {citation.spage}-{citation.epage}")

    dc = parse_oai_dc(DC_PAYLOAD)
    rec_dc = canonical_from_dc(dc, "euclid", "oai:CULeuclid:euclid.jmsj/1240435759")
    print("\ncanonical record from oai_dc:")
    print(f"  {rec_dc.title}")
    print(f"  publication={rec_dc.publication!r} volume={rec_dc.volume} pages={rec_dc.pagerange}")
    print(f"  official_url={rec_dc.official_url}")
    print(f"  subject codes kept as classifications: {rec_dc.msc_secondary}")

    junii2 = parse_junii2(JUNII2_PAYLOAD)
    rec_j2 = canonical_from_junii2(junii2, "ochanomizu", "oai:teapot.lib.ocha.ac.jp:10083/843")
    print("\ncanonical record from junii2 (no citation guessing needed):")
    print(f"  {rec_j2.title}")
    print(f"  publication={rec_j2.publication!r} volume={rec_j2.volume} pages={rec_j2.pagerange}")

    OUT.mkdir(parents=True, exist_ok=True)
    store = OUT / "records.jsonl"
    store_records([rec_dc, rec_j2], store)
    loaded = load_records(store)
    assert loaded == [rec_dc, rec_j2]
    print(f"\nstored and reloaded {len(loaded)} records from {store} (exact round-trip)")


if __name__ == "__main__":
    main()
