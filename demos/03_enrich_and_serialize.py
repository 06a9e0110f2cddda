"""Enriching records with review ids and emitting exchange formats.

A one-row lookup table attaches the review number, primary/secondary
classifications, and the review URL to a harvested record; the enriched
record is then serialized as EPrints XML, as an ORE Atom aggregation, and
as a METS package ready for deposit.
"""

from pathlib import Path

from mathrepo.enrich import enrich, load_mr_table
from mathrepo.records import CanonicalRecord, make_record_id
from mathrepo.serialize import AggregatedResource, Aggregation, to_eprints_xml, to_mets, to_ore_atom

OUT = Path(__file__).resolve().parent.parent / "build" / "demo_serialize"

JOURNAL = "Nat. Sci. J. Fac. Educ. Hum. Sci. Yokohama National University Sec. I"


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    record = CanonicalRecord(
        record_id=make_record_id("yokohama", "oai:demo:10131/1069"),
        source="yokohama",
        oai_identifier="oai:demo:10131/1069",
        title="The four-or-more Vertex Theorems in 2-dimensional Space Forms",
        official_url="http://hdl.handle.net/10131/1069",
        publication=JOURNAL,
        volume="1",
        pagerange="43-46",
        date="1998",
    )

    # the table keys on normalized journal + volume + year + start page,
    # bridging spelling differences between repositories and the reviews DB
    table_path = OUT / "mr_table.tsv"
    table_path.write_text(
        f"{JOURNAL}\t1\t1998\t43\t1710269\t53A35\t53A04\n", encoding="utf-8"
    )
    table = load_mr_table(table_path)

    (enriched,), report = enrich([record], table)
    print(f"enrichment: {report.summary()}")
    print(f"  primary={enriched.msc_primary} secondary={enriched.msc_secondary}")
    print(f"  review id={enriched.mr_number}")
    print(f"  review URL={enriched.related_urls[-1].url}")

    eprints_path = OUT / f"{enriched.record_id}.eprints.xml"
    eprints_path.write_text(to_eprints_xml(enriched), encoding="utf-8")
    print(f"\nEPrints XML -> {eprints_path}")

    agg = Aggregation(
        resource_map_uri="http://demo.example.org/ore/vertex-theorems",
        aggregated=(
            AggregatedResource(href=enriched.official_url, title=enriched.title),
            AggregatedResource(
                href=f"http://demo.example.org/{enriched.record_id}/",
                title=f"{enriched.title} (portal entry)",
            ),
        ),
        created="1998-01-01T00:00:00Z",
        modified="1998-01-01T00:00:00Z",
    )
    ore_path = OUT / "vertex-theorems.ore.atom.xml"
    ore_path.write_text(to_ore_atom(agg), encoding="utf-8")
    print(f"ORE Atom entry -> {ore_path}")

    mets_path = OUT / f"{enriched.record_id}.mets.xml"
    mets_path.write_text(to_mets(enriched), encoding="utf-8")
    print(f"METS package   -> {mets_path}")
    print("\nEPrints document head:")
    for line in to_eprints_xml(enriched).splitlines()[:6]:
        print("  " + line)


if __name__ == "__main__":
    main()
