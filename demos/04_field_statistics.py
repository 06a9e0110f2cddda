"""Field-activity statistics over a synthetic corpus.

Builds a corpus whose differential-geometry articles increasingly cite
complex-analysis classifications, then shows the three analytics layers:
the share table (truncated percentages), the co-occurrence graph with
hub/authority scores, and the ten-year sliding-window ranking series
exported as CSV and SVG charts.
"""

from pathlib import Path

import numpy as np

from mathrepo.analytics import build_msc_graph, export_series, field_share_table, hits, rank
from mathrepo.analytics import sliding_window_series
from mathrepo.records import CanonicalRecord, make_record_id

OUT = Path(__file__).resolve().parent.parent / "build" / "demo_stats"


def article(n: int, year: int, primary: str, secondary: list[str]) -> CanonicalRecord:
    ident = f"oai:demo:stats/{n}"
    return CanonicalRecord(
        record_id=make_record_id("demo", ident),
        source="demo",
        oai_identifier=ident,
        title=f"Synthetic article {n}",
        official_url=f"http://demo.example.org/{n}",
        date=str(year),
        msc_primary=primary,
        msc_secondary=secondary,
    )


def build_corpus() -> list[CanonicalRecord]:
    rng = np.random.default_rng(53)
    fields = ["11", "14", "30", "32", "53", "57"]
    records = []
    n = 0
    for year in range(1990, 2010):
        for primary in fields:
            # base activity: every field cites number theory a little
            records.append(article(n := n + 1, year, f"{primary}A05", ["11B25"]))
        # growing trend: differential geometry citing several complex variables
        for _ in range((year - 1988) // 4):
            records.append(article(n := n + 1, year, "53C20", ["32Q15"]))
    return records


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    records = build_corpus()
    print(f"corpus: {len(records)} classified articles, 1990-2009")

    # share of world output per field (world totals supplied externally)
    totals = {"11": 3000, "14": 900, "30": 1200, "32": 800, "53": 700, "57": 600}
    print("\nshare table (percent truncated to two decimals):")
    for row in field_share_table(records, totals):
        print(f"  {row.percent:6.2f}  ({row.count}/{row.total})  {row.msc2}")

    graph = build_msc_graph([rec for rec in records if 2000 <= rec.year <= 2009])
    print(f"\nco-occurrence graph 2000-2009: nodes={graph.nodes}")
    print(f"  total edge weight {graph.total_weight()}")
    result = hits(graph)
    print(f"  converged in {result.iterations} iterations (residual {result.residual:.2e})")
    hub_ranks = rank(dict(zip(graph.nodes, result.hub)))
    auth_ranks = rank(dict(zip(graph.nodes, result.authority)))
    for node in graph.nodes:
        i = graph.index(node)
        print(
            f"  field {node}: hub={result.hub[i]:.4f} (rank {hub_ranks[node]})"
            f"  authority={result.authority[i]:.4f} (rank {auth_ranks[node]})"
        )

    series = sliding_window_series(records, 1990, 2000, window=10)
    paths = export_series(series, OUT, nodes=["32", "53", "11"])
    print(f"\nten-year window series 1990-2000 -> {paths['csv']}")
    print("charts: " + ", ".join(str(p) for p in paths["svg"].values()))
    first, last = series.entries[0], series.entries[-1]
    print(
        f"field 32 hub rank moved {first.hub_rank['32']} -> {last.hub_rank['32']} "
        "as the citing trend grew"
    )


if __name__ == "__main__":
    main()
