"""Share-table arithmetic, graph construction, hub/authority scores, windows."""

import csv
import dataclasses
import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mathrepo.analytics import (
    AnalyticsError,
    MscGraph,
    build_msc_graph,
    export_series,
    field_share_table,
    hits,
    load_totals,
    rank,
    share_rows_from_counts,
    sliding_window_series,
    truncated_percent,
)

from support import (
    classified_record,
    dense_dominant_eigenvector,
    loop_msc_graph,
    random_graph,
    random_record,
    symmetric_graph,
)

# (count, total) pairs with their published share values; the 1852/18506 and
# 525/7041 rows pin truncation over rounding.
SHARE_TABLE = [
    ("57", 1923, 18103, 10.62),
    ("32", 1852, 18506, 10.00),
    ("31", 545, 5748, 9.48),
    ("55", 1048, 11077, 9.46),
    ("14", 1902, 20655, 9.20),
    ("53", 3307, 40538, 8.15),
    ("13", 875, 11392, 7.68),
    ("12", 525, 7041, 7.45),
    ("11", 2301, 34968, 6.58),
    ("22", 734, 11742, 6.25),
    ("30", 1922, 32891, 5.84),
    ("16", 1305, 23970, 5.44),
]


class TestShareTable:
    @pytest.mark.parametrize("msc2,count,total,expected", SHARE_TABLE)
    def test_published_rows_reproduce_exactly(self, msc2, count, total, expected):
        assert truncated_percent(count, total) == expected

    def test_truncation_not_rounding(self):
        assert truncated_percent(1852, 18506) == 10.00  # rounding would give 10.01
        assert truncated_percent(525, 7041) == 7.45  # rounding would give 7.46
        assert truncated_percent(3307, 40538) == 8.15

    def test_rows_sorted_descending(self):
        counts = {m: c for m, c, _, _ in SHARE_TABLE}
        totals = {m: t for m, _, t, _ in SHARE_TABLE}
        rows = share_rows_from_counts(counts, totals)
        assert [r.percent for r in rows] == [p for _, _, _, p in SHARE_TABLE]
        assert [r.msc2 for r in rows] == [m for m, _, _, _ in SHARE_TABLE]

    def test_zero_count_rows_omitted(self):
        rows = share_rows_from_counts({"57": 0, "32": 5}, {"57": 10, "32": 10})
        assert [r.msc2 for r in rows] == ["32"]

    def test_missing_total_is_an_error(self):
        with pytest.raises(AnalyticsError, match="57"):
            share_rows_from_counts({"57": 1}, {})

    def test_counts_from_records(self):
        records = [
            classified_record(1, 1999, "57R10", ["32A10"]),
            classified_record(2, 1999, "57A05", ["14B05"]),
            classified_record(3, 1999, "32A10", ["57R10"]),
        ]
        rows = field_share_table(records, {"57": 100, "32": 100})
        by_field = {row.msc2: row for row in rows}
        assert by_field["57"].count == 2
        assert by_field["32"].count == 1

    def test_load_totals(self, tmp_path):
        path = tmp_path / "totals.tsv"
        path.write_text("# field\tcount\n57\t18103\n32\t18506\n", encoding="utf-8")
        assert load_totals(path) == {"57": 18103, "32": 18506}


class TestGraphConstruction:
    def test_self_loop_single_article(self):
        graph = build_msc_graph([classified_record(1, 1998, "53A35", ["53A04"])])
        assert graph.nodes == ["53"]
        assert graph.weight("53", "53") == 1

    def test_two_article_fragment(self):
        records = [
            classified_record(1, 1999, "57R10", ["32A10"]),
            classified_record(2, 1999, "57A05", ["32B15", "14B05"]),
        ]
        graph = build_msc_graph(records)
        assert graph.nodes == ["14", "32", "57"]
        assert graph.weight("57", "32") == 2
        assert graph.weight("57", "14") == 1
        assert graph.total_weight() == 3

    def test_empty_corpus(self):
        graph = build_msc_graph([])
        assert graph.nodes == [] and graph.size == 0

    def test_records_without_primary_or_secondary_contribute_nothing(self):
        records = [
            classified_record(1, 1999, "", ["32A10"]),
            classified_record(2, 1999, "57R10", []),
        ]
        assert build_msc_graph(records).size == 0

    def test_weight_conservation(self):
        rng = np.random.default_rng(7)
        records = []
        expected = 0
        for n in range(60):
            k = int(rng.integers(0, 4))
            secondaries = [f"{rng.integers(10, 20):02d}A{rng.integers(10, 99):02d}" for _ in range(k)]
            primary = f"{rng.integers(10, 20):02d}B{rng.integers(10, 99):02d}"
            records.append(classified_record(n, 1999, primary, secondaries))
            expected += k
        assert build_msc_graph(records).total_weight() == expected

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(5)
        records = [random_record(rng, n) for n in range(300)]
        for size in (0, 1, 5, 40, 300):
            graph, reference = build_msc_graph(records[:size]), loop_msc_graph(records[:size])
            assert graph.nodes == reference.nodes
            assert np.array_equal(graph.weights, reference.weights)


class TestHits:
    def test_single_edge_follows_source_authority_convention(self):
        graph = MscGraph(nodes=["10", "20"], weights=np.array([[0, 1], [0, 0]]))
        result = hits(graph)
        # hub mass lands on the edge target, authority on the source
        assert result.hub == pytest.approx([0.0, 1.0], abs=1e-12)
        assert result.authority == pytest.approx([1.0, 0.0], abs=1e-12)
        assert result.converged

    def test_target_authority_convention_swaps_vectors(self):
        graph = MscGraph(nodes=["10", "20"], weights=np.array([[0, 1], [0, 0]]))
        default = hits(graph)
        swapped = hits(graph, convention="target_authority")
        assert np.allclose(default.hub, swapped.authority)
        assert np.allclose(default.authority, swapped.hub)

    def test_symmetric_weights_give_equal_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            graph = symmetric_graph(rng)
            result = hits(graph)
            assert np.max(np.abs(result.hub - result.authority)) <= 1e-10

    def test_empty_graph(self):
        result = hits(MscGraph(nodes=[], weights=np.zeros((0, 0), dtype=np.int64)))
        assert result.hub.size == 0 and result.authority.size == 0

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(50):
            graph = random_graph(rng, max_nodes=8)
            m = graph.weights.astype(float)
            oracle_hub, hub_degenerate = dense_dominant_eigenvector(m.T @ m)
            oracle_auth, auth_degenerate = dense_dominant_eigenvector(m @ m.T)
            if hub_degenerate or auth_degenerate:
                continue
            result = hits(graph, tol=1e-13, max_iter=100000)
            assert np.max(np.abs(result.hub - oracle_hub)) < 1e-8
            assert np.max(np.abs(result.authority - oracle_auth)) < 1e-8
            compared += 1
        assert compared >= 30

    def test_nonconvergence_is_flagged(self):
        graph = MscGraph(
            nodes=["10", "20", "30"],
            weights=np.array([[0, 2, 0], [0, 0, 3], [4, 0, 0]]),
        )
        result = hits(graph, tol=1e-14, max_iter=1)
        assert not result.converged

    def test_degenerate_spectrum_is_flagged(self):
        # two disconnected identical edges: leading eigenvalue has multiplicity 2
        graph = MscGraph(
            nodes=["10", "20", "30", "40"],
            weights=np.array(
                [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
            ),
        )
        assert hits(graph).degenerate

    def test_flags_are_json_serializable_bools(self):
        # a three-cycle: M'M is the identity, so the spectrum is degenerate
        graph = MscGraph(
            nodes=["10", "20", "30"],
            weights=np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        )
        result = hits(graph)
        assert type(result.converged) is bool and type(result.degenerate) is bool
        assert result.degenerate
        flags = {"converged": result.converged, "degenerate": result.degenerate}
        assert json.loads(json.dumps(flags)) == flags

    def test_scale_invariance_excluded_middle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            graph = random_graph(rng)
            scaled = MscGraph(nodes=graph.nodes, weights=graph.weights * 4)
            a, b = hits(graph), hits(scaled)
            assert np.max(np.abs(a.hub - b.hub)) <= 1e-10
            assert np.max(np.abs(a.authority - b.authority)) <= 1e-10


class TestRank:
    def test_ties_broken_by_code(self):
        assert rank({"11": 0.9, "35": 0.9, "53": 0.1}) == {"11": 1, "35": 2, "53": 3}

    def test_all_equal_scores_rank_by_code(self):
        assert rank({"30": 0.5, "10": 0.5, "20": 0.5}) == {"10": 1, "20": 2, "30": 3}

    def test_orders_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            graph = random_graph(rng, max_nodes=8)
            m = graph.weights.astype(float)
            oracle_hub, degenerate = dense_dominant_eigenvector(m.T @ m)
            if degenerate:
                continue
            result = hits(graph, tol=1e-13, max_iter=100000)
            power_rank = rank(dict(zip(graph.nodes, result.hub)))
            oracle_rank = rank(dict(zip(graph.nodes, oracle_hub)))
            for i, a in enumerate(graph.nodes):
                for b in graph.nodes[i + 1 :]:
                    gap = abs(oracle_hub[graph.nodes.index(a)] - oracle_hub[graph.nodes.index(b)])
                    if gap > 1e-8:
                        assert (power_rank[a] < power_rank[b]) == (oracle_rank[a] < oracle_rank[b])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(AnalyticsError):
            rank({"10": float("nan")})


class TestSlidingWindows:
    def corpus(self):
        # each year contributes a distinct secondary field, so a window's
        # node set identifies exactly which publication years it included
        years = [1989, 1990, 1995, 1999, 2000, 2009]
        return {
            year: classified_record(year, year, "50A05", [f"{i + 10:02d}"])
            for i, year in enumerate(years)
        }

    def test_window_membership_exact(self):
        by_year = self.corpus()
        series = sliding_window_series(by_year.values(), 1990, 1991, window=10)
        entry_1990 = series.entries[0]
        included = {year for year in by_year if 1990 <= year <= 1999}
        expected_nodes = sorted(
            {"50"} | {by_year[y].msc_secondary[0][:2] for y in included}
        )
        assert entry_1990.nodes == expected_nodes
        entry_1991 = series.entries[1]
        included = {year for year in by_year if 1991 <= year <= 2000}
        expected_nodes = sorted(
            {"50"} | {by_year[y].msc_secondary[0][:2] for y in included}
        )
        assert entry_1991.nodes == expected_nodes

    def test_same_window_content_gives_identical_scores(self):
        records = [classified_record(1, 1995, "53A35", ["32A10"])]
        series = sliding_window_series(records, 1990, 1992, window=10)
        assert len(series.entries) == 3
        first = series.entries[0]
        for entry in series.entries[1:]:
            assert entry.nodes == first.nodes
            assert np.allclose(entry.hits.hub, first.hits.hub)
            assert entry.hub_rank == first.hub_rank
        # a window ending before 1995 excludes the record
        early = sliding_window_series(records, 1985, 1985, window=10)
        assert early.entries[0].nodes == []

    def test_year_beyond_corpus_gives_empty_window(self):
        records = [classified_record(1, 1995, "53A35", ["32A10"])]
        series = sliding_window_series(records, 2010, 2010, window=10)
        entry = series.entries[0]
        assert entry.nodes == []
        assert entry.hits.hub.size == 0
        assert entry.hub_rank == {} and entry.auth_rank == {}

    def test_growing_field_authority_rank_never_worsens(self):
        records = []
        n = 0
        for year in range(2000, 2006):
            for _ in range(year - 1999):  # "40" self-citations accumulate
                records.append(classified_record(n := n + 1, year, "40A05", ["40B05"]))
            records.append(classified_record(n := n + 1, year, "10A05", ["20B05"]))
            records.append(classified_record(n := n + 1, year, "20A05", ["10B05"]))
        series = sliding_window_series(records, 2000, 2003, window=3)
        ranks = [entry.auth_rank["40"] for entry in series.entries]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] == 1

    def test_windows_match_year_range_oracle(self):
        rng = np.random.default_rng(31)
        records = []
        for n in range(400):
            year = int(rng.integers(1980, 2016))
            primary = f"{rng.integers(10, 16)}A{rng.integers(10, 99)}"
            secondaries = [f"{rng.integers(10, 16)}B{rng.integers(10, 99)}"
                           for _ in range(int(rng.integers(0, 4)))]
            rec = classified_record(n, year, primary, secondaries)
            kind = n % 7
            if kind == 0:
                rec = dataclasses.replace(rec, date="")  # undated
            elif kind == 1:
                rec = dataclasses.replace(rec, msc_primary="")  # unclassified
            records.append(rec)
        records = [records[i] for i in rng.permutation(len(records))]
        for window in (1, 3, 10):
            series = sliding_window_series(records, 1985, 2010, window=window)
            assert [e.year for e in series.entries] == list(range(1985, 2011))
            for entry in series.entries:
                lo, hi = entry.year, entry.year + window - 1
                oracle = [r for r in records if r.year is not None and lo <= r.year <= hi]
                graph = build_msc_graph(oracle)
                expected = hits(graph)
                assert entry.nodes == graph.nodes
                assert np.array_equal(entry.hits.hub, expected.hub)
                assert np.array_equal(entry.hits.authority, expected.authority)

    def test_huge_window_equals_whole_corpus_window(self):
        records = [
            classified_record(n, 1990 + n % 20, f"{10 + n % 5}A05", [f"{11 + n % 3}B05"])
            for n in range(100)
        ]
        started = time.perf_counter()
        huge = sliding_window_series(records, 1985, 1989, window=10**9)
        elapsed = time.perf_counter() - started
        whole = sliding_window_series(records, 1985, 1989, window=25)
        assert elapsed < 1.0
        for a, b in zip(huge.entries, whole.entries, strict=True):
            assert a.nodes == b.nodes and a.nodes
            assert np.array_equal(a.hits.hub, b.hits.hub)
            assert np.array_equal(a.hits.authority, b.hits.authority)

    def assert_matches_oracle(self, records, start_year, end_year, window):
        series = sliding_window_series(records, start_year, end_year, window=window)
        assert [e.year for e in series.entries] == list(range(start_year, end_year + 1))
        for entry in series.entries:
            hi = entry.year + window - 1
            oracle = build_msc_graph(r for r in records if r.year is not None and entry.year <= r.year <= hi)
            expected = hits(oracle)
            assert entry.nodes == oracle.nodes
            assert np.array_equal(entry.hits.hub, expected.hub)
            assert np.array_equal(entry.hits.authority, expected.authority)
        return series

    def gapped_corpus(self):
        years = [1990, 1991, 1995, 2003, 2004]  # gaps of 3 and 7 years
        return [
            classified_record(n, year, f"{10 + n % 4}A05", [f"{10 + (n * 3 + k) % 5}B05" for k in range(n % 3 + 1)])
            for n, year in enumerate(y for y in years for _ in range(3))
        ]

    @pytest.mark.parametrize("window", [1, 2, 4, 10])
    def test_years_with_gaps(self, window):
        series = self.assert_matches_oracle(self.gapped_corpus(), 1990, 2004, window)
        empty = {e.year for e in series.entries if not e.nodes}
        if window == 1:
            assert empty == {1992, 1993, 1994, *range(1996, 2003)}

    def test_range_beyond_dated_years(self):
        series = self.assert_matches_oracle(self.gapped_corpus(), 1975, 2015, 10)
        by_year = {e.year: e for e in series.entries}
        assert by_year[1975].nodes == [] and by_year[1980].nodes == []
        assert by_year[1981].nodes  # the first window reaching 1990
        assert by_year[2004].nodes and by_year[2005].nodes == [] and by_year[2015].nodes == []

    def test_primary_without_secondaries_gives_no_nodes(self):
        records = [classified_record(1, 2000, "53A35", []), classified_record(2, 2005, "53A35", ["32A10"])]
        series = sliding_window_series(records, 2000, 2001, window=2)
        for entry in series.entries:
            assert entry.nodes == []
            assert entry.hits.hub.size == 0 and entry.hits.authority.size == 0
            assert entry.hub_rank == {} and entry.auth_rank == {}

    def test_invalid_secondary_set_after_construction_raises(self):
        records = [classified_record(1, 2000, "53A35", ["32A10"]), classified_record(2, 2001, "53A35", ["32A10"])]
        records[1].msc_secondary = ["32A10", "bogus"]  # bypasses the constructor's check
        with pytest.raises(ValueError, match="bogus"):
            sliding_window_series(records, 1995, 2000, window=10)

    def test_invalid_year_order_rejected(self):
        with pytest.raises(AnalyticsError):
            sliding_window_series([], 2000, 1999)


class TestExportSeries:
    def build_series(self):
        records = [
            classified_record(1, 2000, "10A05", ["20B05"]),
            classified_record(2, 2001, "20A05", ["10B05"]),
        ]
        return sliding_window_series(records, 2000, 2002, window=1)

    def test_csv_cardinality(self, tmp_path):
        series = self.build_series()
        paths = export_series(series, tmp_path)
        with open(paths["csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["year", "node", "hub", "authority", "hub_rank", "auth_rank"]
        assert len(rows) - 1 == 3 * 2  # three years x two nodes

    def test_empty_window_rows_have_empty_cells(self, tmp_path):
        series = self.build_series()
        paths = export_series(series, tmp_path)
        with open(paths["csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        year_2002 = [row for row in rows[1:] if row[0] == "2002"]
        assert len(year_2002) == 2
        assert all(row[2] == "" and row[5] == "" for row in year_2002)

    def test_csv_round_trips_exactly(self, tmp_path):
        series = self.build_series()
        paths = export_series(series, tmp_path)
        with open(paths["csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        by_key = {(int(r[0]), r[1]): r for r in rows if r[2] != ""}
        for entry in series.entries:
            for i, node in enumerate(entry.nodes):
                row = by_key[(entry.year, node)]
                assert float(row[2]) == float(entry.hits.hub[i])
                assert float(row[3]) == float(entry.hits.authority[i])
                assert int(row[4]) == entry.hub_rank[node]
                assert int(row[5]) == entry.auth_rank[node]

    def test_svg_charts_written_and_well_formed(self, tmp_path):
        series = self.build_series()
        paths = export_series(series, tmp_path)
        assert set(paths["svg"]) == {"10", "20"}
        for path in paths["svg"].values():
            root = ET.fromstring(path.read_text(encoding="utf-8"))
            assert root.tag.endswith("svg")
            polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
            assert polylines
            labels = {el.text for el in root.iter() if el.tag.endswith("text")}
            assert {"H-score", "A-score", "H-score rank", "A-score rank"} <= labels

    def test_node_subset(self, tmp_path):
        series = self.build_series()
        paths = export_series(series, tmp_path, nodes=["10"])
        assert set(paths["svg"]) == {"10"}

    def test_empty_series_rejected(self, tmp_path):
        from mathrepo.analytics import WindowSeries

        with pytest.raises(AnalyticsError, match="empty"):
            export_series(WindowSeries(2000, 2001, 10, []), tmp_path)
