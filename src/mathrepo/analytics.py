"""Field-activity statistics: share table, classification co-occurrence
graphs, hub/authority scoring, and sliding-window ranking series."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MathRepoError
from .msc import msc_top_level
from .records import Classification, read_table

# numpy is imported inside the functions that build graphs and score them, so
# every CLI stage but `hits`, and `serve-fixtures`, starts without it
if TYPE_CHECKING:
    import numpy as np

CONVENTIONS = ("source_authority", "target_authority")


class AnalyticsError(MathRepoError):
    """Statistics input incomplete or inconsistent."""


# ---------------------------------------------------------------------------
# Field share table

@dataclass(frozen=True)
class FieldShareRow:
    msc2: str
    count: int
    total: int
    percent: float


def truncated_percent(count: int, total: int) -> float:
    """100*count/total floored to two decimals, in integer arithmetic.

    Truncation (not rounding) is the pinned rule: 1852/18506 -> 10.00.
    """
    if total <= 0:
        raise AnalyticsError(f"world total must be positive, got {total}")
    if count < 0 or count > total:
        raise AnalyticsError(f"count {count} out of range for total {total}")
    return (10000 * count // total) / 100.0


def share_rows_from_counts(
    counts: Mapping[str, int], totals: Mapping[str, int]
) -> list[FieldShareRow]:
    """Build share rows from per-field article counts and world totals,
    sorted by percent descending (ties by field code)."""
    rows = []
    for msc2, count in counts.items():
        if count <= 0:
            continue
        if msc2 not in totals:
            raise AnalyticsError(f"no world total supplied for field {msc2!r}")
        total = totals[msc2]
        rows.append(FieldShareRow(msc2, count, total, truncated_percent(count, total)))
    rows.sort(key=lambda row: (-row.percent, row.msc2))
    return rows


def field_share_table(
    records: Iterable[Classification], totals: Mapping[str, int]
) -> list[FieldShareRow]:
    """Article share per top-level field, counting primary classifications."""
    counts: dict[str, int] = {}
    for rec in records:
        if rec.msc_primary:
            top = msc_top_level(rec.msc_primary)
            counts[top] = counts.get(top, 0) + 1
    return share_rows_from_counts(counts, totals)


def load_totals(path) -> dict[str, int]:
    """Load the world-totals file: tab-separated msc2, world_count. A field given
    twice is an error naming both lines."""
    totals: dict[str, int] = {}
    first_line: dict[str, int] = {}
    for lineno, (msc2, count) in read_table(path, 2, AnalyticsError):
        if msc2 in totals:
            raise AnalyticsError(
                f"{path}: duplicate field {msc2!r} on lines {first_line[msc2]} and {lineno}"
            )
        try:
            totals[msc2] = int(count)
        except ValueError as exc:
            raise AnalyticsError(f"{path}:{lineno}: bad count {count!r}") from exc
        first_line[msc2] = lineno
    return totals


# ---------------------------------------------------------------------------
# Classification co-occurrence graph

@dataclass
class MscGraph:
    """Weighted directed graph over two-digit fields.

    ``weights[i, j]`` is the accumulated weight of the edge from
    ``nodes[i]`` (primary field) to ``nodes[j]`` (secondary field).
    """

    nodes: list[str]
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        return self.nodes.index(node)

    def weight(self, src: str, dst: str) -> int:
        return int(self.weights[self.index(src), self.index(dst)])

    def total_weight(self) -> int:
        return int(self.weights.sum())


def _window_graphs(
    records: Iterable[Classification], year_of: Callable, first: int, last: int, window: int
) -> Iterator[MscGraph]:
    """Yield, for Y = first..last, the graph of the records whose ``year_of`` is in [Y, Y+window-1].
    Each record's pairs are read once into a running N x N count matrix that moves a year per step."""
    import numpy as np

    pairs_by_year: dict[int, list[tuple[str, str]]] = {}
    for rec in records:
        if rec.msc_primary and rec.msc_secondary and (y := year_of(rec)) is not None and first <= y < last + window:
            src = msc_top_level(rec.msc_primary)
            pairs_by_year.setdefault(y, []).extend((src, msc_top_level(code)) for code in rec.msc_secondary)
    nodes = sorted({node for pairs in pairs_by_year.values() for pair in pairs for node in pair})
    index, n = {node: i for i, node in enumerate(nodes)}, len(nodes)
    positions = {year: np.array([index[src] * n + index[dst] for src, dst in pairs], dtype=np.int64)
                 for year, pairs in pairs_by_year.items()}
    counts = np.zeros(n * n, dtype=np.int64)
    for year, at in positions.items():  # the window before the first: years first-1..first+window-2
        if first - 1 <= year < first + window - 1:
            np.add.at(counts, at, 1)
    for year in range(first, last + 1):
        np.subtract.at(counts, positions.get(year - 1, []), 1)
        np.add.at(counts, positions.get(year + window - 1, []), 1)
        weights = counts.reshape(n, n)  # its nodes are the fields on some edge
        keep = np.flatnonzero(weights.any(axis=0) | weights.any(axis=1))
        yield MscGraph(nodes=[nodes[i] for i in keep], weights=weights[np.ix_(keep, keep)])


def build_msc_graph(records: Iterable[Classification]) -> MscGraph:
    """Accumulate one unit of weight per (primary, secondary) code pair.

    An article with primary p and secondaries s1..sk adds weight 1 to each
    edge top(p) -> top(si), self-loops included; articles lacking a primary
    or having no secondaries contribute nothing.
    """
    return next(_window_graphs(records, lambda rec: 0, 0, 0, 1))


# ---------------------------------------------------------------------------
# Hub / authority scores

@dataclass
class HitsResult:
    """Hub and authority vectors aligned with the graph's node list."""

    hub: np.ndarray
    authority: np.ndarray
    iterations: int
    residual: float
    converged: bool = True
    degenerate: bool = False


def _dominant_gap_degenerate(m: np.ndarray, rel_gap: float = 1e-9) -> bool:
    import numpy as np

    values = np.linalg.eigvalsh(m.T @ m)
    if values.size < 2:
        return False
    lead, second = values[-1], values[-2]
    return (lead - second) <= rel_gap * lead


def hits(
    graph: MscGraph,
    tol: float = 1e-10,
    max_iter: int = 10000,
    convention: str = "source_authority",
) -> HitsResult:
    """Alternating power iteration for hub/authority scores.

    One vector tracks the dominant eigenvector of M'M, the other of MM',
    both started uniform positive and normalized each sweep; convergence is
    successive-iterate Euclidean distance < tol on both vectors.

    The default ``source_authority`` convention assigns hub = dominant
    eigenvector of M'M and authority = dominant eigenvector of MM', so a
    single edge A->B yields hub mass on B and authority mass on A. This is
    the reverse of the usual link-analysis assignment, which
    ``target_authority`` selects instead.
    """
    import numpy as np

    if convention not in CONVENTIONS:
        raise AnalyticsError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if not 0 < tol < math.inf:  # NaN never converges, and inf "converges" after one sweep
        raise AnalyticsError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise AnalyticsError(f"max_iter must be >= 1, got {max_iter}")
    n = graph.size
    m = graph.weights.astype(np.float64)
    if not m.any():  # no edge, and no node either when n == 0
        return HitsResult(np.zeros(n), np.zeros(n), 0, 0.0)
    x = np.full(n, 1.0 / np.sqrt(n))  # tracks dominant eigenvector of M'M
    y = np.full(n, 1.0 / np.sqrt(n))  # tracks dominant eigenvector of MM'
    converged = False
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_new = m.T @ (m @ x)
        x_new /= np.linalg.norm(x_new)
        y_new = m @ (m.T @ y)
        y_new /= np.linalg.norm(y_new)
        residual = max(
            float(np.linalg.norm(x_new - x)), float(np.linalg.norm(y_new - y))
        )
        x, y = x_new, y_new
        if residual < tol:
            converged = True
            break
    hub, authority = (x, y) if convention == "source_authority" else (y, x)
    return HitsResult(
        hub=hub,
        authority=authority,
        iterations=iterations,
        residual=residual,
        converged=converged,
        degenerate=bool(_dominant_gap_degenerate(m)),
    )


def rank(scores: Mapping[str, float]) -> dict[str, int]:
    """Dense 1-based ranking, largest score first; ties broken by ascending
    node code (ties consume consecutive ranks)."""
    for node, value in scores.items():
        if not math.isfinite(value):
            raise AnalyticsError(f"non-finite score for node {node!r}")
    ordered = sorted(scores, key=lambda node: (-scores[node], node))
    return {node: position for position, node in enumerate(ordered, start=1)}


# ---------------------------------------------------------------------------
# Sliding-window series

@dataclass
class WindowEntry:
    year: int
    nodes: list[str]
    hits: HitsResult
    hub_rank: dict[str, int]
    auth_rank: dict[str, int]


@dataclass
class WindowSeries:
    start_year: int
    end_year: int
    window: int
    entries: list[WindowEntry] = field(default_factory=list)


def sliding_window_series(
    records: Iterable[Classification],
    start_year: int,
    end_year: int,
    window: int = 10,
    tol: float = 1e-10,
    max_iter: int = 10000,
    convention: str = "source_authority",
) -> WindowSeries:
    """Score and rank each year's window.

    The entry for year Y is computed from the graph over articles published
    in [Y, Y+window-1]; undated articles are in no window, and nodes absent
    from a window get no rank that year.
    """
    if start_year > end_year:
        raise AnalyticsError(f"start_year {start_year} > end_year {end_year}")
    if window < 1:
        raise AnalyticsError("window must be >= 1")
    series = WindowSeries(start_year=start_year, end_year=end_year, window=window)
    graphs = _window_graphs(records, lambda rec: rec.year, start_year, end_year, window)
    for year, graph in zip(range(start_year, end_year + 1), graphs):
        result = hits(graph, tol=tol, max_iter=max_iter, convention=convention)
        hub_scores = dict(zip(graph.nodes, result.hub.tolist()))
        auth_scores = dict(zip(graph.nodes, result.authority.tolist()))
        series.entries.append(
            WindowEntry(
                year=year,
                nodes=graph.nodes,
                hits=result,
                hub_rank=rank(hub_scores),
                auth_rank=rank(auth_scores),
            )
        )
    return series


# ---------------------------------------------------------------------------
# Series export: CSV plus one SVG line chart per node

_SERIES_STYLE = (
    ("hub", "H-score", "#1f77b4", None),
    ("authority", "A-score", "#d62728", "6,3"),
    ("hub_rank", "H-score rank", "#2ca02c", "2,3"),
    ("auth_rank", "A-score rank", "#9467bd", "8,3,2,3"),
)


def export_series(series: WindowSeries, out_dir, nodes: Sequence[str] | None = None) -> dict:
    """Write the series as CSV and one SVG chart per node.

    The CSV has one row per (year, node) over the union of nodes (or the
    requested subset); cells stay empty for windows the node is absent
    from. Returns the written paths.
    """
    if not series.entries:
        raise AnalyticsError("cannot export an empty series")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_nodes = list(nodes) if nodes else sorted({n for e in series.entries for n in e.nodes})
    columns = {node: _node_values(series, node) for node in all_nodes}

    csv_path = out / "hits_series.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "node", "hub", "authority", "hub_rank", "auth_rank"])
        for at, entry in enumerate(series.entries):
            for node in all_nodes:
                value = columns[node][at]
                if value is None:
                    writer.writerow([entry.year, node, "", "", "", ""])
                else:
                    hub, authority, hub_rank, auth_rank, _ = value
                    writer.writerow([entry.year, node, repr(hub), repr(authority), hub_rank, auth_rank])

    years = [entry.year for entry in series.entries]
    svg_paths: dict[str, Path] = {}
    for node in all_nodes:
        svg_path = out / f"hits_{node}.svg"
        svg_path.write_text(_node_chart_svg(years, node, columns[node]), encoding="utf-8")
        svg_paths[node] = svg_path
    return {"csv": csv_path, "svg": svg_paths}


def _node_values(series: WindowSeries, node: str) -> list[tuple[float, float, int, int, int] | None]:
    """Per window: the node's hub and authority scores, its hub and authority ranks and the
    window's node count; None where the node is absent from the window."""
    values = []
    for entry in series.entries:
        if node in entry.hub_rank:
            i = entry.nodes.index(node)
            values.append((float(entry.hits.hub[i]), float(entry.hits.authority[i]),
                           entry.hub_rank[node], entry.auth_rank[node], len(entry.nodes)))
        else:
            values.append(None)
    return values


def _node_chart_svg(years: list[int], node: str, values: list) -> str:
    max_rank = max((value[4] for value in values if value), default=1)

    width, height = 640, 360
    left, right, top, bottom = 60, 60, 50, 40
    plot_w, plot_h = width - left - right, height - top - bottom

    def x_pos(idx: int) -> float:
        if len(years) == 1:
            return left + plot_w / 2
        return left + plot_w * idx / (len(years) - 1)

    def y_score(value: float) -> float:
        return top + plot_h * (1.0 - value)  # scores live in [0, 1]

    def y_rank(value: float) -> float:
        if max_rank == 1:
            return top
        return top + plot_h * (value - 1) / (max_rank - 1)  # rank 1 at the top

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">Field {node}: scores and ranks per window start year</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        f'stroke="black"/>',
    ]
    for idx, year in enumerate(years):
        parts.append(
            f'<text x="{x_pos(idx):.1f}" y="{height - 18}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{year}</text>'
        )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.1f}" font-size="10" font-family="sans-serif" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.1f})" text-anchor="middle">score / rank</text>'
    )
    for column, (key, label, color, dash) in enumerate(_SERIES_STYLE):  # a column of _node_values
        scale = y_rank if key.endswith("_rank") else y_score
        runs = itertools.groupby(enumerate(values), key=lambda item: item[1] is not None)
        for run in (run for present, run in runs if present):
            points = " ".join(f"{x_pos(i):.1f},{scale(value[column]):.1f}" for i, value in run)
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{dash_attr} points="{points}"/>'
            )
    for pos, (key, label, color, dash) in enumerate(_SERIES_STYLE):
        x0 = left + pos * 140
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{x0}" y1="34" x2="{x0 + 24}" y2="34" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{x0 + 28}" y="38" font-size="10" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
