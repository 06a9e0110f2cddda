"""Field-activity statistics: share table, classification co-occurrence
graphs, hub/authority scoring, and sliding-window ranking series."""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import MathRepoError
from .msc import msc_fields
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
        try:
            rows.append(FieldShareRow(msc2, count, total, truncated_percent(count, total)))
        except AnalyticsError as exc:
            raise AnalyticsError(f"field {msc2!r}: {exc}") from None
    rows.sort(key=lambda row: (-row.percent, row.msc2))
    return rows


def field_share_table(
    records: Iterable[Classification], totals: Mapping[str, int]
) -> list[FieldShareRow]:
    """Article share per top-level field, counting primary classifications."""
    counts = Counter(msc_fields([rec.msc_primary for rec in records if rec.msc_primary]))
    return share_rows_from_counts(counts, totals)


def load_totals(path) -> dict[str, int]:
    """Load the world-totals file: tab-separated msc2, world_count. A count below 1 is an
    error naming its line, and a field given twice one naming both lines."""
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
        if totals[msc2] < 1:
            raise AnalyticsError(f"{path}:{lineno}: world total must be positive, got {count!r}")
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


def _window_graphs(records: Iterable[Classification], first: int, last: int, window: int) -> Iterator[MscGraph]:
    """Yield, for Y = first..last, the graph of the records whose ``year`` is in [Y, Y+window-1].
    The code pairs are sorted by year once; a running N x N count matrix moves a year per step."""
    import numpy as np

    kept = [(y, rec.msc_primary, rec.msc_secondary) for rec in records
            if rec.msc_primary and rec.msc_secondary and (y := rec.year) is not None and first <= y < last + window]
    tops = msc_fields([code for _, primary, secondaries in kept for code in (primary, *secondaries)])
    nodes = sorted(set(tops))
    index, n = {node: i for i, node in enumerate(nodes)}, len(nodes)
    at = np.fromiter(map(index.__getitem__, tops), np.int64, len(tops))
    fanout = np.fromiter((len(secondaries) for _, _, secondaries in kept), np.int64, len(kept))
    src = np.cumsum(fanout + 1) - fanout - 1  # each record's primary in tops, its secondaries after it
    pairs = np.repeat(at[src] * n, fanout) + np.delete(at, src)  # src * n + dst, record by record
    years = np.repeat(np.fromiter((y for y, _, _ in kept), np.int64, len(kept)), fanout)
    order = np.argsort(years)
    years, pairs = years[order], pairs[order]
    end = int(years[-1]) + 1 if years.size else first  # no pair is from this year or later
    starts = np.searchsorted(years, range(first, last + 1)).tolist()
    stops = np.searchsorted(years, [min(year + window, end) for year in range(first, last + 1)]).tolist()
    counts, start, stop = np.zeros(n * n, dtype=np.int64), 0, 0
    for new_start, new_stop in zip(starts, stops):  # window Y: pairs[starts[Y - first]:stops[Y - first]]
        counts += np.bincount(pairs[stop:new_stop], minlength=n * n)
        counts -= np.bincount(pairs[start:new_start], minlength=n * n)
        start, stop = new_start, new_stop
        weights = counts.reshape(n, n)  # its nodes are the fields on some edge
        keep = np.flatnonzero(weights.any(axis=0) | weights.any(axis=1))
        yield MscGraph(nodes=[nodes[i] for i in keep], weights=weights[np.ix_(keep, keep)])


def build_msc_graph(records: Iterable[Classification]) -> MscGraph:
    """Accumulate one unit of weight per (primary, secondary) code pair.

    An article with primary p and secondaries s1..sk adds weight 1 to each
    edge top(p) -> top(si), self-loops included; articles lacking a primary
    or having no secondaries contribute nothing.
    """
    return next(_window_graphs([Classification(rec.msc_primary, rec.msc_secondary, 0) for rec in records], 0, 0, 1))


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


def check_hits_settings(tol: float, max_iter: int, convention: str) -> None:
    """Raise ``AnalyticsError`` naming the first setting ``hits`` cannot run with."""
    if convention not in CONVENTIONS:
        raise AnalyticsError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if not 0 < tol < math.inf:  # NaN never converges, and inf "converges" after one sweep
        raise AnalyticsError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise AnalyticsError(f"max_iter must be >= 1, got {max_iter}")


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

    check_hits_settings(tol, max_iter, convention)
    n = graph.size
    m = graph.weights.astype(np.float64)
    if not m.any():  # no edge, and no node either when n == 0
        return HitsResult(np.zeros(n), np.zeros(n), 0, 0.0)
    x = np.full(n, 1.0 / np.sqrt(n))  # tracks dominant eigenvector of M'M
    y = np.full(n, 1.0 / np.sqrt(n))  # tracks dominant eigenvector of MM'
    converged = False
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):  # each norm as np.linalg.norm takes it: sqrt(v @ v)
        x_new = m.T @ (m @ x)
        x_new /= math.sqrt(x_new @ x_new)
        y_new = m @ (m.T @ y)
        y_new /= math.sqrt(y_new @ y_new)
        dx, dy = x_new - x, y_new - y
        residual = math.sqrt(max(dx @ dx, dy @ dy))
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


def check_series_settings(
    start_year: int, end_year: int, window: int, tol: float, max_iter: int, convention: str
) -> None:
    """Raise ``AnalyticsError`` naming the first setting ``sliding_window_series`` cannot run with."""
    if start_year > end_year:
        raise AnalyticsError(f"start_year {start_year} > end_year {end_year}")
    if start_year < 0 or end_year > 9999:  # record dates are four-digit years
        raise AnalyticsError(f"years must be from 0 to 9999, not {start_year} to {end_year}")
    if window < 1:
        raise AnalyticsError("window must be >= 1")
    check_hits_settings(tol, max_iter, convention)


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
    check_series_settings(start_year, end_year, window, tol, max_iter, convention)
    series = WindowSeries(start_year=start_year, end_year=end_year, window=window)
    graphs = _window_graphs(records, start_year, end_year, window)
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


_WIDTH, _HEIGHT, _LEFT, _TOP = 640, 360, 60, 50
_PLOT_W, _PLOT_H = _WIDTH - _LEFT - 60, _HEIGHT - _TOP - 40  # right and bottom margins 60 and 40


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
    columns = _node_values(series, all_nodes)

    csv_path = out / "hits_series.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # it writes a float as repr() does
        writer.writerow(["year", "node", "hub", "authority", "hub_rank", "auth_rank"])
        absent = ("", "", "", "")
        writer.writerows((entry.year, node, *(columns[node][at] or absent)[:4])
                         for at, entry in enumerate(series.entries) for node in all_nodes)

    frame = _chart_frame([entry.year for entry in series.entries])
    svg_paths: dict[str, Path] = {}
    for node in all_nodes:
        svg_path = out / f"hits_{node}.svg"
        svg_path.write_text(_node_chart_svg(frame, node, columns[node]), encoding="utf-8")
        svg_paths[node] = svg_path
    return {"csv": csv_path, "svg": svg_paths}


def _node_values(series: WindowSeries, nodes: list[str]) -> dict[str, list[tuple | None]]:
    """Per node, per window: the node's hub and authority scores, its hub and authority ranks
    and the window's node count; None where the node is absent from the window."""
    columns: dict[str, list[tuple | None]] = {node: [] for node in nodes}
    for entry in series.entries:
        at = dict(zip(entry.nodes, range(len(entry.nodes))))
        hub, authority = entry.hits.hub.tolist(), entry.hits.authority.tolist()
        for node, values in columns.items():
            i = at.get(node)
            values.append(None if i is None else
                          (hub[i], authority[i], entry.hub_rank[node], entry.auth_rank[node], len(at)))
    return columns


def _chart_frame(years: list[int]) -> tuple[list[str], str, str, str]:
    """What every node's chart shares: each window's x position, formatted; the text before
    the node in the title and from there to the first line; and the legend."""
    last = len(years) - 1
    xs = [f"{_LEFT + _PLOT_W * idx / last if last else _LEFT + _PLOT_W / 2:.1f}" for idx in range(len(years))]
    head = "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14" font-family="sans-serif">Field ',
    ])
    axes = "\n".join([
        ": scores and ranks per window start year</text>",
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_TOP + _PLOT_H}" stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_TOP + _PLOT_H}" x2="{_LEFT + _PLOT_W}" y2="{_TOP + _PLOT_H}" '
        f'stroke="black"/>',
        *(f'<text x="{x}" y="{_HEIGHT - 18}" text-anchor="middle" '
          f'font-size="10" font-family="sans-serif">{year}</text>' for x, year in zip(xs, years)),
        f'<text x="14" y="{_TOP + _PLOT_H / 2:.1f}" font-size="10" font-family="sans-serif" '
        f'transform="rotate(-90 14 {_TOP + _PLOT_H / 2:.1f})" text-anchor="middle">score / rank</text>',
    ])
    legend = []
    for pos, (key, label, color, dash) in enumerate(_SERIES_STYLE):
        x0 = _LEFT + pos * 140
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        legend.append(
            f'<line x1="{x0}" y1="34" x2="{x0 + 24}" y2="34" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        legend.append(
            f'<text x="{x0 + 28}" y="38" font-size="10" font-family="sans-serif">{label}</text>'
        )
    return xs, head, axes, "\n".join([*legend, "</svg>"])


def _node_chart_svg(frame: tuple[list[str], str, str, str], node: str, values: list) -> str:
    xs, head, axes, legend = frame
    max_rank = max((value[4] for value in values if value), default=1)
    # each rank's y, formatted once: rank 1 at the top
    ranks = [f"{_TOP + _PLOT_H * (rank - 1) / (max_rank - 1) if max_rank > 1 else _TOP:.1f}"
             for rank in range(max_rank + 1)]
    parts = [f"{head}{node}{axes}"]
    runs = [list(run) for present, run in itertools.groupby(enumerate(values), key=lambda item: item[1] is not None)
            if present]
    for column, (key, label, color, dash) in enumerate(_SERIES_STYLE):  # a column of _node_values
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        for run in runs:
            if key.endswith("_rank"):
                points = " ".join([f"{xs[i]},{ranks[value[column]]}" for i, value in run])
            else:  # scores live in [0, 1]
                points = " ".join([f"{xs[i]},{_TOP + _PLOT_H * (1.0 - value[column]):.1f}" for i, value in run])
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{dash_attr} points="{points}"/>'
            )
    parts.append(legend)
    return "\n".join(parts)
