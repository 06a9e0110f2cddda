"""Output checks, run after the timed passes.

Every expected outcome counts once as attempted: a record stored with the
right fields, a malformed record rejected, a record matched, a document
exported, a stage exiting 0, a share table and each non-degenerate hits
window agreeing with its oracle. The first pass is checked in full; every
later pass must reproduce the first pass's output files byte for byte, and
counts the first pass's failures again, so the failed share does not shrink
with the number of passes.
"""

from __future__ import annotations

import csv
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus import FIELDS, Corpus, primary_counts

ATOM_LINK = "{http://www.w3.org/2005/Atom}link"
ORE_AGGREGATES = "http://www.openarchives.org/ore/terms/aggregates"
SCORE_TOL = 1e-6
DEGENERATE_GAP = 1e-9


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def outcome(self, ok: bool, what: str) -> None:
        self.outcomes(1, 0 if ok else 1, what)

    def outcomes(self, attempted: int, failed: int, what: str | None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and what and len(self.problems) < 20:
            self.problems.append(what)


def stored_fields(rec) -> dict:
    """The compared subset of a stored or round-tripped record, as plain data."""
    rec = {
        **rec.__dict__,
        "creators": [n.__dict__ for n in rec.creators],
        "related_urls": [r.__dict__ for r in rec.related_urls],
    }
    return {
        "source": rec["source"],
        "oai_identifier": rec["oai_identifier"],
        "title": rec["title"],
        "creators": [[n["family"], n["given"]] for n in rec["creators"]],
        "publication": rec["publication"],
        "volume": rec["volume"],
        "issue": rec["issue"],
        "pagerange": rec["pagerange"],
        "date": rec["date"],
        "official_url": rec["official_url"],
        "msc_primary": rec["msc_primary"],
        "msc_secondary": list(rec["msc_secondary"]),
        "mr_number": rec["mr_number"],
        "related_urls": [{"url": r["url"], "type": r["type"]} for r in rec["related_urls"]],
    }


def check_store(tally: Tally, corpus: Corpus, store: Path) -> None:
    """Read the store through the program's own ``load_records``; an
    unreadable store fails every record."""
    from mathrepo.records import StoreError, load_records

    found = {}
    if store.exists():
        try:
            found = {rec.record_id: stored_fields(rec) for rec in load_records(store)}
        except StoreError as exc:
            tally.outcome(False, f"store unreadable: {exc}")
    for rid, want in corpus.expected.items():
        tally.outcome(found.get(rid) == want, f"store record {rid} missing or wrong")
    for rid in corpus.rejected:
        tally.outcome(rid not in found, f"malformed record {rid} was stored")
    for rid in found.keys() - corpus.expected.keys() - corpus.rejected:
        tally.outcome(False, f"unexpected store record {rid}")


def check_matched(tally: Tally, corpus: Corpus, enrich_stdout: str) -> None:
    match = re.search(r"enrich: (\d+) matched", enrich_stdout)
    got = int(match.group(1)) if match else -1
    wrong = min(corpus.matched, abs(got - corpus.matched)) if got >= 0 else corpus.matched
    tally.outcomes(corpus.matched, wrong, f"enrich reported {got} matched, expected {corpus.matched}")


def check_exports(tally: Tally, corpus: Corpus, out: Path) -> None:
    from mathrepo.serialize import from_eprints_xml

    for rid, want in corpus.expected.items():
        path = out / f"{rid}.eprints.xml"
        ok = False
        if path.exists():
            ok = stored_fields(from_eprints_xml(path.read_bytes())) == want
        tally.outcome(ok, f"EPrints file for {rid} missing or does not round-trip")
        path = out / f"{rid}.mets.xml"
        ok = path.exists() and ET.parse(path).getroot().get("OBJID") == rid
        tally.outcome(ok, f"METS package for {rid} missing or wrong")
    exported = {p.name.split(".")[0] for p in out.glob("*.eprints.xml")} | {
        p.name.split(".")[0] for p in out.glob("*.mets.xml")
    }
    for rid in exported - corpus.expected.keys():
        tally.outcome(False, f"unexpected export for {rid}")
    ore = out / "records.ore.atom.xml"
    hrefs = []
    if ore.exists():
        hrefs = [
            link.get("href") for link in ET.parse(ore).getroot().iter(ATOM_LINK)
            if link.get("rel") == ORE_AGGREGATES
        ]
    want = sorted(rec["official_url"] for rec in corpus.expected.values())
    tally.outcome(sorted(hrefs) == want, f"ORE aggregation has {len(hrefs)} links, expected {len(want)}")


def expected_share_csv(corpus: Corpus) -> str:
    rows = []
    for top, count in primary_counts(corpus.expected.values()).items():
        total = corpus.totals[top]
        rows.append((-(10000 * count // total), top, count, total))
    rows.sort()
    lines = ["msc2,count,total,percent"]
    lines += [f"{top},{count},{total},{-neg / 100:.2f}" for neg, top, count, total in rows]
    return "\n".join(lines) + "\n"


def check_share(tally: Tally, corpus: Corpus, out: Path) -> None:
    path = out / "field_share.csv"
    got = path.read_text(encoding="utf-8") if path.exists() else ""
    tally.outcome(got == expected_share_csv(corpus), "field_share.csv differs from the expected table")


def window_counts(corpus: Corpus) -> np.ndarray:
    """Per-year (field x field) counts of primary -> secondary pairs."""
    first, last, window = corpus.hits_span
    index = {top: i for i, top in enumerate(FIELDS)}
    years = last + window - first
    counts = np.zeros((years, len(FIELDS), len(FIELDS)), dtype=np.int64)
    for rec in corpus.expected.values():
        year = int(rec["date"][:4])
        if not rec["msc_primary"] or not (first <= year < first + years):
            continue
        src = index[rec["msc_primary"][:2]]
        for code in rec["msc_secondary"]:
            counts[year - first, src, index[code[:2]]] += 1
    return counts


def dominant(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Unit dominant eigenvector of a symmetric PSD matrix and whether its gap is degenerate."""
    values, vectors = np.linalg.eigh(m)
    vec = vectors[:, -1]
    vec = vec * np.sign(vec.sum())
    degenerate = values.size >= 2 and (values[-1] <= 0 or values[-1] - values[-2] <= DEGENERATE_GAP * values[-1])
    return vec, bool(degenerate)


def check_hits(tally: Tally, corpus: Corpus, out: Path) -> int:
    """Compare hits_series.csv with eigh on the corpus's own window counts;
    returns the number of degenerate windows skipped."""
    first, last, window = corpus.hits_span
    counts = window_counts(corpus)
    rows: dict[int, dict[str, dict]] = {}
    path = out / "hits_series.csv"
    if path.exists():
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                rows.setdefault(int(row["year"]), {})[row["node"]] = row
    skipped = 0
    for year in range(first, last + 1):
        c = counts[year - first : year - first + window].sum(axis=0)
        present = [i for i in range(len(FIELDS)) if c[i].any() or c[:, i].any()]
        nodes = [FIELDS[i] for i in present]
        got = rows.get(year, {})
        if not nodes:
            tally.outcome(not any(r["hub"] for r in got.values()), f"hits window {year} should be empty")
            continue
        m = c[np.ix_(present, present)].astype(np.float64)
        hub, degenerate = dominant(m.T @ m)  # the program's default source_authority convention
        authority, _ = dominant(m @ m.T)
        if degenerate:
            skipped += 1
            continue
        ok = {n for n, r in got.items() if r["hub"]} == set(nodes)
        if ok:
            for i, node in enumerate(nodes):
                r = got[node]
                ok &= abs(float(r["hub"]) - hub[i]) <= SCORE_TOL
                ok &= abs(float(r["authority"]) - authority[i]) <= SCORE_TOL
            for key, rank in (("hub", "hub_rank"), ("authority", "auth_rank")):
                order = sorted(nodes, key=lambda n: (-float(got[n][key]), n))
                ok &= all(int(got[n][rank]) == pos for pos, n in enumerate(order, start=1))
        tally.outcome(ok, f"hits window {year} disagrees with the eigh oracle")
    return skipped


def check_first_pass(tally: Tally, corpus: Corpus, workload: str, pass_dir: Path, record: dict) -> int:
    """Check the first pass in full; returns the count of degenerate hits windows."""
    for stage, code in record["codes"].items():
        tally.outcome(code == 0, f"stage {stage} exited {code}")
    out = pass_dir / "out"
    if workload in ("full_ingest", "incremental_update"):
        check_store(tally, corpus, pass_dir / "records.jsonl")
        check_matched(tally, corpus, record["stdout"]["enrich"])
    if workload == "full_ingest":
        check_exports(tally, corpus, out)
    skipped = 0
    if workload in ("full_ingest", "field_trends"):
        check_share(tally, corpus, out)
        skipped = check_hits(tally, corpus, out)
    return skipped


def check_repeats(tally: Tally, passes: list[dict]) -> None:
    """Each later pass counts the first pass's outcomes again: it fails the
    first pass's failures plus one per output file whose bytes differ from
    the first pass. A defect that repeats on every pass therefore weighs the
    same share of outcomes however many passes a run holds."""
    per_pass, first_failed = tally.attempted, tally.failed
    for record in passes[1:]:
        differing = record["digest_diff"]
        failed = min(per_pass, first_failed + len(differing))
        what = f"outputs differ from the first pass: {differing[:3]}" if differing else None
        tally.outcomes(per_pass, failed, what)
