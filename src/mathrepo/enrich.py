"""Classification and review-id enrichment from an offline lookup table.

The table stands in for the access-restricted reviews database: each row
keys a known article by normalized journal title, volume, year, and start
page, and carries its review number plus primary/secondary classification.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import string
import unicodedata
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import MathRepoError
from .msc import is_msc_code
from .records import _DECODER_SHA256, CanonicalRecord, RelatedUrl, read_keyed, read_table, write_keyed

REVIEW_URL_PREFIX = "http://www.ams.org/mathscinet-getitem?mr="

_PUNCT_TO_SPACE = {ord(ch): " " for ch in string.punctuation}
_SPAGE_RE = re.compile(r"\d+")

# the source of the code that decodes, enriches and encodes a store line, hashed
_ENRICHER_SHA256 = _DECODER_SHA256.copy()
_ENRICHER_SHA256.update(Path(__file__).read_bytes())


class MrTableError(MathRepoError):
    """Lookup table unreadable, duplicated, or malformed."""


# a store names few distinct journals, each on many records
@functools.lru_cache(maxsize=4096)
def normalize_journal(title: str) -> str:
    """Lowercase, ASCII-fold foldable characters, strip punctuation,
    collapse whitespace. Non-foldable scripts pass through unchanged."""
    folded = unicodedata.normalize("NFKD", title)
    folded = "".join(ch for ch in folded if not unicodedata.combining(ch))
    return " ".join(folded.lower().translate(_PUNCT_TO_SPACE).split())


class MatchKey(NamedTuple):
    """Join key bridging journal-title spelling differences between the
    harvested records and the lookup table."""

    journal_norm: str
    volume: str
    year: int
    spage: str

    def render(self) -> str:
        return f"{self.journal_norm}|{self.volume}|{self.year}|{self.spage}"


class MrEntry(NamedTuple):
    """A lookup-table row's review number and classification, as ``load_mr_table`` checked them."""

    mr_number: int
    msc_primary: str
    msc_secondary: tuple[str, ...]


def make_match_key(rec: CanonicalRecord) -> MatchKey | None:
    """Key for a record, or None when publication or year is missing."""
    year = rec.year
    if not rec.publication or year is None:
        return None
    match = _SPAGE_RE.match(rec.pagerange)
    return MatchKey(normalize_journal(rec.publication), rec.volume.strip(), year, match.group() if match else "")


def load_mr_table(path, data: bytes | None = None) -> dict[MatchKey, MrEntry]:
    """Load the tab-separated lookup table, from ``data`` where the caller has read its bytes.

    Columns: journal, volume, year, spage, mr_number, msc_primary,
    semicolon-separated msc_secondary. Lines starting with "#" are
    comments. Duplicate keys are an error naming both lines.
    """
    table: dict[MatchKey, MrEntry] = {}
    first_line: dict[MatchKey, int] = {}
    for lineno, row in read_table(path, 7, MrTableError, data):
        journal, volume, year, spage, mr_number, primary, secondary = row
        try:
            key = MatchKey(normalize_journal(journal), volume, int(year), spage)
        except ValueError as exc:
            raise MrTableError(f"{path}:{lineno}: bad year {year!r}") from exc
        if key in table:
            raise MrTableError(
                f"{path}: duplicate key {key.render()!r} on lines "
                f"{first_line[key]} and {lineno}"
            )
        try:
            entry = MrEntry(int(mr_number), primary, tuple(c.strip() for c in secondary.split(";") if c.strip()))
        except ValueError as exc:
            raise MrTableError(f"{path}:{lineno}: bad mr_number {mr_number!r}") from exc
        if entry.mr_number <= 0:
            raise MrTableError(f"{path}:{lineno}: mr_number must be positive: {entry.mr_number}")
        for code in (primary, *entry.msc_secondary):
            if not is_msc_code(code):
                raise MrTableError(f"{path}:{lineno}: invalid MSC code: {code!r}")
        table[key] = entry
        first_line[key] = lineno
    return table


@dataclass
class EnrichReport:
    matched: int = 0
    unmatched: int = 0
    skipped: int = 0

    @classmethod
    def of(cls, outcomes: Iterable[str]) -> EnrichReport:
        """The count of each outcome that ``enrich_record`` gave."""
        counts = Counter(outcomes)
        return cls(counts["matched"], counts["unmatched"], counts["skipped"])

    def summary(self) -> str:
        return f"{self.matched} matched, {self.unmatched} unmatched, {self.skipped} skipped"


def stamp_key(table: bytes, store_sha256: bytes):
    """The key of the stamp of a store whose bytes have the sha256 digest ``store_sha256``,
    enriched with the table whose bytes are ``table``: a sha256 of the enricher's source, the
    table's sha256 digest and the store's."""
    digest = _ENRICHER_SHA256.copy()
    digest.update(hashlib.sha256(table).digest())
    digest.update(store_sha256)
    return digest


def read_stamp(path, key) -> EnrichReport | None:
    """The counts that the stamp of the store ``path`` holds under ``key``: those of a full
    enrich of that store, which would write it unchanged. None if the stamp is missing, has
    another key or does not hold three integer counts."""
    text = read_keyed(f"{path}.stamp", key)
    if text is None:
        return None
    try:
        report = EnrichReport(**json.loads(text))
    except (ValueError, TypeError, RecursionError):  # not JSON, or not an object of the three counts
        return None
    return report if {type(count) for count in vars(report).values()} == {int} else None


def write_stamp(path, key, report: EnrichReport) -> None:
    """Keep ``report`` in the stamp of the store ``path``, under ``key``, for ``read_stamp``."""
    write_keyed(f"{path}.stamp", key, json.dumps(vars(report)).encode())


def _carries(rec: CanonicalRecord, entry: MrEntry) -> bool:
    """Whether ``rec`` already holds the entry's review number, every MSC code and the review link."""
    if rec.mr_number != entry.mr_number or rec.msc_primary != entry.msc_primary:
        return False
    for code in entry.msc_secondary:
        if code not in rec.msc_secondary:
            return False
    url = f"{REVIEW_URL_PREFIX}{entry.mr_number}"
    for link in rec.related_urls:
        if link.url == url and link.type == "MathSciNet":
            return True
    return False


def _apply_entry(rec: CanonicalRecord, entry: MrEntry) -> CanonicalRecord:
    """``rec`` with ``entry`` applied; ``rec`` itself when it already carries the entry."""
    if _carries(rec, entry):
        return rec
    added = [code for code in dict.fromkeys(entry.msc_secondary) if code not in rec.msc_secondary]
    related = list(rec.related_urls)
    review = RelatedUrl(url=f"{REVIEW_URL_PREFIX}{entry.mr_number}", type="MathSciNet")
    if review not in related:
        related.append(review)
    return replace(
        rec,
        mr_number=entry.mr_number,
        msc_primary=entry.msc_primary,
        msc_secondary=rec.msc_secondary + added,
        related_urls=related,
    )


def enrich_record(rec: CanonicalRecord, table: Mapping[MatchKey, MrEntry]) -> tuple[CanonicalRecord, str]:
    """``rec`` enriched from ``table``, and the outcome: "matched", "unmatched", or
    "skipped" for a record without a usable key. Only a matched record changes."""
    key = make_match_key(rec)
    if key is None:
        return rec, "skipped"
    entry = table.get(key)
    if entry is None:
        return rec, "unmatched"
    return _apply_entry(rec, entry), "matched"


def enrich(
    records: Iterable[CanonicalRecord], table: Mapping[MatchKey, MrEntry]
) -> tuple[list[CanonicalRecord], EnrichReport]:
    """Attach review numbers, classifications, and review URLs to records.

    Matched records gain mr_number, msc_primary, merged-and-deduplicated
    msc_secondary (record's own codes first), and a MathSciNet related URL.
    Unmatched records pass through unchanged; records without a usable key
    are skipped. Idempotent: a record that already carries its entry is
    passed through as the same object.
    """
    results = [enrich_record(rec, table) for rec in records]
    return [rec for rec, _ in results], EnrichReport.of(outcome for _, outcome in results)
