"""Classification and review-id enrichment from an offline lookup table.

The table stands in for the access-restricted reviews database: each row
keys a known article by normalized journal title, volume, year, and start
page, and carries its review number plus primary/secondary classification.
"""

from __future__ import annotations

import functools
import re
import string
import unicodedata
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .errors import MathRepoError
from .msc import is_msc_code
from .records import CanonicalRecord, RelatedUrl, read_table

REVIEW_URL_PREFIX = "http://www.ams.org/mathscinet-getitem?mr="

_PUNCT_TO_SPACE = {ord(ch): " " for ch in string.punctuation}
_SPAGE_RE = re.compile(r"\d+")


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


@dataclass(frozen=True)
class MatchKey:
    """Join key bridging journal-title spelling differences between the
    harvested records and the lookup table."""

    journal_norm: str
    volume: str
    year: int
    spage: str

    def render(self) -> str:
        return f"{self.journal_norm}|{self.volume}|{self.year}|{self.spage}"


@dataclass(frozen=True)
class MrEntry:
    mr_number: int
    msc_primary: str
    msc_secondary: tuple[str, ...]

    def __post_init__(self):
        if self.mr_number <= 0:
            raise MrTableError(f"mr_number must be positive: {self.mr_number}")
        for code in (self.msc_primary, *self.msc_secondary):
            if not is_msc_code(code):
                raise MrTableError(f"invalid MSC code: {code!r}")


def make_match_key(rec: CanonicalRecord) -> MatchKey | None:
    """Key for a record, or None when publication or year is missing."""
    if not rec.publication or rec.year is None:
        return None
    match = _SPAGE_RE.match(rec.pagerange)
    spage = match.group() if match else ""
    return MatchKey(
        journal_norm=normalize_journal(rec.publication),
        volume=rec.volume.strip(),
        year=rec.year,
        spage=spage,
    )


def load_mr_table(path) -> dict[MatchKey, MrEntry]:
    """Load the tab-separated lookup table.

    Columns: journal, volume, year, spage, mr_number, msc_primary,
    semicolon-separated msc_secondary. Lines starting with "#" are
    comments. Duplicate keys are an error naming both lines.
    """
    table: dict[MatchKey, MrEntry] = {}
    first_line: dict[MatchKey, int] = {}
    for lineno, row in read_table(path, 7, MrTableError):
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
            entry = MrEntry(
                mr_number=int(mr_number),
                msc_primary=primary,
                msc_secondary=tuple(c.strip() for c in secondary.split(";") if c.strip()),
            )
        except ValueError as exc:
            raise MrTableError(f"{path}:{lineno}: bad mr_number {mr_number!r}") from exc
        except MrTableError as exc:
            raise MrTableError(f"{path}:{lineno}: {exc}") from exc
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


def _apply_entry(rec: CanonicalRecord, entry: MrEntry) -> CanonicalRecord:
    """``rec`` with ``entry`` applied; ``rec`` itself when applying it changes nothing."""
    added = [code for code in dict.fromkeys(entry.msc_secondary) if code not in rec.msc_secondary]
    secondary = rec.msc_secondary + added
    related = list(rec.related_urls)
    review = RelatedUrl(url=f"{REVIEW_URL_PREFIX}{entry.mr_number}", type="MathSciNet")
    if review not in related:
        related.append(review)
    merged = (entry.mr_number, entry.msc_primary, secondary, related)
    if merged == (rec.mr_number, rec.msc_primary, rec.msc_secondary, rec.related_urls):
        return rec
    return replace(
        rec,
        mr_number=entry.mr_number,
        msc_primary=entry.msc_primary,
        msc_secondary=secondary,
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
