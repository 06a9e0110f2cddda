"""Seeded synthetic corpus for the pipeline benchmark.

The generator decides every article's canonical values first and renders
them as fixture envelopes (``oai_dc`` and ``junii2``), as rows of the MR
lookup table and as world totals. It keeps those values as the ground truth
the output checks compare against; the program under test only ever sees
the written files.

Record ids, match keys and per-window edge counts are computed
independently of the program. The one exception is a pre-built store: it is
written through the program's ``mathrepo.records.store_records``, so that
the store's format has one definition.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

OAI_DC_OPEN = (
    '<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/" '
    'xmlns:dc="http://purl.org/dc/elements/1.1/">'
)
JUNII2_OPEN = '<meta xmlns="http://ju.nii.ac.jp/junii2">'
REVIEW_URL_PREFIX = "http://www.ams.org/mathscinet-getitem?mr="

# Two-digit MSC top-level fields.
FIELDS = (
    "00 01 03 05 06 08 11 12 13 14 15 16 17 18 19 20 22 26 28 30 31 32 33 34 35 "
    "37 39 40 41 42 43 44 45 46 47 49 51 52 53 54 55 57 58 60 62 65 68 70 74 76 "
    "78 80 81 82 83 85 86 90 91 92 93 94 97"
).split()

# No standalone digits and no "no." so the citation grammar reads them whole.
JOURNALS = (
    "J. Synth. Algebra", "Ann. Synth. Geom.", "Proc. Imag. Math. Soc.", "Bull. Fict. Anal.",
    "Trans. Sample Topology", "J. Pseudo Number Theory", "Comment. Math. Helvét.",
    "Publ. Math. Inst. Fict.", "Acta Arith. Synth.", "Rev. Mat. Iberoam. Synth.",
    "Math. Z. Synthetic", "Kodai Math. J. Synth.", "Tôhoku Math. J. Synth.",
    "Osaka J. Synth. Math.", "Duke Synth. Math. J.", "Invent. Fict. Math.",
    "Ann. Fac. Sci. Toulouse Synth.", "J. Fict. Combin. Theory", "Israel J. Synth. Math.",
    "Pacific J. Synth. Math.", "Illinois J. Fict. Math.", "Nagoya Synth. Math. J.",
)
PUBLISHERS = ("Synthetic Mathematical Society", "Fictional University Press", "Imaginary Institute")
WORDS = (
    "minimal regular digraphs girth spectral synthesis algebra trimmed sums independent "
    "random variables vertex theorems space forms derived spaces Schur multiplier semidirect "
    "product potential theory Hölder estimates boundary layers ergodic flows modular curves "
    "sheaves Banach lattices Riemann surfaces Galois cohomology Markov chains quasi-periodic "
    "orbits Lie superalgebras Sobolev embeddings elliptic operators"
).split()
FAMILIES = ("BEHZAD", "KASAHARA", "OKAMOTO", "DUPONT", "MÜLLER", "SMITH", "NAKAMURA", "ROSSI", "ÅBERG")
GIVENS = ("Mehdi", "Yuji", "Jane", "Hiroshi", "Élise", "Karl", "Aiko", "Paolo")


# The field landscape is the same for every seed, so that every seed's hits
# windows have a similar spectral gap and power iteration does a similar
# amount of work: popularity is Zipf-like over a fixed field order, drifts
# by at most e^0.5 either way across the seventy years, and the leading
# field drifts up fastest, so it leads every window.
FIRST_YEAR, LAST_YEAR = 1940, 2009
_world = random.Random(0)
_ORDER = _world.sample(FIELDS, len(FIELDS))
BASE = {top: 1 / (rank + 1) for rank, top in enumerate(_ORDER)}
TREND = {top: _world.uniform(-0.5, 0.5) for top in FIELDS}
TREND[_ORDER[0]] = 0.5


def record_id(source: str, oai_identifier: str) -> str:
    """Store key of a record: the first 16 hex digits of sha256(source \\n identifier)."""
    return hashlib.sha256(f"{source}\n{oai_identifier}".encode("utf-8")).hexdigest()[:16]


@dataclass
class Article:
    """One harvested article version, with the values canonicalization must yield."""

    source: str
    prefix: str
    ident: str
    datestamp: str
    title: str
    creators: list[tuple[str, str]]
    journal: str
    volume: str
    issue: str
    spage: int
    epage: int
    year: int
    date: str
    url: str
    publisher: str
    subjects: list[str] = field(default_factory=list)  # own MSC codes (oai_dc only)
    doi: str = ""
    full_text_url: str = ""
    malformed: bool = False
    mr: tuple[int, str, tuple[str, ...]] | None = None  # (mr_number, primary, secondary)

    @property
    def rid(self) -> str:
        return record_id(self.source, self.ident)

    def final_primary(self) -> str:
        return self.mr[1] if self.mr else ""

    def final_secondary(self) -> list[str]:
        out = list(self.subjects)
        if self.mr:
            out += [code for code in self.mr[2] if code not in out]
        return out

    def related(self) -> list[dict]:
        out = [{"url": self.doi, "type": "doi"}] if self.doi else []
        if self.mr:
            out.append({"url": f"{REVIEW_URL_PREFIX}{self.mr[0]}", "type": "MathSciNet"})
        return out

    def expected(self) -> dict:
        """Store fields the checks compare after harvest, transform and enrich."""
        return {
            "source": self.source,
            "oai_identifier": self.ident,
            "title": self.title,
            "creators": [[f, g] for f, g in self.creators],
            "publication": self.journal,
            "volume": self.volume,
            "issue": self.issue,
            "pagerange": f"{self.spage}-{self.epage}",
            "date": self.date,
            "official_url": self.url,
            "msc_primary": self.final_primary(),
            "msc_secondary": self.final_secondary(),
            "mr_number": self.mr[0] if self.mr else None,
            "related_urls": self.related(),
        }

    def payload(self) -> str:
        if self.prefix == "oai_dc":
            return self._dc_payload()
        return self._junii2_payload()

    def _dc_payload(self) -> str:
        parts = [OAI_DC_OPEN]
        if not self.malformed:  # the malformed oai_dc form lacks its title
            parts.append(f"<dc:title>{escape(self.title)}</dc:title>")
        parts += [f"<dc:creator>{escape(f)}, {escape(g)}</dc:creator>" for f, g in self.creators]
        parts += [f"<dc:subject>{code}</dc:subject>" for code in self.subjects]
        parts.append("<dc:subject>Synthetic mathematics</dc:subject>")
        parts.append(f"<dc:publisher>{escape(self.publisher)}</dc:publisher>")
        parts.append(f"<dc:date>{self.date}</dc:date><dc:type>Text</dc:type>")
        parts.append("<dc:format>application/pdf</dc:format>")
        parts.append(f"<dc:identifier>{escape(self.url)}</dc:identifier>")
        citation = (
            f"{self.journal} {self.volume}, no. {self.issue} ({self.year}), {self.spage}-{self.epage}"
        )
        parts.append(f"<dc:identifier>{escape(citation)}</dc:identifier>")
        if self.doi:
            parts.append(f"<dc:identifier>{escape(self.doi)}</dc:identifier>")
        parts.append("<dc:language>en</dc:language></oai_dc:dc>")
        return "".join(parts)

    def _junii2_payload(self) -> str:
        volume = f"{self.volume}a" if self.malformed else self.volume  # non-digit volume
        parts = [JUNII2_OPEN, f"<title>{escape(self.title)}</title>"]
        parts += [f"<creator>{escape(f)}, {escape(g)}</creator>" for f, g in self.creators]
        parts += [
            "<NDC>410</NDC>",
            f"<publisher>{escape(self.publisher)}</publisher>",
            "<NIItype>Departmental Bulletin Paper</NIItype>",
            "<format>application/pdf</format>",
            f"<URI>{escape(self.url)}</URI>",
            f"<fullTextURL>{escape(self.full_text_url)}</fullTextURL>",
            "<issn>00298190</issn>",
            f"<jtitle>{escape(self.journal)}</jtitle>",
            f"<volume>{volume}</volume><issue>{self.issue}</issue>",
            f"<spage>{self.spage}</spage><epage>{self.epage}</epage>",
            f"<dateofissued>{self.date}</dateofissued></meta>",
        ]
        return "".join(parts)

    def envelope_entry(self) -> str:
        return (
            f"<record><header><identifier>{escape(self.ident)}</identifier>"
            f"<datestamp>{self.datestamp}</datestamp><setSpec>{self.source}</setSpec></header>"
            f"<metadata>{self.payload()}</metadata></record>"
        )


def write_envelope(path: Path, articles) -> None:
    """One fixture file holding every served entry in serving order."""
    body = "".join(a.envelope_entry() for a in articles)
    path.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListRecords>'
        f"{body}</ListRecords></OAI-PMH>",
        encoding="utf-8",
    )


class Generator:
    """Seeded article factory; every choice is drawn from one ``random.Random``."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counter = 0
        self.mr_next = 100_000 + self.rng.randrange(1000)
        self._weights: dict[int, list[float]] = {}

    def msc(self, top: str) -> str:
        return f"{top}{self.rng.choice('ABCDEFGHJKLMNPQ')}{self.rng.randrange(5, 100):02d}"

    def field(self, year: int) -> str:
        """A top-level field drawn by its popularity in ``year``."""
        if year not in self._weights:
            t = (year - FIRST_YEAR) / (LAST_YEAR - FIRST_YEAR)
            total, cum = 0.0, []
            for top in FIELDS:
                total += BASE[top] * math.exp(TREND[top] * t)
                cum.append(total)
            self._weights[year] = cum
        return self.rng.choices(FIELDS, cum_weights=self._weights[year])[0]

    def classification(self, year: int) -> tuple[str, tuple[str, ...]]:
        """Primary and secondary codes; secondaries lean towards the primary's
        own field and its neighbours in the field list."""
        rng = self.rng
        primary = self.field(year)
        pos = FIELDS.index(primary)
        secondary = []
        for _ in range(rng.randrange(1, 4)):
            roll = rng.random()
            if roll < 0.4:
                top = primary
            elif roll < 0.75:
                top = FIELDS[(pos + rng.randrange(-3, 4)) % len(FIELDS)]
            else:
                top = self.field(year)
            secondary.append(self.msc(top))
        return self.msc(primary), tuple(dict.fromkeys(secondary))

    def article(self, source: str, prefix: str, year: int, datestamp: str) -> Article:
        rng = self.rng
        self.counter += 1
        n = self.counter
        spage = n * 3 + 1  # unique start page keeps every match key unique
        month = rng.randrange(1, 13)
        title = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(3, 9))).capitalize()
        if rng.random() < 0.05:
            title += " & applications"
        creators = [(rng.choice(FAMILIES), rng.choice(GIVENS)) for _ in range(rng.randrange(1, 4))]
        art = Article(
            source=source,
            prefix=prefix,
            ident=f"oai:{source}.example.org:art/{n:07d}",
            datestamp=datestamp,
            title=f"{title} {n}",
            creators=creators,
            journal=rng.choice(JOURNALS),
            volume=str(rng.randrange(1, 90)),
            issue=str(rng.randrange(1, 7)),
            spage=spage,
            epage=spage + rng.randrange(2, 40),
            year=year,
            date=f"{year}-{month:02d}" if prefix == "oai_dc" else f"{year}-{month:02d}-{rng.randrange(1, 29):02d}",
            url=f"http://{source}.example.org/article/{n}",
            publisher=rng.choice(PUBLISHERS),
        )
        if prefix == "oai_dc":
            art.subjects = [self.msc(self.field(year)) for _ in range(rng.randrange(0, 3))]
            art.doi = f"doi:10.5555/synth.{n}"
        else:
            art.full_text_url = f"http://{source}.example.org/pdf/{n}.pdf"
        return art

    def classify(self, art: Article) -> None:
        """Give the article a lookup-table entry (it will match on enrich)."""
        self.mr_next += self.rng.randrange(1, 50)
        art.mr = (self.mr_next, *self.classification(art.year))

    def revise(self, art: Article, datestamp: str) -> Article:
        """A newer version of the same identifier."""
        new = Article(**{**art.__dict__, "subjects": list(art.subjects), "creators": list(art.creators)})
        new.datestamp = datestamp
        new.title = f"{art.title} (revised)"
        return new


def write_store(path: Path, articles) -> None:
    """Write the articles, already enriched, as a record store in record-id
    order. The lines are written by the program's own ``store_records``, so
    the store format stays the program's."""
    from mathrepo.records import CanonicalRecord, NameParts, RelatedUrl, store_records

    records = [
        CanonicalRecord(
            record_id=a.rid,
            source=a.source,
            oai_identifier=a.ident,
            title=a.title,
            creators=[NameParts(family=f, given=g) for f, g in a.creators],
            publication=a.journal,
            volume=a.volume,
            issue=a.issue,
            pagerange=f"{a.spage}-{a.epage}",
            date=a.date,
            publisher=a.publisher,
            official_url=a.url,
            full_text_url=a.full_text_url,
            msc_primary=a.final_primary(),
            msc_secondary=a.final_secondary(),
            mr_number=a.mr[0] if a.mr else None,
            related_urls=[RelatedUrl(**r) for r in a.related()],
            language="en" if a.prefix == "oai_dc" else "",
        )
        for a in sorted(articles, key=lambda a: a.rid)
    ]
    store_records(records, path)


def write_mr_table(path: Path, articles, rng: random.Random) -> None:
    """Rows for every classified article, a third under a variant journal
    spelling that only normalization bridges, plus unmatched decoy rows."""
    lines = ["# journal\tvolume\tyear\tspage\tmr\tprimary\tsecondary"]
    mr_max = 0
    for art in articles:
        if not art.mr:
            continue
        journal = art.journal
        if rng.random() < 1 / 3:
            journal = journal.upper().replace(".", "")
        mr, primary, secondary = art.mr
        mr_max = max(mr_max, mr)
        lines.append(f"{journal}\t{art.volume}\t{art.year}\t{art.spage}\t{mr}\t{primary}\t{';'.join(secondary)}")
    for i in range(max(1, len(lines) // 10)):  # decoys: start pages no article uses
        journal, volume, year = rng.choice(JOURNALS), rng.randrange(1, 90), rng.randrange(1950, 2010)
        lines.append(f"{journal}\t{volume}\t{year}\t{3 * i + 2}\t{mr_max + 1 + i}\t{rng.choice(FIELDS)}A05\t")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_totals(path: Path, rng: random.Random, counts: dict[str, int]) -> dict[str, int]:
    totals = {top: counts.get(top, 0) + rng.randrange(1000, 40000) for top in FIELDS}
    path.write_text("".join(f"{top}\t{n}\n" for top, n in totals.items()), encoding="utf-8")
    return totals


def primary_counts(records) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in records:
        if rec["msc_primary"]:
            top = rec["msc_primary"][:2]
            counts[top] = counts.get(top, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Endpoint:
    name: str
    prefix: str
    page_size: int
    served: list[Article]
    from_date: str | None = None


@dataclass
class Corpus:
    """Written inputs plus the ground truth the checks use."""

    endpoints: list[Endpoint]
    expected: dict[str, dict]  # record_id -> expected store fields
    rejected: set[str]  # record ids of malformed payloads, never stored
    harvested: int  # unique identifiers the harvest must return
    matched: int
    delta: int = 0
    base_store: Path | None = None
    mr_table: Path | None = None
    totals: dict[str, int] = field(default_factory=dict)
    hits_span: tuple[int, int, int] | None = None  # from, to, window


def _datestamp(rng: random.Random, year: int, month_lo: int = 1, month_hi: int = 12) -> str:
    return f"{year}-{rng.randrange(month_lo, month_hi + 1):02d}-{rng.randrange(1, 29):02d}"


def full_ingest(out: Path, seed: int, n_dc: int, n_junii2: int, page_size: int) -> Corpus:
    """Cold start: two endpoints, about 1% repeats and 1% malformed payloads,
    about half of the records in the lookup table."""
    gen = Generator(seed)
    rng = gen.rng
    endpoints, latest, rejected = [], {}, set()
    harvested = 0
    for name, prefix, count in (("euclid", "oai_dc", n_dc), ("ocha", "junii2", n_junii2)):
        arts = [gen.article(name, prefix, rng.randrange(1960, 2009), _datestamp(rng, 2009, 1, 6)) for _ in range(count)]
        for art in arts:
            if rng.random() < 0.5:
                gen.classify(art)
        n_bad = max(1, count // 100)
        n_rep = max(1, count // 100)
        picks = rng.sample(range(count), n_bad + n_rep)
        for i in picks[:n_bad]:
            arts[i].malformed = True
            arts[i].mr = None
        served = list(arts)
        for i in picks[n_bad:]:  # newer version served on a later page
            newer = gen.revise(arts[i], _datestamp(rng, 2009, 7, 12))
            pos = next(k for k, a in enumerate(served) if a is arts[i])
            served.insert(rng.randrange(min(pos + page_size, len(served)), len(served) + 1), newer)
            arts[i] = newer
        for art in arts:
            if art.malformed:
                rejected.add(art.rid)
            else:
                latest[art.rid] = art
        harvested += count
        endpoints.append(Endpoint(name, prefix, page_size, served))
        fixtures = out / f"fixtures_{name}"
        fixtures.mkdir(parents=True)
        write_envelope(fixtures / "records.xml", served)
    expected = {rid: art.expected() for rid, art in latest.items()}
    table = out / "mr_table.tsv"
    write_mr_table(table, latest.values(), rng)
    totals = write_totals(out / "totals.tsv", rng, primary_counts(expected.values()))
    return Corpus(
        endpoints=endpoints,
        expected=expected,
        rejected=rejected,
        harvested=harvested,
        matched=sum(1 for a in latest.values() if a.mr),
        mr_table=table,
        totals=totals,
        hits_span=(1995, 1997, 10),
    )


def incremental_update(out: Path, seed: int, store_size: int, delta: int, page_size: int) -> Corpus:
    """A stored corpus plus a delta harvested with ``from``: two thirds new
    records, one third newer versions of stored ones. Each endpoint also
    serves older records that the ``from`` date must filter out."""
    gen = Generator(seed)
    rng = gen.rng
    from_date = "2009-06-01"
    stored: dict[str, Article] = {}
    endpoints = []
    for name, prefix, share in (("euclid", "oai_dc", 0.85), ("ocha", "junii2", 0.15)):
        n_store = round(store_size * share)
        n_delta = round(delta * share)
        old = [gen.article(name, prefix, rng.randrange(1960, 2009), _datestamp(rng, 2008)) for _ in range(n_store)]
        for art in old:
            if rng.random() < 0.5:
                gen.classify(art)
            stored[art.rid] = art
        n_upd = n_delta // 3
        fresh = [
            gen.article(name, prefix, rng.randrange(1960, 2010), _datestamp(rng, 2009, 6, 12))
            for _ in range(n_delta - n_upd)
        ]
        for art in fresh:
            if rng.random() < 0.5:
                gen.classify(art)
        updates = [gen.revise(art, _datestamp(rng, 2009, 6, 12)) for art in rng.sample(old, n_upd)]
        stale = rng.sample(old, min(len(old), 2 * n_delta))
        served = sorted(stale + fresh + updates, key=lambda a: a.ident)
        endpoints.append(Endpoint(name, prefix, page_size, served, from_date=from_date))
        fixtures = out / f"fixtures_{name}"
        fixtures.mkdir(parents=True)
        write_envelope(fixtures / "records.xml", served)
    base = out / "store.jsonl"
    write_store(base, stored.values())
    final = dict(stored)
    n_delta_total = 0
    for ep in endpoints:
        for art in ep.served:
            if art.datestamp >= from_date:
                final[art.rid] = art
                n_delta_total += 1
    expected = {rid: art.expected() for rid, art in final.items()}
    table = out / "mr_table.tsv"
    write_mr_table(table, final.values(), rng)
    return Corpus(
        endpoints=endpoints,
        expected=expected,
        rejected=set(),
        harvested=n_delta_total,
        matched=sum(1 for a in final.values() if a.mr),
        delta=n_delta_total,
        base_store=base,
        mr_table=table,
    )


def field_trends(out: Path, seed: int, store_size: int, window: int = 10) -> Corpus:
    """A classified store over seventy years, more articles in later years,
    with the drifting field landscape above, so window rankings move."""
    gen = Generator(seed)
    rng = gen.rng
    years = list(range(FIRST_YEAR, LAST_YEAR + 1))
    growth = [math.exp((y - FIRST_YEAR) / 30) for y in years]
    articles = []
    for year in rng.choices(years, weights=growth, k=store_size):
        art = gen.article("zbmath", "oai_dc", year, _datestamp(rng, 2008))
        art.subjects = []
        gen.classify(art)
        articles.append(art)
    store = out / "store.jsonl"
    write_store(store, articles)
    expected = {a.rid: a.expected() for a in articles}
    totals = write_totals(out / "totals.tsv", rng, primary_counts(expected.values()))
    return Corpus(
        endpoints=[],
        expected=expected,
        rejected=set(),
        harvested=0,
        matched=0,
        base_store=store,
        totals=totals,
        hits_span=(FIRST_YEAR, LAST_YEAR - window, window),
    )
