"""Canonical article records and the line-delimited record store."""

from __future__ import annotations

import calendar
import csv
import hashlib
import itertools
import json
import logging
import operator
import os
import pickle
import re
import urllib.parse
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import msc
from .errors import MathRepoError
from .msc import is_msc_code
from .parsers import Citation, DcRecord, Junii2Record, MetadataError, _as_element
from .parsers import parse_citation_string, parse_junii2, parse_oai_dc

log = logging.getLogger(__name__)

_DATE_RE = re.compile(r"\d{4}(?:-(?:0[1-9]|1[0-2])(?:-(?:0[1-9]|[12]\d|3[01]))?)?", re.ASCII)  # YYYY[-MM[-DD]]


class RecordError(MathRepoError):
    """Record cannot be canonicalized or fails an invariant."""


class StoreError(MathRepoError):
    """Record store file unreadable or malformed."""


@dataclass(frozen=True)
class NameParts:
    """Personal name split into family/given; the raw form is kept as
    provenance but does not take part in equality."""

    family: str
    given: str = ""
    raw: str = field(default="", compare=False)

    def __post_init__(self):
        family, given, raw = self.family, self.given, self.raw
        if not (isinstance(family, str) and isinstance(given, str) and isinstance(raw, str)):
            raise RecordError(f"name parts must be strings: {family!r}, {given!r}, {raw!r}")
        if not raw:
            object.__setattr__(self, "raw", self.display())

    def display(self) -> str:
        return f"{self.family}, {self.given}" if self.given else self.family


def split_name(raw: str) -> NameParts:
    """Split "FAMILY, Given" on the first comma; no comma means family only."""
    family, _, given = raw.partition(",")
    return NameParts(family=family.strip(), given=given.strip(), raw=raw)


@dataclass(frozen=True)
class RelatedUrl:
    url: str
    type: str = ""

    def __post_init__(self):
        if not (isinstance(self.url, str) and isinstance(self.type, str)):
            raise RecordError(f"related URL and type must be strings: {self.url!r}, {self.type!r}")


def make_record_id(source: str, oai_identifier: str) -> str:
    """Stable internal id derived from the harvest source and OAI identifier."""
    digest = hashlib.sha256(f"{source}\n{oai_identifier}".encode("utf-8")).hexdigest()
    return digest[:16]


# An ASCII value of this shape gets an http(s) scheme and a non-empty netloc from
# urlsplit, which strips nothing from it and has no brackets to check, so it
# cannot raise; every other value is left to urlsplit.
_PLAIN_HTTP_URL_RE = re.compile(r"https?://[^/?#\[\]\t\r\n][^\[\]\t\r\n]*\Z")


def _is_http_url(value: str) -> bool:
    if value.isascii() and _PLAIN_HTTP_URL_RE.match(value):
        return True
    parsed = urllib.parse.urlsplit(value)
    return parsed.scheme in ("http", "https") and bool(parsed.netloc)


@dataclass
class CanonicalRecord:
    """Normalized article record carrying bibliographic and enrichment fields."""

    record_id: str
    source: str
    oai_identifier: str
    title: str
    creators: list[NameParts] = field(default_factory=list)
    publication: str = ""
    volume: str = ""
    issue: str = ""
    pagerange: str = ""
    date: str = ""
    publisher: str = ""
    official_url: str = ""
    full_text_url: str = ""
    msc_primary: str = ""
    msc_secondary: list[str] = field(default_factory=list)
    mr_number: int | None = None
    related_urls: list[RelatedUrl] = field(default_factory=list)
    refereed: bool = True
    language: str = ""

    def __post_init__(self):
        # the store encoder writes each field as its declared type, so check them all
        try:
            "".join(_str_values(self))  # one pass in C: str.join takes nothing but str
        except TypeError:
            name = next(n for n in _STR_FIELDS if not isinstance(getattr(self, n), str))
            raise RecordError(f"{name} must be a string: {getattr(self, name)!r}") from None
        if not isinstance(self.msc_secondary, list):
            raise RecordError(f"msc_secondary must be a list: {self.msc_secondary!r}")
        if not isinstance(self.refereed, bool):
            raise RecordError(f"refereed must be true or false: {self.refereed!r}")
        mr = self.mr_number
        if mr is not None:
            if isinstance(mr, bool) or not isinstance(mr, int):
                raise RecordError(f"mr_number must be an integer or null: {mr!r}")
            if mr <= 0:
                raise RecordError(f"mr_number must be positive: {mr}")
        if self.record_id != make_record_id(self.source, self.oai_identifier):
            raise RecordError(
                f"record_id {self.record_id!r} does not derive from "
                f"({self.source!r}, {self.oai_identifier!r})"
            )
        if not self.title:
            raise RecordError("canonical record requires a title")
        if not _is_http_url(self.official_url):
            raise RecordError(f"official_url must be an absolute URL: {self.official_url!r}")
        if self.date and _clean_date(self.date) != self.date:
            raise RecordError(f"date must be a calendar date YYYY[-MM[-DD]]: {self.date!r}")
        # msc_primary is "" (unclassified) or a code; every msc_secondary entry is a code
        for code in [self.msc_primary, *self.msc_secondary] if self.msc_primary else self.msc_secondary:
            if not isinstance(code, str) or not is_msc_code(code):
                raise RecordError(f"invalid MSC code on record: {code!r}")

    @property
    def year(self) -> int | None:
        return int(self.date[:4]) if self.date else None


_STR_FIELDS = tuple(f.name for f in fields(CanonicalRecord) if f.type == "str")
_str_values = operator.attrgetter(*_STR_FIELDS)


def _clean_date(value: str) -> str:
    """The longest leading ``YYYY[-MM[-DD]]`` of ``value`` that names a real calendar date; "" if none."""
    match = _DATE_RE.match(value.strip())
    date = match.group() if match else ""
    day = date[8:]  # "" when there is no day
    if day > "28" and int(day) > calendar.monthrange(int(date[:4]), int(date[5:7]))[1]:
        return date[:7]  # such as 2009-02-30: the pattern caps a day at 31, not at its month's end
    return date


def _pagerange(spage, epage) -> str:
    if spage is None or spage == "":
        return ""
    if epage is None or epage == "":
        return str(spage)
    return f"{spage}-{epage}"


def canonical_from_dc(rec: DcRecord, source: str, oai_identifier: str) -> CanonicalRecord:
    """Canonicalize an oai_dc record.

    The first URL identifier becomes official_url, "doi:" identifiers go to
    related_urls, and the first remaining identifier is treated as the
    citation string carrying journal/volume/issue/pages/year.
    """
    official = ""
    related: list[RelatedUrl] = []
    citation: Citation | None = None
    for ident in rec.identifiers:
        if _is_http_url(ident):
            if not official:
                official = ident
            else:
                related.append(RelatedUrl(url=ident, type="url"))
        elif ident.lower().startswith("doi:"):
            related.append(RelatedUrl(url=ident, type="doi"))
        elif citation is None:
            citation = parse_citation_string(ident)
    if not official:
        raise RecordError(f"no URL identifier found for {oai_identifier!r}")

    date = _clean_date(rec.date)
    if not date and citation is not None and citation.year is not None:
        date = str(citation.year)
    return CanonicalRecord(
        record_id=make_record_id(source, oai_identifier),
        source=source,
        oai_identifier=oai_identifier,
        title=rec.title,
        creators=[split_name(name) for name in rec.creators],
        publication=citation.journal_title if citation else "",
        volume=citation.volume if citation else "",
        issue=citation.issue if citation else "",
        pagerange=_pagerange(citation.spage, citation.epage) if citation else "",
        date=date,
        publisher=rec.publisher,
        official_url=official,
        msc_secondary=[code for code in rec.subjects if is_msc_code(code)],
        related_urls=related,
        language=rec.language,
    )


def canonical_from_junii2(rec: Junii2Record, source: str, oai_identifier: str) -> CanonicalRecord:
    """Canonicalize a junii2 record; the element-per-field layout maps 1:1."""
    return CanonicalRecord(
        record_id=make_record_id(source, oai_identifier),
        source=source,
        oai_identifier=oai_identifier,
        title=rec.title,
        creators=[split_name(name) for name in rec.creators],
        publication=rec.jtitle,
        volume=rec.volume,
        issue=rec.issue,
        pagerange=_pagerange(rec.spage, rec.epage),
        date=_clean_date(rec.date_of_issued),
        publisher=rec.publisher,
        official_url=rec.uri,
        full_text_url=rec.full_text_url,
    )


def canonicalize(payload, source: str, oai_identifier: str) -> CanonicalRecord:
    """Canonicalize a metadata payload in the dialect its root element's namespace names.

    An ``oai_dc`` or ``junii2`` root goes to that dialect's parser; any other root is a
    ``MetadataError``. The parsers are looked up by their module-global names on each call,
    so a wrapper patched over those names sees every call.
    """
    root = _as_element(payload)
    if root.tag.startswith("{http://www.openarchives.org/OAI/2.0/oai_dc/}"):
        return canonical_from_dc(parse_oai_dc(root), source, oai_identifier)
    if root.tag.startswith("{http://ju.nii.ac.jp/junii2}"):
        return canonical_from_junii2(parse_junii2(root), source, oai_identifier)
    raise MetadataError(f"payload root {root.tag!r} is neither oai_dc nor junii2")


_q = encode_basestring  # quotes and escapes a str as json.dumps(..., ensure_ascii=False) does


def _name_json(name: NameParts) -> str:
    return f'{{"family": {_q(name.family)}, "given": {_q(name.given)}, "raw": {_q(name.raw)}}}'


def _url_json(url: RelatedUrl) -> str:
    return f'{{"url": {_q(url.url)}, "type": {_q(url.type)}}}'


def _to_line(rec: CanonicalRecord) -> str:
    """One store line: the fields in dataclass order, the same text as
    ``json.dumps(dataclasses.asdict(rec), ensure_ascii=False)``. That holds
    because ``CanonicalRecord`` checks that every field has its declared type."""
    if type(rec.msc_secondary) is not list or type(rec.refereed) is not bool:
        raise TypeError(f"msc_secondary or refereed retyped: {rec.msc_secondary!r}, {rec.refereed!r}")
    mr = "null" if rec.mr_number is None else int.__repr__(rec.mr_number)
    return (
        f'{{"record_id": {_q(rec.record_id)}, "source": {_q(rec.source)}, '
        f'"oai_identifier": {_q(rec.oai_identifier)}, "title": {_q(rec.title)}, '
        f'"creators": [{", ".join(map(_name_json, rec.creators))}], '
        f'"publication": {_q(rec.publication)}, "volume": {_q(rec.volume)}, '
        f'"issue": {_q(rec.issue)}, "pagerange": {_q(rec.pagerange)}, "date": {_q(rec.date)}, '
        f'"publisher": {_q(rec.publisher)}, "official_url": {_q(rec.official_url)}, '
        f'"full_text_url": {_q(rec.full_text_url)}, "msc_primary": {_q(rec.msc_primary)}, '
        f'"msc_secondary": [{", ".join(map(_q, rec.msc_secondary))}], "mr_number": {mr}, '
        f'"related_urls": [{", ".join(map(_url_json, rec.related_urls))}], '
        f'"refereed": {"true" if rec.refereed else "false"}, "language": {_q(rec.language)}}}'
    )


def _json_list(data: dict, key: str) -> list:
    value = data.get(key, [])
    if type(value) is not list:
        raise RecordError(f"{key} must be a list: {value!r}")
    return value


def _from_json(data: dict) -> CanonicalRecord:
    get = data.get
    return CanonicalRecord(  # by position, in field order
        data["record_id"],
        data["source"],
        data["oai_identifier"],
        data["title"],
        [NameParts(n["family"], n.get("given", ""), n.get("raw", "")) for n in _json_list(data, "creators")],
        get("publication", ""),
        get("volume", ""),
        get("issue", ""),
        get("pagerange", ""),
        get("date", ""),
        get("publisher", ""),
        get("official_url", ""),
        get("full_text_url", ""),
        get("msc_primary", ""),
        get("msc_secondary", []),
        get("mr_number"),
        [RelatedUrl(r["url"], r.get("type", "")) for r in _json_list(data, "related_urls")],
        get("refereed", True),
        get("language", ""),
    )


def store_line(rec: CanonicalRecord, path) -> str:
    """``rec``'s line in the store at ``path``; a record that cannot be encoded is a
    ``StoreError`` for a failed write of that store."""
    try:
        return _to_line(rec)
    except (OSError, TypeError, AttributeError) as exc:  # last two: a retyped field
        raise StoreError(f"cannot write store {path}: {exc}") from exc


def replace_file(path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` as UTF-8 to ``<path>.tmp``, which then replaces ``path``, so a failed
    or killed write leaves the old file whole (no fsync: not a power cut); the tmp file is
    gone afterwards whether or not the write failed."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once it has replaced the file


def store_lines(lines: Iterable[str], path) -> None:
    """Write store lines to ``path`` through ``replace_file``; a failed write is a
    ``StoreError``, and so is one of ``lines`` that could not be encoded."""
    try:
        replace_file(path, (line + "\n" for line in lines))
    except (OSError, UnicodeError) as exc:
        raise StoreError(f"cannot write store {path}: {exc}") from exc


def store_records(records: Iterable[CanonicalRecord], path) -> int:
    """Write records to a UTF-8 JSON-lines store, as ``store_lines`` does; returns the count written."""
    records = list(records)
    store_lines((store_line(rec, path) for rec in records), path)
    return len(records)


def _split_lines(path, data: bytes) -> list[str]:
    """The lines of the store ``path`` whose bytes are ``data``, without their ends, as file
    iteration (``newline=None``) splits them; bytes that are not UTF-8 are a ``StoreError``
    naming the file."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StoreError(f"{path}: not UTF-8: {exc}") from exc
    if "\r" in text:  # universal newlines: "\r\n" and "\r" each end a line
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


class Classification(NamedTuple):
    """The values of a record that ``stats`` and ``hits`` read, each read off the record by
    its field name; a ``CanonicalRecord`` has the same attributes and serves in its place."""

    msc_primary: str
    msc_secondary: list[str]
    year: int | None


# the fewest store lines worth a decoder process of their own
_LINES_PER_PROCESS = 2000


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _mapped(path, lines: list[str], first_lineno: int, project) -> list:
    """``(record_id, project(rec))`` of each record on ``lines``, the first of them numbered
    ``first_lineno``, skipping blank lines. A malformed line is a ``StoreError`` naming the file
    and line number."""
    rows = []
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line:
            continue
        try:
            rec = _from_json(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecordError) as exc:
            raise StoreError(f"{path}:{lineno}: {exc}") from exc
        rows.append((rec.record_id, project(rec)))
    return rows


def _fork_mapper(path, lines: list[str], first_lineno: int, project) -> tuple[int, int]:
    """Start a child that sends down a pipe the pickled rows of ``lines``, or the exception
    that projecting them raised; returns its pid and the read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:  # never return into the caller's stack, nor flush buffers inherited from it
            os.close(read_fd)
            try:
                reply = _mapped(path, lines, first_lineno, project)
            except Exception as exc:
                reply = exc
            data = pickle.dumps(reply)  # an unpicklable reply ends the child without one
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _reply(pid: int, read_fd: int) -> bytes:
    """What the child sent, once it has ended; b"" if it sent nothing or did not end cleanly."""
    data = b""
    try:  # an unreadable pipe must not keep the caller from reaping this child and the rest
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    except OSError:
        pass
    return data if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 else b""


def map_store(path, project: Callable[[CanonicalRecord], object]) -> dict:
    """``{record_id: project(rec)}`` of each record in a store, later lines winning. A malformed
    line is a ``StoreError`` naming the file and line number; bytes not UTF-8, one naming the file.

    The lines are split into one chunk per CPU, each of at least ``_LINES_PER_PROCESS``
    lines; this process projects the first chunk and a forked child each of the others,
    so only ``(record_id, value)`` rows, whose values must pickle, cross between processes.
    A chunk fails alike in either process: the first exception in line order is raised
    once every child is reaped.
    """
    return _map_lines(path, _split_lines(path, Path(path).read_bytes()), project)


def _map_lines(path, lines: list[str], project) -> dict:
    """``map_store`` of the store ``path`` whose lines are ``lines``."""
    chunks = max(1, min(_cpu_count(), len(lines) // _LINES_PER_PROCESS)) if hasattr(os, "fork") else 1
    bounds = [len(lines) * i // chunks for i in range(chunks + 1)]
    children = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            children.append(_fork_mapper(path, lines[start:stop], start + 1, project))
        rows = _mapped(path, lines[:bounds[1]], 1, project)
    finally:
        replies = [_reply(pid, read_fd) for pid, read_fd in children]
    for reply in replies:  # in line order, so the first failure is the one raised
        try:
            value = pickle.loads(reply)
        except Exception:  # b"", or a value that cannot be rebuilt: nothing readable came back
            raise StoreError(f"{path}: a decoder process ended without a result") from None
        if isinstance(value, Exception):
            raise value
        rows += value
    return dict(rows)


def load_records(path) -> list[CanonicalRecord]:
    """Load a record store, deduplicating by record_id (later lines win), as ``map_store`` reads it."""
    return list(map_store(path, lambda rec: rec).values())


# the source of the code that decodes and checks a store line and defines Classification, hashed
_DECODER_SHA256 = hashlib.sha256(b"".join(Path(module).read_bytes() for module in (__file__, msc.__file__)))


def _cached(rows) -> list[Classification]:
    """The sidecar's rows as ``Classification``s; a ``ValueError`` or ``TypeError`` unless ``rows``
    is a list of ``[str, [str, ...], int or null]``. Each check takes a whole column in C."""
    if type(rows) is list and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}:
        primary, secondary, year = list(zip(*rows)) or ((), (), ())
        if set(map(type, primary)) <= {str} and set(map(type, secondary)) <= {list} \
                and set(map(type, itertools.chain.from_iterable(secondary))) <= {str} \
                and set(map(type, year)) <= {int, type(None)}:
            return list(map(tuple.__new__, itertools.repeat(Classification), rows))  # _make, in C
    raise ValueError("not classification rows")


def load_classifications(path) -> list[Classification]:
    """The ``Classification`` of each record in a store, read as ``map_store`` reads it.

    The rows are kept as JSON in ``<path>.classifications``, after a line holding their key:
    the sha256 of the decoder's source, the store's bytes and the rows' JSON bytes. So a store
    read again unchanged is not decoded again, and rows changed in any byte are not served.
    A sidecar that cannot be read, is not such a file or has another key is ignored, and one
    that cannot be written is left out: the sidecar never fails a read nor changes what it returns.
    """
    data = Path(path).read_bytes()  # the one read, both hashed and decoded
    digest = _DECODER_SHA256.copy()
    digest.update(data)
    sidecar = Path(f"{path}.classifications")
    try:
        key, _, text = sidecar.read_bytes().partition(b"\n")
        keyed = digest.copy()
        keyed.update(text)
        if key == keyed.hexdigest().encode():
            return _cached(json.loads(text))
    except (OSError, ValueError, TypeError, RecursionError):  # a missing or damaged sidecar
        pass
    project = operator.attrgetter(*Classification._fields)  # plain tuples pickle faster
    rows = list(_map_lines(path, _split_lines(path, data), project).values())
    text = json.dumps(rows)
    digest.update(text.encode())
    try:
        replace_file(sidecar, [digest.hexdigest(), "\n", text])
    except OSError as exc:
        log.debug("classifications not kept: %s", exc)
    return list(map(Classification._make, rows))


def read_table(path, width: int, error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, stripped cells)`` per row of a UTF-8 tab-separated table, skipping empty and "#" rows."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
                if not row or row[0].startswith("#"):
                    continue
                if len(row) != width:
                    raise error(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
                yield lineno, [cell.strip() for cell in row]
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc
