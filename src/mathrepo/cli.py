"""Command-line pipeline: harvest -> transform -> enrich -> export -> stats/hits.

Exit codes: 0 success, 1 partial or runtime failure, 2 usage/config error.
Every subcommand is deterministic given fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import analytics
from .enrich import enrich as enrich_records, load_mr_table
from .errors import MathRepoError
from .fixture_server import serve_fixtures
from .oai_client import EndpointConfig, HttpTransport, is_file_name, list_records
from .oai_client import parse_oai_envelope, serialize_envelope
from .records import _is_http_url, canonicalize, load_classifications, load_records, make_record_id, store_records
from .serialize import (
    AggregatedResource,
    Aggregation,
    _is_absolute_uri,
    post_package,
    to_eprints_xml,
    to_mets,
    to_ore_atom,
)

log = logging.getLogger("mathrepo")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2

DEFAULT_CONFIG = "mathrepo.json"


class UsageError(MathRepoError):
    """Bad invocation or settings file: missing arguments, empty selections, bad keys or values."""


@dataclass
class PipelineConfig:
    """The settings file: each field is one of its keys and holds that key's default.
    A path set to "" is not configured."""

    endpoints: list[EndpointConfig] = field(default_factory=list)
    store: str = "records.jsonl"
    spool_dir: str = "spool"
    mr_table: str = ""
    totals: str = ""
    output_dir: str = "out"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathrepo",
        description="Aggregate subject-repository metadata and compute field statistics.",
    )
    parser.add_argument("--config", default=DEFAULT_CONFIG, help="pipeline config file (JSON)")
    parser.add_argument("--store", default=None, help="override the record store path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="fetch records from configured endpoints into the spool")
    p.add_argument("--endpoint", action="append", default=None, help="restrict to named endpoints")
    p.add_argument("--delay", type=float, default=0.0, help="seconds between page fetches")
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("transform", help="parse spooled envelopes into the canonical store")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("enrich", help="attach review ids and classifications from the lookup table")
    p.add_argument("--mr-table", default=None, help="override the lookup table path")
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("export", help="serialize stored records")
    p.add_argument("--format", required=True, choices=("eprints", "ore", "mets"))
    p.add_argument("--name", default="records", help="aggregation name for ORE output")
    p.add_argument(
        "--resource-map-uri",
        default=None,
        help="ORE resource map URI (default: http://example.org/ore/<name>)",
    )
    p.add_argument(
        "--deposit-url",
        default=None,
        help="POST each METS package to this URL after writing it (--format mets only)",
    )
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("stats", help="emit the field-share table")
    p.add_argument("--totals", default=None, help="world totals file (tab-separated msc2, count)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("hits", help="sliding-window hub/authority series")
    p.add_argument("--from", dest="from_year", type=int, required=True)
    p.add_argument("--to", dest="to_year", type=int, required=True)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--nodes", default=None, help="comma-separated node subset for SVG charts")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument(
        "--convention",
        default="source_authority",
        choices=analytics.CONVENTIONS,
        help="score assignment (default keeps authority on edge sources)",
    )
    p.set_defaults(func=cmd_hits)

    p = sub.add_parser("serve-fixtures", help="run a local OAI-PMH endpoint over fixture files")
    p.add_argument("--dir", required=True, help="directory of record XML files")
    p.add_argument("--page-size", type=int, default=100)
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=cmd_serve_fixtures)
    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    """Read the settings file, then let --store, --mr-table and --totals replace its paths.

    Only the default file may be missing, which leaves every setting at its default.
    """
    config = PipelineConfig()
    if args.config != DEFAULT_CONFIG or Path(args.config).exists():
        try:
            config = PipelineConfig(**json.loads(Path(args.config).read_text(encoding="utf-8")))
            for key, value in vars(config).items():
                kind = list if key == "endpoints" else str
                if not isinstance(value, kind):
                    raise TypeError(f"{key} must be a {kind.__name__}, not {value!r}")
            config.endpoints = [EndpointConfig(**entry) for entry in config.endpoints]
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        except (TypeError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
            raise UsageError(f"config {args.config}: {exc}") from exc
    for key in ("store", "mr_table", "totals"):  # the flags named after the settings
        setattr(config, key, getattr(args, key, None) or getattr(config, key))
    for key, value in vars(config).items():
        if key != "endpoints" and "\0" in value:  # open() would raise ValueError on it
            raise UsageError(f"config {args.config}: {key} must not hold a NUL: {value!r}")
    return config


def _write_store(records, config: PipelineConfig) -> int:
    # Sorted by record_id so reruns produce byte-identical stores.
    ordered = sorted(records, key=lambda rec: rec.record_id)
    Path(config.store).parent.mkdir(parents=True, exist_ok=True)
    return store_records(ordered, config.store)


def cmd_harvest(args, config: PipelineConfig) -> int:
    endpoints = config.endpoints
    if args.endpoint:
        endpoints = [e for e in endpoints if e.name in set(args.endpoint)]
    if not endpoints:
        raise UsageError("no endpoints selected; check --endpoint names and the config")
    spool = Path(config.spool_dir)
    spool.mkdir(parents=True, exist_ok=True)
    failures = 0
    for endpoint in endpoints:
        transport = HttpTransport(delay=args.delay)
        # write beside the spool file and swap it in, so a failed write keeps the old one
        tmp_path = spool / f"{endpoint.name}.xml.tmp"
        try:
            records = list_records(endpoint, transport)
            tmp_path.write_text(serialize_envelope(records), encoding="utf-8")
            os.replace(tmp_path, spool / f"{endpoint.name}.xml")
        except (MathRepoError, OSError, UnicodeError) as exc:
            tmp_path.unlink(missing_ok=True)
            failures += 1
            log.error("endpoint %s failed: %s", endpoint.name, exc)
            print(f"{endpoint.name}: FAILED ({exc})")
            continue
        print(f"{endpoint.name}: {len(records)} records, 0 errors")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_transform(args, config: PipelineConfig) -> int:
    spool = Path(config.spool_dir)
    envelopes = sorted(spool.glob("*.xml")) if spool.is_dir() else []
    if not envelopes:
        log.error("spool directory %s has no envelopes; run harvest first", spool)
        return EXIT_PARTIAL
    # the one stage that may run without a store: its first run creates it
    merged = {rec.record_id: rec for rec in load_records(config.store)} if Path(config.store).exists() else {}
    parsed = failed = 0
    for envelope_path in envelopes:
        source = envelope_path.stem
        for oai_rec in parse_oai_envelope(envelope_path.read_bytes()):
            if oai_rec.deleted:
                merged.pop(make_record_id(source, oai_rec.identifier), None)
                continue
            try:
                rec = canonicalize(oai_rec.payload, source, oai_rec.identifier)
            except MathRepoError as exc:
                failed += 1
                log.warning("cannot canonicalize %s: %s", oai_rec.identifier, exc)
                continue
            merged[rec.record_id] = rec
            parsed += 1
    count = _write_store(merged.values(), config)
    print(f"transform: {parsed} parsed, {failed} failed, store has {count} records")
    return EXIT_OK


def cmd_enrich(args, config: PipelineConfig) -> int:
    if not config.mr_table:
        raise UsageError("no lookup table configured; pass --mr-table or set mr_table in the config")
    table = load_mr_table(config.mr_table)
    records = load_records(config.store)
    enriched, report = enrich_records(records, table)
    _write_store(enriched, config)
    print(f"enrich: {report.summary()}")
    return EXIT_OK


def cmd_export(args, config: PipelineConfig) -> int:
    if not is_file_name(args.name):  # it names the ORE file in the output directory
        raise UsageError(f"--name must be a file name: {args.name!r}")
    if args.deposit_url and args.format != "mets":
        raise UsageError(f"--deposit-url needs --format mets, not {args.format!r}")
    if args.deposit_url and not _is_http_url(args.deposit_url):
        raise UsageError(f"--deposit-url must be an absolute http(s) URL: {args.deposit_url!r}")
    uri = args.resource_map_uri or f"http://example.org/ore/{args.name}"
    if not _is_absolute_uri(uri):
        raise UsageError(f"--resource-map-uri must be an absolute URI: {uri!r}")
    records = sorted(load_records(config.store), key=lambda rec: rec.record_id)
    if not records:
        log.warning("store is empty; nothing to export")
        print("export: 0 documents")
        return EXIT_OK
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.format != "ore":
        # resolved here, not in a module-level table, so a name patched in this module takes effect
        render = to_eprints_xml if args.format == "eprints" else to_mets
        for rec in records:
            document = render(rec)
            (out / f"{rec.record_id}.{args.format}.xml").write_text(document, encoding="utf-8")
            if args.deposit_url:
                post_package(document, args.deposit_url)
        suffix = f", {len(records)} deposited" if args.deposit_url else ""
        print(f"export: {len(records)} documents{suffix}")
    else:
        # timestamps derive from record dates so reruns stay byte-identical
        dates = sorted(rec.date for rec in records if rec.date)

        def stamp(value: str) -> str:
            return f"{value}T00:00:00Z" if len(value) == 10 else "1970-01-01T00:00:00Z"

        agg = Aggregation(
            resource_map_uri=uri,
            aggregated=tuple(
                AggregatedResource(href=rec.official_url, title=rec.title) for rec in records
            ),
            created=stamp(dates[0]) if dates else "1970-01-01T00:00:00Z",
            modified=stamp(dates[-1]) if dates else "1970-01-01T00:00:00Z",
        )
        (out / f"{args.name}.ore.atom.xml").write_text(to_ore_atom(agg), encoding="utf-8")
        print(f"export: 1 aggregation of {len(records)} resources")
    return EXIT_OK


def cmd_stats(args, config: PipelineConfig) -> int:
    if not config.totals:
        raise UsageError("no totals file configured; pass --totals or set totals in the config")
    totals = analytics.load_totals(config.totals)
    rows = analytics.field_share_table(load_classifications(config.store), totals)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "field_share.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("msc2,count,total,percent\n")
        for row in rows:
            fh.write(f"{row.msc2},{row.count},{row.total},{row.percent:.2f}\n")
    print(f"{'%':>6}  {'Articles/Total':>16}  MSC Primary")
    for row in rows:
        print(f"{row.percent:6.2f}  ({row.count}/{row.total})  {row.msc2}")
    print(f"stats: {len(rows)} rows, CSV at {csv_path}")
    return EXIT_OK


def cmd_hits(args, config: PipelineConfig) -> int:
    records = load_classifications(config.store)
    if not records:
        log.warning("store is empty; series will carry zero scores")
    try:
        series = analytics.sliding_window_series(
            records,
            start_year=args.from_year,
            end_year=args.to_year,
            window=args.window,
            tol=args.tol,
            max_iter=args.max_iter,
            convention=args.convention,
        )
    except analytics.AnalyticsError as exc:  # each one names a bad flag value
        raise UsageError(f"hits: {exc}") from exc
    for entry in series.entries:
        result = entry.hits
        if not result.converged or result.degenerate:
            log.warning(
                "hits window starting %d is unreliable: converged=%s, degenerate=%s "
                "(%d iterations, residual %.3g)",
                entry.year, result.converged, result.degenerate, result.iterations, result.residual,
            )
    nodes = [n.strip() for n in args.nodes.split(",") if n.strip()] if args.nodes else None
    if not any(entry.nodes for entry in series.entries) and not nodes:
        print("hits: no classified records in the requested windows")
        return EXIT_OK
    paths = analytics.export_series(series, config.output_dir, nodes=nodes)
    print(f"hits: {len(series.entries)} windows, CSV at {paths['csv']}, {len(paths['svg'])} charts")
    return EXIT_OK


def cmd_serve_fixtures(args, config: PipelineConfig) -> int:
    if args.page_size < 1:
        raise UsageError(f"--page-size must be at least 1, not {args.page_size}")
    server = serve_fixtures(args.dir, page_size=args.page_size, port=args.port)
    print(f"serving {len(server.records)} fixture records at {server.base_url}")
    try:
        while True:
            server.wait(1)
    except KeyboardInterrupt:
        server.close()
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_pipeline_config(args)
        return args.func(args, config)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (MathRepoError, OSError) as exc:  # an OSError's message names its path
        log.error("%s", exc)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
