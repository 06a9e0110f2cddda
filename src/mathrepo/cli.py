"""Command-line pipeline: harvest -> transform -> enrich -> export -> stats/hits.

Exit codes: 0 success, 1 partial or runtime failure, 2 usage/config error.
Every subcommand is deterministic given fixed inputs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import analytics
from .config import ConfigError, PipelineConfig, load_config
from .enrich import enrich as enrich_records, load_mr_table
from .errors import MathRepoError
from .fixture_server import serve_fixtures
from .oai_client import HttpTransport, list_records, parse_oai_envelope, serialize_envelope
from .parsers import parse_junii2, parse_oai_dc
from .records import _is_http_url, canonical_from_dc, canonical_from_junii2
from .records import load_records, make_record_id, store_records
from .serialize import (
    AggregatedResource,
    Aggregation,
    post_package,
    to_eprints_xml,
    to_mets,
    to_ore_atom,
)

log = logging.getLogger("mathrepo")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2


class UsageError(MathRepoError):
    """Bad invocation: missing arguments or empty selections."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathrepo",
        description="Aggregate subject-repository metadata and compute field statistics.",
    )
    parser.add_argument("--config", default="mathrepo.json", help="pipeline config file (JSON)")
    parser.add_argument("--store", default=None, help="override the record store path")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
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
    if Path(args.config).exists():
        config = load_config(args.config)
    else:
        config = PipelineConfig()
    if args.store:
        config.store_path = args.store
    return config


def _load_store(config: PipelineConfig):
    path = Path(config.store_path)
    if not path.exists():
        return []
    return load_records(path)


def _write_store(records, config: PipelineConfig) -> int:
    # Sorted by record_id so reruns produce byte-identical stores.
    ordered = sorted(records, key=lambda rec: rec.record_id)
    Path(config.store_path).parent.mkdir(parents=True, exist_ok=True)
    return store_records(ordered, config.store_path)


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
    prefixes = {e.name: e.metadata_prefix for e in config.endpoints}
    merged = {rec.record_id: rec for rec in _load_store(config)}
    parsed = failed = 0
    for envelope_path in envelopes:
        source = envelope_path.stem
        prefix = prefixes.get(source, "oai_dc")
        for oai_rec in parse_oai_envelope(envelope_path.read_bytes()):
            if oai_rec.deleted:
                merged.pop(make_record_id(source, oai_rec.identifier), None)
                continue
            if oai_rec.payload is None:
                continue
            try:
                if prefix == "junii2":
                    rec = canonical_from_junii2(parse_junii2(oai_rec.payload), source, oai_rec.identifier)
                else:
                    rec = canonical_from_dc(parse_oai_dc(oai_rec.payload), source, oai_rec.identifier)
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
    table_path = args.mr_table or config.mr_table_path
    if not table_path:
        raise UsageError("no lookup table configured; pass --mr-table or set mr_table in the config")
    table = load_mr_table(table_path)
    records = _load_store(config)
    enriched, report = enrich_records(records, table)
    _write_store(enriched, config)
    print(f"enrich: {report.summary()}")
    return EXIT_OK


def cmd_export(args, config: PipelineConfig) -> int:
    if args.deposit_url and args.format != "mets":
        raise UsageError(f"--deposit-url needs --format mets, not {args.format!r}")
    if args.deposit_url and not _is_http_url(args.deposit_url):
        raise UsageError(f"--deposit-url must be an absolute http(s) URL: {args.deposit_url!r}")
    records = sorted(_load_store(config), key=lambda rec: rec.record_id)
    if not records:
        log.warning("store is empty; nothing to export")
        print("export: 0 documents")
        return EXIT_OK
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "eprints":
        for rec in records:
            (out / f"{rec.record_id}.eprints.xml").write_text(to_eprints_xml(rec), encoding="utf-8")
        print(f"export: {len(records)} documents")
    elif args.format == "mets":
        deposited = 0
        for rec in records:
            package = to_mets(rec)
            (out / f"{rec.record_id}.mets.xml").write_text(package, encoding="utf-8")
            if args.deposit_url:
                post_package(package, args.deposit_url)
                deposited += 1
        suffix = f", {deposited} deposited" if args.deposit_url else ""
        print(f"export: {len(records)} documents{suffix}")
    else:
        uri = args.resource_map_uri or f"http://example.org/ore/{args.name}"
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
    totals_path = args.totals or config.totals_path
    if not totals_path:
        raise UsageError("no totals file configured; pass --totals or set totals in the config")
    totals = analytics.load_totals(totals_path)
    rows = analytics.field_share_table(_load_store(config), totals)
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
    records = _load_store(config)
    if not records:
        log.warning("store is empty; series will carry zero scores")
    series = analytics.sliding_window_series(
        records,
        start_year=args.from_year,
        end_year=args.to_year,
        window=args.window,
        tol=args.tol,
        max_iter=args.max_iter,
        convention=args.convention,
    )
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
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_pipeline_config(args)
        return args.func(args, config)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except MathRepoError as exc:
        log.error("%s", exc)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
