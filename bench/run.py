"""Pipeline benchmark: seeded corpus, real CLI stages, output checks.

Usage, from the repository root:

    python3 bench/run.py --workload full_ingest --seed 1 --seconds 25 --trace 0

Set-up generates the workload's corpus from ``--seed``, pre-builds the
store the workload starts from, and starts one fixture endpoint process per
harvested endpoint; it runs several times and reports the median. A worker
process then runs the workload's stages through ``mathrepo.cli.main`` in
passes for ``--seconds`` of wall time. Afterwards the outputs are checked
against the corpus's ground truth.

The host's speed drifts by a quarter or more over seconds to minutes, so
the fixed work in ``reference.py`` is timed next to every pass and every
set-up, and pass times and corpus generation times are scaled to a nominal
host on which that work takes ``reference.REFERENCE_S``. ``records_per_s`` and
``setup_s`` are reported at that nominal speed; ``result.json`` also keeps
the raw wall times and the raw throughput.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` passes alternate untraced and
traced, and the metrics are the per-layer ones from the traced passes plus
the tracing overhead. ``--scale tiny`` shrinks every workload for the
self-check (``bench/selfcheck.py``). Working files go to
``.bench_runs/<workload>/``; its ``result.json`` keeps the per-pass times,
the reference times and a digest of every output of the first pass, and
``spans.jsonl`` the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402

SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
FULL_STAGES = ("harvest", "transform", "enrich", "export_eprints", "export_mets", "export_ore", "stats", "hits")

# Sizes: each pass takes one to three seconds on a 2-core host, so a run
# holds ten or more passes and spans many of the host's speed phases.
WORKLOADS = {
    "full_ingest": {
        "build": corpus.full_ingest,
        "size": {
            "full": {"n_dc": 1000, "n_junii2": 200, "page_size": 200},
            "tiny": {"n_dc": 60, "n_junii2": 15, "page_size": 20},
        },
        "stages": FULL_STAGES,
    },
    "incremental_update": {
        "build": corpus.incremental_update,
        "size": {
            "full": {"store_size": 10000, "delta": 300, "page_size": 40},
            "tiny": {"store_size": 200, "delta": 30, "page_size": 8},
        },
        "stages": ("harvest", "transform", "enrich"),
    },
    "field_trends": {
        "build": corpus.field_trends,
        "size": {"full": {"store_size": 10000}, "tiny": {"store_size": 300}},
        "stages": ("stats", "hits"),
    },
}

STAGE_ARGV = {
    "harvest": ["harvest"],
    "transform": ["transform"],
    "enrich": ["enrich"],
    "export_eprints": ["export", "--format", "eprints"],
    "export_mets": ["export", "--format", "mets"],
    "export_ore": ["export", "--format", "ore"],
    "stats": ["stats"],
}

# per-layer metric -> (unit, how it is read from one traced pass)
LAYER_METRICS = {
    "oai_client.envelope_parse_s": ("s", "self:oai_client.envelope_parse"),
    "oai_client.list_records_self_s": ("s", "self:oai_client.list_records"),
    "oai_client.http_wait_s": ("s", "self:oai_client.http_get"),
    "oai_client.http_wait_server_s": ("s", "server_s"),
    "oai_client.pages": ("count", "calls:oai_client.http_get"),
    "oai_client.bytes_in": ("bytes", "count:oai_client.bytes_in"),
    "oai_client.spool_serialize_s": ("s", "self:oai_client.spool_serialize"),
    "parsers.oai_dc_s": ("s", "self:parsers.oai_dc"),
    "parsers.junii2_s": ("s", "self:parsers.junii2"),
    "parsers.citation_s": ("s", "self:parsers.citation"),
    "parsers.payloads": ("count", "payloads"),
    "parsers.rejected": ("count", "rejected"),
    "records.canonicalize_s": ("s", "self:records.canonicalize"),
    "records.load_s": ("s", "self:records.load"),
    "records.load_calls": ("count", "calls:records.load"),
    "records.records_loaded": ("count", "count:records.records_loaded"),
    "records.reread_factor": ("ratio", "reread"),
    "records.store_s": ("s", "self:records.store"),
    "records.records_written": ("count", "count:records.records_written"),
    "enrich.table_load_s": ("s", "self:enrich.table_load"),
    "enrich.match_s": ("s", "self:enrich.match"),
    "enrich.match_ratio": ("ratio", "match_ratio"),
    "serialize.eprints_s": ("s", "self:serialize.eprints"),
    "serialize.mets_s": ("s", "self:serialize.mets"),
    "serialize.ore_s": ("s", "self:serialize.ore"),
    "serialize.bytes_out": ("bytes", "count:serialize.bytes_out"),
    "analytics.graph_build_s": ("s", "self:analytics.graph_build"),
    "analytics.graph_build_calls": ("count", "calls:analytics.graph_build"),
    "analytics.records_scanned": ("count", "count:analytics.records_scanned"),
    "analytics.hits_s": ("s", "self:analytics.hits"),
    "analytics.hits_iterations": ("count", "count:analytics.hits_iterations"),
    "analytics.hits_converged_ratio": ("ratio", "converged_ratio"),
    "analytics.degenerate_windows": ("count", "count:analytics.degenerate_windows"),
    "analytics.series_self_s": ("s", "self:analytics.series"),
    "analytics.export_series_s": ("s", "self:analytics.export_series"),
    "analytics.field_share_s": ("s", "self:analytics.field_share"),
}
for _stage in FULL_STAGES:
    LAYER_METRICS[f"cli.{_stage}_s"] = ("s", f"stage:{_stage}")
    LAYER_METRICS[f"cli.{_stage}_self_s"] = ("s", f"self:cli.{_stage}")
LAYER_METRICS["trace.overhead_s"] = ("s", None)
LAYER_METRICS["trace.overhead_ratio"] = ("ratio", None)
LAYER_METRICS["host.probe_s"] = ("s", None)


def start_servers(endpoints, setup_dir: Path) -> list[tuple[subprocess.Popen, str]]:
    procs = [
        subprocess.Popen(
            [sys.executable, "-u", str(BENCH / "fixture_proc.py"), str(ROOT),
             "--dir", str(setup_dir / f"fixtures_{ep.name}"), "--page-size", str(ep.page_size)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        for ep in endpoints
    ]
    servers = []
    try:
        for proc in procs:
            line = proc.stdout.readline()
            if not line.startswith("serving "):
                raise RuntimeError(f"fixture server did not start: {line!r}")
            servers.append((proc, line.split(" at ")[1].strip()))
    except BaseException:
        stop_servers([(p, "") for p in procs])
        raise
    return servers


def stop_servers(servers) -> None:
    for proc, _ in servers:
        if proc.poll() is None:
            proc.terminate()
    for proc, _ in servers:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def setup(spec: dict, scale: str, seed: int, setup_dir: Path):
    """Generate the corpus (the store included) and start its endpoints.

    Returns the seconds each of the two steps took, the corpus and the servers.
    """
    start = perf_counter()
    setup_dir.mkdir(parents=True)
    data = spec["build"](setup_dir, seed, **spec["size"][scale])
    generated = perf_counter()
    servers = start_servers(data.endpoints, setup_dir)
    return (generated - start, perf_counter() - generated), data, servers


def make_job(workload: str, spec: dict, data, servers, run_dir: Path, setup_dir: Path,
             seconds: int, trace: bool) -> dict:
    endpoints = [
        {"name": ep.name, "base_url": url, "metadata_prefix": ep.prefix, "from_date": ep.from_date}
        for ep, (_, url) in zip(data.endpoints, servers)
    ]
    stages = []
    for stage in spec["stages"]:
        if stage == "hits":
            first, last, window = data.hits_span
            argv = ["hits", "--from", str(first), "--to", str(last), "--window", str(window)]
        else:
            argv = STAGE_ARGV[stage]
        stages.append((stage, argv))
    reads_base = workload == "field_trends"  # stats and hits only read the store
    return {
        "root": str(ROOT),
        "work": str(run_dir / "passes"),
        "result": str(run_dir / "worker.json"),
        "spans": str(run_dir / "spans.jsonl"),
        "seconds": seconds,
        "trace": trace,
        "min_passes": 4 if trace else 2,
        "servers": [url for _, url in servers],
        "copy_store": str(data.base_store) if data.base_store and not reads_base else None,
        "stages": stages,
        "config": {
            "store": str(data.base_store) if reads_base else "@PASS@/records.jsonl",
            "spool_dir": "@PASS@/spool",
            "mr_table": str(data.mr_table or ""),
            "totals": str(setup_dir / "totals.tsv") if data.totals else "",
            "output_dir": "@PASS@/out",
            "endpoints": endpoints,
        },
    }


def pass_value(source: str, record: dict, data) -> float:
    counts = record["counts"]
    kind, _, name = source.partition(":")
    if kind == "self":
        return counts.get(f"{name}.self_s", 0.0)
    if kind == "calls":
        return counts.get(f"{name}.calls", 0.0)
    if kind == "count":
        return counts.get(name, 0.0)
    if kind == "stage":
        return record["stage_s"].get(name, 0.0)
    if source == "server_s":
        return record["server_s"]
    if source == "payloads":
        return counts.get("parsers.oai_dc.calls", 0.0) + counts.get("parsers.junii2.calls", 0.0)
    if source == "rejected":
        return counts.get("parsers.oai_dc.raised", 0.0) + counts.get("parsers.junii2.raised", 0.0)
    if source == "reread":
        return counts.get("records.records_loaded", 0.0) / len(data.expected)
    if source == "match_ratio":
        attempted = counts.get("enrich.attempted", 0.0)
        return counts.get("enrich.matched", 0.0) / attempted if attempted else 0.0
    if source == "converged_ratio":
        calls = counts.get("analytics.hits.calls", 0.0)
        return counts.get("analytics.hits_converged", 0.0) / calls if calls else 0.0
    raise KeyError(source)


def nominal(seconds: float, ref_s: float) -> float:
    """Measured seconds scaled to the nominal host of ``reference.py``."""
    return seconds * reference.REFERENCE_S / ref_s


def layer_metrics(passes: list[dict], data) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, (unit, source) in LAYER_METRICS.items():
        if source is not None:
            metrics[name] = {"value": statistics.median(pass_value(source, p, data) for p in traced), "unit": unit}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": (traced_wall - plain_wall) / plain_wall, "unit": "ratio"}
    metrics["host.probe_s"] = {"value": statistics.median(p["ref_s"] for p in passes), "unit": "s"}
    return metrics


def processed(workload: str, data) -> int:
    """Records one pass completes: harvested, delta, or stored records."""
    if workload == "full_ingest":
        return data.harvested
    if workload == "incremental_update":
        return data.delta
    return len(data.expected)


def run(args) -> int:
    start = perf_counter()
    spec = WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_times, setup_nominal, servers = [], [], []
    try:
        ref_before = reference.measure()
        for i in range(SETUP_REPEATS):
            stop_servers(servers)
            servers = []
            setup_dir = run_dir / f"setup{i}"
            (generate_s, start_s), data, servers = setup(spec, args.scale, args.seed, setup_dir)
            ref_after = reference.measure()
            setup_times.append(generate_s + start_s)
            # Generation is interpreter-bound and scales with the host's speed;
            # starting the endpoint processes is mostly exec and imports, which
            # the reference does not track, so it is kept as measured.
            setup_nominal.append(nominal(generate_s, (ref_before + ref_after) / 2) + start_s)
            ref_before = ref_after
            if i:
                shutil.rmtree(run_dir / f"setup{i - 1}")
        job = make_job(args.workload, spec, data, servers, run_dir, setup_dir, args.seconds, bool(args.trace))
        job_path = run_dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            stdin=subprocess.DEVNULL, timeout=RUN_LIMIT_S - (perf_counter() - start),
        )
    finally:
        stop_servers(servers)
    if worker.returncode != 0:
        print(f"worker exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    passes = result["passes"]

    tally = checks.Tally()
    degenerate = checks.check_first_pass(tally, data, args.workload, Path(job["work"]) / "pass0", passes[0])
    checks.check_repeats(tally, passes)

    if args.trace:
        metrics = layer_metrics(passes, data)
    else:
        completed = processed(args.workload, data) * len(passes)
        pass_seconds = sum(nominal(p["wall_s"], p["ref_s"]) for p in passes)
        metrics = {
            "records_per_s": {"value": completed / pass_seconds, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_nominal), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
            "ok_ratio": {"value": 1 - tally.failed / tally.attempted, "unit": "ratio"},
        }
    digests = passes[0]["digests"]
    outputs_digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "records_per_pass": processed(args.workload, data), "store_records": len(data.expected),
        "setup_s": setup_times, "setup_nominal_s": setup_nominal, "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes], "pass_ref_s": [p["ref_s"] for p in passes],
        "pass_user_s": [p["user_s"] for p in passes], "pass_sys_s": [p["sys_s"] for p in passes],
        "records_per_wall_s": processed(args.workload, data) * len(passes) / sum(p["wall_s"] for p in passes),
        "pass_traced": [p["traced"] for p in passes],
        "stage_s": [p["stage_s"] for p in passes], "degenerate_windows_skipped": degenerate,
        "problems": tally.problems, "outputs_digest": outputs_digest, "output_digests": digests,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(job["work"])
    shutil.rmtree(setup_dir)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {processed(args.workload, data)} records, "
          f"reference {statistics.median(p['ref_s'] for p in passes):.4f} s, outputs sha256 {outputs_digest}")
    summary = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if not (ROOT / "src" / "mathrepo" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'mathrepo'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
