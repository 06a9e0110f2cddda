"""Stage runner: the one process whose time and memory the benchmark reports.

Usage: python3 worker.py JOB.json

Runs the job's CLI stages through ``mathrepo.cli.main(argv)`` in passes,
each from a fresh directory, until the timed wall time reaches the job's
``seconds``; the loop counts the time of the host-speed reference
(``reference.py``), which is timed before the first pass and right after
every pass, and each pass keeps the mean of the two next to it. In trace
mode passes alternate untraced and traced, so the tracing overhead is the
difference of the two medians. Writes one JSON result with per-pass
timings, CPU times and reference times, stage exit codes and stdout, a
digest of every output file, and the process's peak resident memory.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import logging
import resource
import shutil
import sys
import traceback
import urllib.request
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import reference  # from this script's directory


def digest_tree(directory: Path) -> dict[str, str]:
    """sha256 of every file below ``directory``, keyed by relative path."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[path.relative_to(directory).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def server_busy(urls: list[str]) -> float:
    """Seconds the fixture servers have spent answering ListRecords so far."""
    total = 0.0
    for url in urls:
        with urllib.request.urlopen(f"{url}?verb=benchStats", timeout=10) as resp:
            total += json.loads(resp.read())["respond_s"]
    return total


def run_pass(cli, job, pass_dir: Path, tracer) -> dict:
    pass_dir.mkdir(parents=True)
    config = {
        key: value.replace("@PASS@", str(pass_dir)) if isinstance(value, str) else value
        for key, value in job["config"].items()
    }
    config_path = pass_dir.parent / f"{pass_dir.name}.config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    if job["copy_store"]:
        shutil.copyfile(job["copy_store"], config["store"])
    gc.collect()
    stages, codes, stdout = {}, {}, {}
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    for name, argv in job["stages"]:
        argv = ["--config", str(config_path), *argv]
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    codes[name] = cli.main(argv)
                else:
                    codes[name] = tracer.call(f"cli.{name}", cli.main, (argv,), {})
        except Exception:  # a crashing stage is a failed outcome, not a crashed run
            codes[name] = -1
            buf.write(traceback.format_exc())
        stages[name] = perf_counter() - t0
        stdout[name] = buf.getvalue()
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    ref_after = reference.measure()
    config_path.unlink()
    return {"wall_s": wall, "user_s": after.ru_utime - before.ru_utime, "sys_s": after.ru_stime - before.ru_stime,
            "ref_after_s": ref_after, "stage_s": stages, "codes": codes, "stdout": stdout,
            "digests": digest_tree(pass_dir)}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import mathrepo.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"mathrepo imported from {cli.__file__}, not from {src}")
    # A handler on the root logger keeps cli.main's basicConfig from writing
    # one warning line per rejected record to the terminal.
    logging.getLogger().addHandler(logging.NullHandler())
    logging.getLogger().setLevel(logging.WARNING)

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    work = Path(job["work"])
    passes = []
    timed = 0.0
    ref_before = reference.measure()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        pass_dir = work / f"pass{k}"
        if traced:
            busy0 = server_busy(job["servers"])
            tracer.begin_pass(k)
            tracer.install()
            try:
                record = run_pass(cli, job, pass_dir, tracer)
            finally:
                tracer.remove()
            record["server_s"] = server_busy(job["servers"]) - busy0
            record["counts"] = dict(tracer.counts)
        else:
            record = run_pass(cli, job, pass_dir, None)
        record["traced"] = traced
        if passes:  # later passes keep only the files whose bytes differ from the first
            digests = record.pop("digests")
            first = passes[0]["digests"]
            record["digest_diff"] = sorted(p for p in first.keys() | digests.keys() if first.get(p) != digests.get(p))
        ref_after = record.pop("ref_after_s")
        record["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        passes.append(record)
        if k > 0:  # the first pass stays on disk for the output checks
            shutil.rmtree(pass_dir)
        timed += record["wall_s"] + ref_after
        if timed >= job["seconds"] and len(passes) >= job["min_passes"]:
            break
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(job["spans"])
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
