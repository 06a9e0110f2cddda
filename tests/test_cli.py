"""End-to-end pipeline through the command-line interface."""

import dataclasses
import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import numpy as np
import pytest

import mathrepo
from mathrepo import analytics
from mathrepo.cli import main
from mathrepo.fixture_server import serve_fixtures
from mathrepo.records import NameParts, RelatedUrl, load_records, store_records

from support import (
    EUCLID_DC,
    OCHANOMIZU_JUNII2,
    classified_record,
    dc_record_xml,
    force_fork,
    make_record,
    no_child_left,
    random_record,
    serve_handler,
    write_dc_fixture_dir,
    write_sidecar,
)

YOKOHAMA_JOURNAL = "Nat. Sci. J. Fac. Educ. Hum. Sci. Yokohama National University Sec. I"


def write_config(tmp_path: Path, endpoints: list[dict], **extra) -> Path:
    config = {
        "store": str(tmp_path / "records.jsonl"),
        "spool_dir": str(tmp_path / "spool"),
        "output_dir": str(tmp_path / "out"),
        "endpoints": endpoints,
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture
def dual_endpoint_env(tmp_path):
    """A dc endpoint (6 records, incl. the Euclid article) and a junii2
    endpoint (1 record), both paged."""
    dc_dir = tmp_path / "dc_fixtures"
    write_dc_fixture_dir(dc_dir, count=5)
    (dc_dir / "zz_euclid.xml").write_text(EUCLID_DC.read_text(encoding="utf-8"), encoding="utf-8")
    junii2_dir = tmp_path / "junii2_fixtures"
    junii2_dir.mkdir()
    (junii2_dir / "ocha.xml").write_text(
        OCHANOMIZU_JUNII2.read_text(encoding="utf-8"), encoding="utf-8"
    )
    dc_server = serve_fixtures(dc_dir, page_size=2)
    junii2_server = serve_fixtures(junii2_dir, page_size=2)
    config_path = write_config(
        tmp_path,
        endpoints=[
            {"name": "dcfix", "base_url": dc_server.base_url, "metadata_prefix": "oai_dc"},
            {"name": "juniifix", "base_url": junii2_server.base_url, "metadata_prefix": "junii2"},
        ],
    )
    yield {
        "config": config_path,
        "tmp_path": tmp_path,
        "dc_server": dc_server,
        "junii2_server": junii2_server,
    }
    dc_server.close()
    junii2_server.close()


def run(config_path, *argv):
    return main(["--config", str(config_path), *argv])


def dc_envelope(*record_xml: str) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListRecords>'
        + "".join(record_xml)
        + "</ListRecords></OAI-PMH>"
    )


def deleted_record_xml(ident: str) -> str:
    return (
        f'<record><header status="deleted"><identifier>{ident}</identifier>'
        "<datestamp>2009-02-01</datestamp></header></record>"
    )


class TestHarvestTransform:
    def test_pipeline_stores_served_set_idempotently(self, dual_endpoint_env):
        env = dual_endpoint_env
        assert run(env["config"], "harvest") == 0
        assert run(env["config"], "transform") == 0
        store_path = env["tmp_path"] / "records.jsonl"
        records = load_records(store_path)
        served = {r.identifier for r in env["dc_server"].records}
        served |= {r.identifier for r in env["junii2_server"].records}
        assert {r.oai_identifier for r in records} == served
        assert len(records) == 7
        first_bytes = store_path.read_bytes()
        assert run(env["config"], "harvest") == 0
        assert run(env["config"], "transform") == 0
        assert store_path.read_bytes() == first_bytes

    def test_transform_reads_dialect_from_payload_not_settings(self, dual_endpoint_env, capsys):
        env = dual_endpoint_env
        assert run(env["config"], "harvest", "--endpoint", "juniifix") == 0
        settings = json.loads(env["config"].read_text(encoding="utf-8"))
        settings["endpoints"] = []  # the junii2 endpoint leaves the settings; its spool stays
        env["config"].write_text(json.dumps(settings), encoding="utf-8")
        assert run(env["config"], "transform") == 0
        assert "1 parsed, 0 failed" in capsys.readouterr().out
        records = load_records(env["tmp_path"] / "records.jsonl")
        assert [(r.source, r.oai_identifier) for r in records] == [
            ("juniifix", r.identifier) for r in env["junii2_server"].records
        ]

    def test_partial_failure_sets_exit_code(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        write_dc_fixture_dir(fixtures, count=2)
        server = serve_fixtures(fixtures, page_size=2)
        try:
            config = write_config(
                tmp_path,
                endpoints=[
                    {"name": "alive", "base_url": server.base_url, "metadata_prefix": "oai_dc"},
                    {
                        "name": "dead",
                        "base_url": "http://127.0.0.1:9/oai",
                        "metadata_prefix": "oai_dc",
                    },
                ],
            )
            assert run(config, "harvest") == 1
            assert (tmp_path / "spool" / "alive.xml").exists()
            assert not (tmp_path / "spool" / "dead.xml").exists()
        finally:
            server.close()

    def test_empty_endpoint_filter_is_usage_error(self, dual_endpoint_env):
        assert run(dual_endpoint_env["config"], "harvest", "--endpoint", "nonexistent") == 2

    def test_unknown_endpoint_name_is_usage_error_before_any_fetch(self, dual_endpoint_env, caplog, capsys):
        env = dual_endpoint_env
        assert run(env["config"], "harvest", "--endpoint", "dcfix", "--endpoint", "typo") == 2
        assert "typo" in caplog.text
        assert "dcfix" not in capsys.readouterr().out
        assert not (env["tmp_path"] / "spool").exists()

    def test_transform_without_spool_fails(self, tmp_path):
        config = write_config(tmp_path, endpoints=[])
        assert run(config, "transform") == 1

    def test_corrupt_envelope_record_skipped_not_fatal(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        good = dc_record_xml("oai:example.org:ok/1")
        # missing title: canonicalization fails for this record only
        bad = (
            "<record><header><identifier>oai:example.org:bad/1</identifier>"
            "<datestamp>2009-01-01</datestamp></header><metadata>"
            '<dc xmlns:dc="http://purl.org/dc/elements/1.1/">'
            "<dc:identifier>http://example.org/bad</dc:identifier></dc>"
            "</metadata></record>"
        )
        envelope = (
            '<?xml version="1.0" encoding="UTF-8"?>'
            '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListRecords>'
            + good + bad +
            "</ListRecords></OAI-PMH>"
        )
        (spool / "mixed.xml").write_text(envelope, encoding="utf-8")
        config = write_config(tmp_path, endpoints=[])
        assert run(config, "transform") == 0
        records = load_records(tmp_path / "records.jsonl")
        assert [r.oai_identifier for r in records] == ["oai:example.org:ok/1"]


    @pytest.mark.parametrize("name", ["error", "resumptionToken", "record"])
    def test_payload_elements_named_like_protocol_elements(self, tmp_path, name):
        fixtures = tmp_path / "fixtures"
        identifiers = write_dc_fixture_dir(fixtures, count=3)
        first = fixtures / "000.xml"
        foreign = f'<x:{name} xmlns:x="http://example.org/ext" code="badVerb">abc</x:{name}>'
        first.write_text(
            first.read_text(encoding="utf-8").replace("</oai_dc:dc>", foreign + "</oai_dc:dc>"),
            encoding="utf-8",
        )
        with serve_fixtures(fixtures, page_size=2) as server:
            config = write_config(
                tmp_path,
                endpoints=[{"name": "fix", "base_url": server.base_url, "metadata_prefix": "oai_dc"}],
            )
            assert run(config, "harvest") == 0
        assert run(config, "transform") == 0
        stored = load_records(tmp_path / "records.jsonl")
        assert sorted(r.oai_identifier for r in stored) == identifiers

    def test_non_oai_page_fails_and_keeps_spool(self, tmp_path):
        class MaintenanceHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = (
                    b'<html xmlns="http://www.w3.org/1999/xhtml"><head><title>Maintenance</title>'
                    b"</head><body><p>Back soon.</p></body></html>"
                )
                self.send_response(200)
                self.send_header("Content-Type", "application/xhtml+xml")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        spool = tmp_path / "spool"
        spool.mkdir()
        previous = dc_envelope(dc_record_xml("oai:x:1"))
        (spool / "down.xml").write_text(previous, encoding="utf-8")
        with serve_handler(MaintenanceHandler) as base_url:
            config = write_config(
                tmp_path,
                endpoints=[{"name": "down", "base_url": f"{base_url}/oai", "metadata_prefix": "oai_dc"}],
            )
            assert run(config, "harvest") == 1
        assert (spool / "down.xml").read_text(encoding="utf-8") == previous

    def test_failed_spool_write_keeps_old_spool(self, tmp_path, monkeypatch):
        fixtures = tmp_path / "fixtures"
        identifiers = write_dc_fixture_dir(fixtures, count=3)
        spool_file = tmp_path / "spool" / "fix.xml"
        with serve_fixtures(fixtures, page_size=2) as server:
            config = write_config(
                tmp_path,
                endpoints=[{"name": "fix", "base_url": server.base_url, "metadata_prefix": "oai_dc"}],
            )
            assert run(config, "harvest") == 0
            before = spool_file.read_bytes()
            real_serialize = mathrepo.cli.serialize_envelope
            # a lone surrogate cannot be encoded as UTF-8, so the write fails part-way
            monkeypatch.setattr(
                "mathrepo.cli.serialize_envelope", lambda records: real_serialize(records) + "\ud800"
            )
            assert run(config, "harvest") == 1
        assert spool_file.read_bytes() == before
        assert not (tmp_path / "spool" / "fix.xml.tmp").exists()
        monkeypatch.undo()
        assert run(config, "transform") == 0
        stored = load_records(tmp_path / "records.jsonl")
        assert sorted(r.oai_identifier for r in stored) == identifiers

    def test_failed_spool_write_fails_only_that_endpoint(self, tmp_path, monkeypatch, capsys):
        write_dc_fixture_dir(tmp_path / "a", count=2)
        write_dc_fixture_dir(tmp_path / "b", count=3)
        real_serialize = mathrepo.cli.serialize_envelope
        calls = []

        def first_write_fails(records):
            calls.append(None)
            return real_serialize(records) + ("\ud800" if len(calls) == 1 else "")

        monkeypatch.setattr("mathrepo.cli.serialize_envelope", first_write_fails)
        with serve_fixtures(tmp_path / "a", page_size=2) as first, serve_fixtures(tmp_path / "b") as second:
            config = write_config(
                tmp_path,
                endpoints=[
                    {"name": "first", "base_url": first.base_url, "metadata_prefix": "oai_dc"},
                    {"name": "second", "base_url": second.base_url, "metadata_prefix": "oai_dc"},
                ],
            )
            assert run(config, "harvest") == 1
        out = capsys.readouterr().out
        assert "first: FAILED" in out and "second: 3 records, 0 errors" in out
        spool = tmp_path / "spool"
        assert sorted(p.name for p in spool.iterdir()) == ["second.xml"]

    def test_set_spec_harvests_only_that_set(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        for i in range(5):  # two sets, interleaved
            xml = dc_record_xml(f"oai:x:{i}", set_spec="geometry" if i % 2 == 0 else "algebra")
            (fixtures / f"{i:03d}.xml").write_text(xml, encoding="utf-8")
        with serve_fixtures(fixtures, page_size=1) as server:  # the set must ride the resumption token
            endpoint = {**GOOD_ENDPOINT, "base_url": server.base_url, "set_spec": "geometry"}
            config = write_config(tmp_path, endpoints=[endpoint])
            assert run(config, "harvest") == 0
        assert run(config, "transform") == 0
        stored = load_records(tmp_path / "records.jsonl")
        assert sorted(rec.oai_identifier for rec in stored) == ["oai:x:0", "oai:x:2", "oai:x:4"]

    def test_repeated_resumption_token_fails_the_endpoint(self, tmp_path):
        requests = []

        class LoopingHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                requests.append(self.path)
                # past the cap the page ends the list, so a client that never notices the loop
                # finishes (and fails the assertions) instead of paging forever
                token = "<resumptionToken>same</resumptionToken>" if len(requests) < 20 else ""
                body = dc_envelope(dc_record_xml(f"oai:x:{len(requests)}")).replace(
                    "</ListRecords>", token + "</ListRecords>"
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/xml")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        spool = tmp_path / "spool"
        spool.mkdir()
        previous = dc_envelope(dc_record_xml("oai:x:old"))
        (spool / "loop.xml").write_text(previous, encoding="utf-8")
        with serve_handler(LoopingHandler) as base_url:
            config = write_config(
                tmp_path,
                endpoints=[{"name": "loop", "base_url": f"{base_url}/oai", "metadata_prefix": "oai_dc"}],
            )
            assert run(config, "harvest") == 1
        assert len(requests) <= 2
        assert (spool / "loop.xml").read_text(encoding="utf-8") == previous
        assert not (spool / "loop.xml.tmp").exists()


class TestDeletions:
    def transform(self, tmp_path, *record_xml):
        spool = tmp_path / "spool"
        spool.mkdir(exist_ok=True)
        (spool / "src.xml").write_text(dc_envelope(*record_xml), encoding="utf-8")
        return run(write_config(tmp_path, endpoints=[]), "transform")

    def test_deleted_record_leaves_store(self, tmp_path, capsys):
        assert self.transform(tmp_path, dc_record_xml("oai:x:1"), dc_record_xml("oai:x:2")) == 0
        assert self.transform(tmp_path, deleted_record_xml("oai:x:1")) == 0
        stored = load_records(tmp_path / "records.jsonl")
        assert [r.oai_identifier for r in stored] == ["oai:x:2"]
        assert capsys.readouterr().out.splitlines()[-1] == (
            "transform: 0 parsed, 0 failed, store has 1 records"
        )

    def test_header_only_record_counts_as_failed(self, tmp_path, caplog, capsys):
        # not marked deleted, so the missing <metadata> is a bad record, not a deletion
        header_only = (
            "<record><header><identifier>oai:x:1</identifier>"
            "<datestamp>2009-02-01</datestamp></header></record>"
        )
        assert self.transform(tmp_path, header_only) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "transform: 0 parsed, 1 failed, store has 0 records"
        )
        assert "cannot canonicalize oai:x:1" in caplog.text

    def test_deletion_of_unknown_record_is_a_no_op(self, tmp_path):
        assert self.transform(tmp_path, dc_record_xml("oai:x:1")) == 0
        before = (tmp_path / "records.jsonl").read_bytes()
        assert self.transform(tmp_path, deleted_record_xml("oai:x:9")) == 0
        assert (tmp_path / "records.jsonl").read_bytes() == before


def stage_inputs(tmp_path):
    """A two-record store, a one-record spool, a lookup table and a totals file, enough
    for every stage but harvest; returns the store path and the config."""
    store = tmp_path / "records.jsonl"
    store_records([classified_record(1, 1998, "", []), classified_record(2, 1999, "", [])], store)
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "src.xml").write_text(dc_envelope(dc_record_xml("oai:x:1")), encoding="utf-8")
    table = tmp_path / "mr.tsv"
    table.write_text(f"{YOKOHAMA_JOURNAL}\t1\t1998\t43\t1710269\t53A35\t53A04\n", encoding="utf-8")
    totals = tmp_path / "totals.tsv"
    totals.write_text("53\t100\n", encoding="utf-8")
    return store, write_config(tmp_path, endpoints=[], mr_table=str(table), totals=str(totals))


class TestMalformedStore:
    @pytest.mark.parametrize(
        "argv, forked",
        [
            (("transform",), False), (("enrich",), False), (("export", "--format", "eprints"), False),
            (("stats",), False), (("hits", "--from", "1998", "--to", "1999"), False),
            (("stats",), True), (("hits", "--from", "1998", "--to", "1999"), True),
            (("export", "--format", "eprints"), True),
        ],
        ids=["transform", "enrich", "export", "stats", "hits", "stats-forked", "hits-forked", "export-forked"],
    )
    def test_malformed_line_stops_the_stage(self, tmp_path, caplog, monkeypatch, argv, forked):
        store, config = stage_inputs(tmp_path)
        with open(store, "a", encoding="utf-8") as fh:
            fh.write('{"record_id": "broken"\n')
        before = store.read_bytes()
        if forked:
            force_fork(monkeypatch, lines_per_process=1)  # lines 1, 2 and 3-4, the last in a child
        assert run(config, *argv) == 1
        assert f"{store}:3" in caplog.text
        assert store.read_bytes() == before
        assert not (tmp_path / "out").exists()
        no_child_left()

    def test_malformed_line_after_a_cached_read_stops_the_stage(self, tmp_path, caplog):
        store, config = stage_inputs(tmp_path)
        assert run(config, "stats") == 0
        assert (tmp_path / "records.jsonl.classifications").is_file()
        with open(store, "a", encoding="utf-8") as fh:
            fh.write('{"record_id": "broken"\n')
        for argv in (("stats",), ("hits", "--from", "1998", "--to", "1999")):
            caplog.clear()
            assert run(config, *argv) == 1
            assert f"{store}:3" in caplog.text

    @pytest.mark.parametrize(
        "argv",
        [("transform",), ("enrich",), ("export", "--format", "eprints"), ("stats",),
         ("hits", "--from", "1998", "--to", "1999")],
        ids=["transform", "enrich", "export", "stats", "hits"],
    )
    def test_empty_secondary_code_stops_the_stage(self, tmp_path, caplog, capsys, argv):
        store, config = stage_inputs(tmp_path)
        line = json.loads(store.read_text(encoding="utf-8").splitlines()[0])
        line["msc_primary"], line["msc_secondary"] = "53A35", [""]
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        before = store.read_bytes()
        assert run(config, *argv) == 1
        assert f"{store}:3: invalid MSC code on record: ''" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert store.read_bytes() == before
        assert not (tmp_path / "out").exists()
        no_child_left()

    def test_value_of_wrong_type_stops_enrich(self, tmp_path, caplog):
        store, config = stage_inputs(tmp_path)
        line = json.loads(store.read_text(encoding="utf-8").splitlines()[0])
        line["official_url"] = 5
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        before = store.read_bytes()
        assert run(config, "enrich") == 1
        assert f"{store}:3: official_url must be a string" in caplog.text
        assert store.read_bytes() == before


class TestFailedStoreWrite:
    @pytest.mark.parametrize("stage", ["transform", "enrich"])
    def test_failed_store_write_exits_one(self, tmp_path, monkeypatch, caplog, stage):
        store, config = stage_inputs(tmp_path)
        before = store.read_bytes()

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("mathrepo.records._to_line", full_disk)
        assert run(config, stage) == 1
        monkeypatch.undo()
        assert f"cannot write store {store}" in caplog.text
        assert store.read_bytes() == before
        assert not (tmp_path / "records.jsonl.tmp").exists()

    @pytest.mark.parametrize("where", ["everywhere", "in-a-child"])
    @pytest.mark.parametrize("stage", ["transform", "enrich"])
    def test_failed_encode_in_forked_rewrite_exits_one(self, tmp_path, monkeypatch, caplog, stage, where):
        store, config = stage_inputs(tmp_path)
        before = store.read_bytes()
        parent, real = os.getpid(), mathrepo.records._to_line

        def full_disk(rec):
            if where == "everywhere" or os.getpid() != parent:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(rec)

        force_fork(monkeypatch, lines_per_process=1)  # lines 1, 2 and 3, the last two in children
        monkeypatch.setattr("mathrepo.records._to_line", full_disk)
        assert run(config, stage) == 1
        monkeypatch.undo()
        assert f"cannot write store {store}: [Errno {errno.ENOSPC}]" in caplog.text
        assert store.read_bytes() == before
        assert not (tmp_path / "records.jsonl.tmp").exists()
        no_child_left()


# stdout and store digest of each stage on rewrite_inputs, as the in-process rewrite of full records wrote them
REWRITE_GOLDEN = {
    "transform": ("transform: 2 parsed, 0 failed, store has 40 records\n",
                  "f9226cebe5f29cb0034577e21d96abea00c5bf3612c0c79593b4a0f6c53ab74e"),
    "enrich": ("enrich: 8 matched, 20 unmatched, 12 skipped\n",
               "f4b8e3d9a0ec629f352d205a6d5e0321ef810b0622faf95af0998846bb628901"),
}


def rewrite_inputs(tmp_path) -> Path:
    """A 40-record store of source ``src`` on 43 lines: line 13 repeats record 30 and line 42
    record 7, each with another title (the later line wins); line 20, record 18, is valid but
    has its keys reversed and extra whitespace; line 43 is blank. The spool deletes record 21,
    replaces record 22 and adds one record; the lookup table matches records 7 and 18 and every
    fifth record that has a journal. Returns the settings file."""
    recs = [
        make_record(source="src", oai_identifier=f"oai:x:{n}", official_url=f"http://example.org/{n}",
                    title=f"Article {n}", publication=f"J. Test {n % 3}" if n % 4 else "",
                    volume=str(n % 5), pagerange=f"{n}-{n + 2}", date=str(1990 + n % 10))
        for n in range(40)
    ]
    revised = [dataclasses.replace(recs[n], title=f"Article {n}, revised") for n in (30, 7)]
    store = tmp_path / "records.jsonl"
    store_records([*recs[:12], revised[0], *recs[12:40], revised[1]], store)
    lines = store.read_text(encoding="utf-8").split("\n")
    fields = json.loads(lines[19])
    lines[19] = "  " + json.dumps(dict(reversed(fields.items())), separators=(" ,  ", " :\t")) + " "
    store.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "src.xml").write_text(
        dc_envelope(deleted_record_xml("oai:x:21"), dc_record_xml("oai:x:22", title="Replaced"),
                    dc_record_xml("oai:x:99")),
        encoding="utf-8",
    )
    table = tmp_path / "mr.tsv"
    table.write_text(
        "".join(f"J. Test {n % 3}\t{n % 5}\t{1990 + n % 10}\t{n}\t{1000 + n}\t53A35\t53A04\n"
                for n in range(40) if n % 4 and n % 5 == 0 or n in (7, 18)),
        encoding="utf-8",
    )
    return write_config(tmp_path, endpoints=[], mr_table=str(table))


class TestStoreRewrite:
    @pytest.mark.parametrize("forked", [False, True], ids=["in-process", "forked"])
    def test_transform_and_enrich_write_pinned_bytes(self, tmp_path, monkeypatch, capsys, forked):
        config = rewrite_inputs(tmp_path)
        if forked:
            force_fork(monkeypatch, cpus=3, lines_per_process=10)  # lines 1-14, 15-29 and 30-44
        for stage in ("transform", "enrich"):
            assert run(config, stage) == 0
            store = (tmp_path / "records.jsonl").read_bytes()
            assert (capsys.readouterr().out, hashlib.sha256(store).hexdigest()) == REWRITE_GOLDEN[stage]
        stored = {r.oai_identifier: r for r in load_records(tmp_path / "records.jsonl")}
        assert "oai:x:21" not in stored and stored["oai:x:22"].title == "Replaced"
        assert stored["oai:x:7"].title == "Article 7, revised" and stored["oai:x:30"].title == "Article 30"
        assert stored["oai:x:18"].mr_number == 1018
        assert store.endswith(b"\n") and store.count(b"\n") == 40
        no_child_left()


GOOD_ENDPOINT = {"name": "src", "base_url": "http://127.0.0.1:9/oai", "metadata_prefix": "oai_dc"}


class TestSettingsAndInputs:
    @pytest.mark.parametrize(
        "settings",
        [
            {"mr_table": 3},  # once opened as inherited file descriptor 3
            {"store": 5},
            {"spool_dir": None},
            {"mr_tabel": "mr.tsv"},
            {"endpoints": 5},
            {"endpoints": ["src"]},
            {"endpoints": [{**GOOD_ENDPOINT, "from": "2009-01-01"}]},
            {"endpoints": [{**GOOD_ENDPOINT, "name": ""}]},
            {"endpoints": [{**GOOD_ENDPOINT, "set_spec": 7}]},
            {"endpoints": [{"name": "src", "metadata_prefix": "oai_dc"}]},
            {"endpoints": [{**GOOD_ENDPOINT, "from_date": "garbage"}]},
            {"endpoints": [{**GOOD_ENDPOINT, "from_date": "2009-13-45"}]},
            {"endpoints": [{**GOOD_ENDPOINT, "until_date": "2009-06-01T00:00:00"}]},
            {"endpoints": [{**GOOD_ENDPOINT, "from_date": "2009-1-2"}]},
            {"endpoints": [{**GOOD_ENDPOINT, "until_date": "2009-01-02T1:2:3Z"}]},
            {"endpoints": [{**GOOD_ENDPOINT, "from_date": "2009-01-03", "until_date": "2009-01-01"}]},
            {"store": "a\0b"},
            {"spool_dir": "a\0b"},
            {"mr_table": "a\0b"},
            {"totals": "a\0b"},
            {"output_dir": "a\0b"},
            {"endpoints": [GOOD_ENDPOINT, {**GOOD_ENDPOINT, "base_url": "http://127.0.0.1:9/other"}]},
        ],
        ids=[
            "mr_table_int", "store_int", "spool_dir_null", "unknown_key", "endpoints_int",
            "endpoint_not_object", "endpoint_key_typo", "endpoint_name_empty",
            "endpoint_set_spec_int", "endpoint_base_url_missing", "endpoint_from_date_garbage",
            "endpoint_from_date_month_13", "endpoint_until_date_without_z", "endpoint_from_date_unpadded",
            "endpoint_until_date_time_unpadded", "endpoint_from_after_until", "store_nul", "spool_dir_nul",
            "mr_table_nul", "totals_nul", "output_dir_nul", "endpoint_name_duplicate",
        ],
    )
    def test_bad_setting_exits_two_before_writing(self, tmp_path, caplog, settings):
        (tmp_path / "mr.tsv").write_text("", encoding="utf-8")
        good = {"endpoints": [GOOD_ENDPOINT], "mr_table": str(tmp_path / "mr.tsv")}
        config = write_config(tmp_path, **{**good, **settings})
        assert run(config, "harvest") == 2
        assert run(config, "enrich") == 2
        assert f"config {config}:" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "mr.tsv"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hits", "--from", "1990", "--to", "1999", "--window", "0"], "window must be >= 1"),
            (["hits", "--from", "2000", "--to", "1990"], "start_year 2000 > end_year 1990"),
            (["hits", "--from", "1990", "--to", "1999", "--tol", "0"], "tol must be positive"),
            (["hits", "--from", "1990", "--to", "1999", "--tol", "inf"], "tol must be positive and finite"),
            (["hits", "--from", "1990", "--to", "1999", "--tol", "nan"], "tol must be positive and finite"),
            (["hits", "--from", "1990", "--to", "1999", "--max-iter", "0"], "max_iter must be >= 1"),
            (["export", "--format", "ore", "--resource-map-uri", "not-a-uri"], "--resource-map-uri"),
            (["harvest", "--delay", "inf"], "--delay must be from 0 to 86400 seconds, not inf"),
            (["harvest", "--delay", "nan"], "--delay must be from 0 to 86400 seconds, not nan"),
            (["harvest", "--delay", "-1"], "--delay must be from 0 to 86400 seconds, not -1.0"),
            (["harvest", "--delay", "1e10"], "--delay must be from 0 to 86400 seconds, not 10000000000.0"),
            (["hits", "--from", "1990", "--to", "1999", "--nodes", "a/b,53"], "two-digit MSC fields, not 'a/b'"),
            (["hits", "--from", "1990", "--to", "1999", "--nodes", "53A35"], "two-digit MSC fields, not '53A35'"),
            (["hits", "--from", "1990", "--to", "1999", "--nodes", "53,\uff15\uff13"], "not '\uff15\uff13'"),
            (["hits", "--from", "1990", "--to", "10000"], "years must be from 0 to 9999, not 1990 to 10000"),
            (["hits", "--from", "-1", "--to", "1999"], "years must be from 0 to 9999, not -1 to 1999"),
        ],
        ids=[
            "window_zero", "from_after_to", "tol_zero", "tol_inf", "tol_nan", "max_iter_zero",
            "resource_map_uri_relative", "delay_inf", "delay_nan", "delay_negative", "delay_past_sleep",
            "nodes_path", "nodes_full_code", "nodes_not_ascii", "to_past_9999", "from_before_0",
        ],
    )
    def test_bad_flag_value_exits_two_before_writing(self, tmp_path, caplog, argv, message):
        store, config = stage_inputs(tmp_path)
        store_records([classified_record(1, 1995, "53A35", ["32A10"])], store)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(config, *argv) == 2
        assert message in caplog.text
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_repeated_node_is_written_once(self, tmp_path):
        store, config = stage_inputs(tmp_path)
        store_records([classified_record(1, 1995, "53A35", ["32A10"]), classified_record(2, 1996, "32A10", ["53A35"])],
                      store)
        assert run(config, "hits", "--from", "1995", "--to", "1996", "--nodes", "53,53") == 0
        out = tmp_path / "out"
        rows = (out / "hits_series.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[:2] for row in rows] == [["year", "node"], ["1995", "53"], ["1996", "53"]]
        assert sorted(path.name for path in out.iterdir()) == ["hits_53.svg", "hits_series.csv"]

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\0b"])
    def test_name_that_is_not_a_file_name_exits_two(self, tmp_path, caplog, name):
        # the ORE file and the spool would land in tmp_path itself for "../escaped"
        _, config = stage_inputs(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run(config, "export", "--format", "ore", "--name", name) == 2
        assert "--name must be a file name" in caplog.text
        write_config(tmp_path, endpoints=[{**GOOD_ENDPOINT, "name": name}])
        assert run(config, "harvest") == 2
        assert "endpoint name must be a file name" in caplog.text
        assert sorted(tmp_path.rglob("*")) == before

    def test_named_settings_file_must_exist(self, tmp_path, monkeypatch, caplog):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mr.tsv").write_text("", encoding="utf-8")
        assert main(["--config", "typo.json", "enrich", "--mr-table", "mr.tsv"]) == 2
        assert "typo.json" in caplog.text
        assert not (tmp_path / "records.jsonl").exists()
        # only the default file may be missing; then every setting keeps its default
        (tmp_path / "records.jsonl").write_bytes(b"")
        assert main(["enrich", "--mr-table", "mr.tsv"]) == 0
        assert (tmp_path / "records.jsonl").read_bytes() == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enrich", "--mr-table", "mr.tsv"],
            ["export", "--format", "eprints"],
            ["stats", "--totals", "totals.tsv"],
            ["hits", "--from", "2000", "--to", "2001"],
        ],
        ids=["enrich", "export", "stats", "hits"],
    )
    def test_missing_store_exits_one_naming_it(self, tmp_path, monkeypatch, caplog, argv):
        # only transform starts without a store; every later stage needs the one it names
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mr.tsv").write_text("", encoding="utf-8")
        (tmp_path / "totals.tsv").write_text("53\t3307\n", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(["--store", "typo.jsonl", *argv]) == 1
        assert "typo.jsonl" in caplog.text
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "make, argv",
        [
            ("absent", ["enrich", "--mr-table", "{}"]),
            ("absent", ["stats", "--totals", "{}"]),
            ("directory", ["--store", "{}", "export", "--format", "eprints"]),
            ("not_utf8", ["--store", "{}", "export", "--format", "eprints"]),
            ("not_utf8", ["enrich", "--mr-table", "{}"]),
            ("not_utf8", ["stats", "--totals", "{}"]),
        ],
        ids=[
            "table_absent", "totals_absent", "store_is_directory", "store_not_utf8",
            "table_not_utf8", "totals_not_utf8",
        ],
    )
    def test_unreadable_input_exits_one_naming_it(self, tmp_path, caplog, make, argv):
        path = tmp_path / "input"
        if make == "directory":
            path.mkdir()
        elif make == "not_utf8":
            path.write_bytes("53\t3307\n".encode("latin-1") + b"\xe9\n")
        config = write_config(tmp_path, endpoints=[])
        assert run(config, *[str(path) if a == "{}" else a for a in argv]) == 1
        assert str(path) in caplog.text


class TestEnrichExport:
    def seed_store(self, tmp_path) -> Path:
        config = write_config(tmp_path, endpoints=[])
        records = [
            classified_record(1, 1998, "", []),
            classified_record(2, 1999, "", []),
        ]
        records[0] = classified_record(1, 1998, "", [])
        store_records(records, tmp_path / "records.jsonl")
        return config

    def test_enrich_updates_store(self, tmp_path):
        config = write_config(tmp_path, endpoints=[])
        rec = classified_record(1, 1998, "", [])
        rec.publication = YOKOHAMA_JOURNAL
        rec.volume = "1"
        rec.pagerange = "43-46"
        store_records([rec], tmp_path / "records.jsonl")
        table = tmp_path / "mr.tsv"
        table.write_text(
            f"{YOKOHAMA_JOURNAL}\t1\t1998\t43\t1710269\t53A35\t53A04\n", encoding="utf-8"
        )
        assert run(config, "enrich", "--mr-table", str(table)) == 0
        (loaded,) = load_records(tmp_path / "records.jsonl")
        assert loaded.mr_number == 1710269
        assert loaded.msc_primary == "53A35"

    def test_enrich_counts_a_duplicated_record_once(self, tmp_path, capsys):
        config = write_config(tmp_path, endpoints=[])
        rec = classified_record(1, 1998, "", [])
        matched = dataclasses.replace(rec, publication=YOKOHAMA_JOURNAL, volume="1", pagerange="43-46")
        store = tmp_path / "records.jsonl"
        store_records([rec, classified_record(2, 1999, "", []), matched, matched], store)  # later lines win
        table = tmp_path / "mr.tsv"
        table.write_text(f"{YOKOHAMA_JOURNAL}\t1\t1998\t43\t1710269\t53A35\t53A04\n", encoding="utf-8")
        assert run(config, "enrich", "--mr-table", str(table)) == 0
        assert capsys.readouterr().out == "enrich: 1 matched, 0 unmatched, 1 skipped\n"
        assert [r.mr_number for r in load_records(store)] == [1710269, None]
        assert len(store.read_text(encoding="utf-8").splitlines()) == 2

    def test_enrich_without_table_is_usage_error(self, tmp_path):
        config = self.seed_store(tmp_path)
        assert run(config, "enrich") == 2
        assert run(config, "stats") == 2  # nor stats without a totals file

    def test_export_eprints_and_mets_write_per_record_files(self, tmp_path):
        config = self.seed_store(tmp_path)
        assert run(config, "export", "--format", "eprints") == 0
        assert run(config, "export", "--format", "mets") == 0
        out = tmp_path / "out"
        assert len(list(out.glob("*.eprints.xml"))) == 2
        assert len(list(out.glob("*.mets.xml"))) == 2

    def test_export_ore_single_aggregation(self, tmp_path):
        config = self.seed_store(tmp_path)
        assert run(config, "export", "--format", "ore", "--name", "sample") == 0
        doc = (tmp_path / "out" / "sample.ore.atom.xml").read_text(encoding="utf-8")
        assert doc.count('rel="http://www.openarchives.org/ore/terms/aggregates"') == 2

    @pytest.mark.parametrize(
        "dates, published, updated",
        [
            (["2009-06"], "2009-06-01", "2009-06-01"),
            (["2009-06-15", "2008", ""], "2008-01-01", "2009-06-15"),
            (["", ""], "1970-01-01", "1970-01-01"),  # no record date: the Aggregation defaults
        ],
        ids=["month", "year-and-day", "undated"],
    )
    def test_export_ore_stamps_pad_record_dates_to_a_day(self, tmp_path, dates, published, updated):
        config = write_config(tmp_path, endpoints=[])
        store_records(
            [make_record(oai_identifier=f"oai:x:{n}", official_url=f"http://example.org/{n}", date=date)
             for n, date in enumerate(dates)],
            tmp_path / "records.jsonl",
        )
        assert run(config, "export", "--format", "ore", "--name", "sample") == 0
        doc = (tmp_path / "out" / "sample.ore.atom.xml").read_text(encoding="utf-8")
        assert f"<atom:published>{published}T00:00:00Z</atom:published>" in doc
        assert f"<atom:updated>{updated}T00:00:00Z</atom:updated>" in doc

    def test_export_ore_aggregates_a_shared_href_once(self, tmp_path, capsys):
        config = write_config(tmp_path, endpoints=[])
        shared = "http://journal.example/art/1"
        records = sorted(
            [make_record(source="euclid", title="From euclid", official_url=shared),
             make_record(source="ocha", title="From ocha", official_url=shared),
             make_record(source="ocha", oai_identifier="oai:x:2", official_url="http://journal.example/art/2")],
            key=lambda rec: rec.record_id,
        )
        store_records(records, tmp_path / "records.jsonl")
        assert run(config, "export", "--format", "ore", "--name", "sample") == 0
        assert capsys.readouterr().out == "export: 1 aggregation of 2 resources\n"
        doc = (tmp_path / "out" / "sample.ore.atom.xml").read_text(encoding="utf-8")
        assert doc.count(f'href="{shared}"') == 1
        first = next(rec.title for rec in records if rec.official_url == shared)
        assert f'href="{shared}" title="{first}"' in doc

    def test_export_mets_with_deposit_posts_packages(self, tmp_path):
        bodies = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                bodies.append(self.rfile.read(int(self.headers["Content-Length"])))
                self.send_response(201)
                self.end_headers()

            def log_message(self, *args):
                pass

        config = self.seed_store(tmp_path)
        with serve_handler(Handler) as base_url:
            url = f"{base_url}/deposit"
            assert run(config, "export", "--format", "mets", "--deposit-url", url) == 0
        assert len(bodies) == 2
        assert all(b.startswith(b"<?xml") for b in bodies)

    def test_failed_deposit_exits_one_naming_url_and_status(self, tmp_path, caplog):
        class RefusingHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(500)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        config = self.seed_store(tmp_path)
        with serve_handler(RefusingHandler) as base_url:
            url = f"{base_url}/deposit"
            assert run(config, "export", "--format", "mets", "--deposit-url", url) == 1
        assert url in caplog.text and "500" in caplog.text

    def test_malformed_deposit_url_is_usage_error(self, tmp_path, caplog):
        config = self.seed_store(tmp_path)
        assert run(config, "export", "--format", "mets", "--deposit-url", "host/sword") == 2
        assert "host/sword" in caplog.text
        assert not list((tmp_path / "out").glob("*.mets.xml"))

    @pytest.mark.parametrize("fmt", ["eprints", "ore"])
    def test_deposit_url_needs_mets(self, tmp_path, caplog, fmt):
        config = self.seed_store(tmp_path)
        url = "http://127.0.0.1:9/sword"
        assert run(config, "export", "--format", fmt, "--deposit-url", url) == 2
        assert "--format mets" in caplog.text
        out = tmp_path / "out"
        assert not out.exists() or not list(out.iterdir())

    def test_export_reruns_byte_identical(self, tmp_path):
        config = self.seed_store(tmp_path)
        assert run(config, "export", "--format", "eprints") == 0
        assert run(config, "export", "--format", "ore") == 0
        out = tmp_path / "out"
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(config, "export", "--format", "eprints") == 0
        assert run(config, "export", "--format", "ore") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


class TestExportRefusesTextXmlCannotCarry:
    @pytest.mark.parametrize("char", ["\ud800", "\x01"], ids=["surrogate", "control"])
    @pytest.mark.parametrize(
        "fmt, forked", [("eprints", False), ("mets", False), ("ore", False), ("mets", True)],
        ids=["eprints", "mets", "ore", "mets-forked"],
    )
    def test_record_xml_cannot_carry_stops_export(self, tmp_path, caplog, capsys, monkeypatch, fmt, forked, char):
        store, config = stage_inputs(tmp_path)
        line = json.loads(store.read_text(encoding="utf-8").splitlines()[0])
        line["title"] = f"sur{char}"
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")  # json.dumps writes both as \uXXXX, which the store decodes back
        if forked:
            force_fork(monkeypatch, lines_per_process=1)  # lines 1, 2 and 3, the last in a child
        assert run(config, "export", "--format", fmt, "--name", "sample") == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        named = "resource map 'http://example.org/ore/sample'" if fmt == "ore" else f"record {line['record_id']}"
        assert error == f"{named} holds {char!r}, which XML cannot carry"
        assert "Traceback" not in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not list(out.iterdir())
        no_child_left()


# sha256 of each file `export` writes for the seeded store of test_export_output_bytes_are_pinned,
# computed when each document was an ElementTree indented and rendered by ElementTree itself
EXPORT_GOLDEN = {
    "119f8baafa30c798.eprints.xml": "703ca59d286c4ac27a01207ffd502aa928935b564dd73be37ba3ee95e47f4deb",
    "119f8baafa30c798.mets.xml": "ed6e186aaf59332228b360f444d0ea54e9b4cd3c5740bcd5e46ba8f59a538b15",
    "26577d3da2921002.eprints.xml": "2612d61d957951d267e62e396ba945c5140c3be01eafb15dbea61c224aa113cd",
    "26577d3da2921002.mets.xml": "d5d77dd16667ce2e5016bd4c3ac45796bf54de1fff9f761ee31e3818a5418d48",
    "2c7e77c1aadff13a.eprints.xml": "9a540217d82b6cf1e51a47f8cc326e051fb1edc8f27c2eb55ebebb28913d523f",
    "2c7e77c1aadff13a.mets.xml": "817418f99feb76750311c9d866164eb533cc2de202bb3fdb6dcfc86145515df7",
    "39acbfb4b96c3bc2.eprints.xml": "7047f90dc3db56522adf369032c614e76c3921b38a492c60bb46db0d8220a2d4",
    "39acbfb4b96c3bc2.mets.xml": "0dae1a028361929ac3c0e2a82039ce7944d6b3a360029309678e560ef734d4ba",
    "47493ec1b0ac3660.eprints.xml": "489674e4c8e01536082988b2be9c82907ade96e40a587edf53e9eb92db8104bf",
    "47493ec1b0ac3660.mets.xml": "51ca4dfb15450ba7d002c2e0e658daf1f51a6514fae9f4e718a7582080b03adb",
    "98639c80686dd19a.eprints.xml": "f757d41b0daa68670c09ece898b00fde3b5e8a08429193555198cffd0071a885",
    "98639c80686dd19a.mets.xml": "8911753ea2287e5bc5a02f725b1b515d2d0fbd9a3e74de68268e5ce5f5479e24",
    "ca5b6d51d2253189.eprints.xml": "76f5c431e1138e9aac0a37a589e5659ad91e494ce0ae5d8ec82515bac9199c09",
    "ca5b6d51d2253189.mets.xml": "313774ae68c5b2100261b053c9e26d8e3b53ba32c91311b943c9dd1514ef263a",
    "cc1cabce6574c945.eprints.xml": "2081ecdeb54f78e4b19f080181ee6db16d6efb22778110b16f85a0cde46b3d81",
    "cc1cabce6574c945.mets.xml": "b4a9953126eb04b605832d75148f0253c461ad3b1e35b8d781aa215e80553041",
    "cdb3a40a6f4e2f32.eprints.xml": "7a4b4da7d3b79ff39d51742329c149d194515891ce52c27efca2fa71d757dcd2",
    "cdb3a40a6f4e2f32.mets.xml": "a4d3c51875fa3bc3d1704f36816c3a3eb0d655de86c57c7cb5a87b82a7391003",
    "dbd61f7d2afb7008.eprints.xml": "c98072915aae95d150933904ac9b11bfce6a02383bdd97085f1b2e47488e062a",
    "dbd61f7d2afb7008.mets.xml": "de5fead6593ba3caaae9b936de31a8df0b8bc1e8a6f297833886b1ea9cc4b097",
    "f768a4fae394a728.eprints.xml": "879ce839f039482e976a9e30644bec99089610f19cea8dabe1e4bdc15806e348",
    "f768a4fae394a728.mets.xml": "41e342d9bc42b4380c41c9b14321a03d5946c09e8f06e22d88113cb62d774f67",
    "sample.ore.atom.xml": "a4a970488f5ea9374d022ba63d5c09ecdf91fb71125957b616398812c4673cf6",
}


def test_export_output_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(26)
    odd = "a & b < c > d \"q\" 'e'\tf\ng\rh \U0001d53d  "  # escaped in text, and more in attributes
    records = [
        *(random_record(rng, n) for n in range(10)),
        make_record(oai_identifier="oai:x:odd", title=odd, official_url="http://example.org/odd?a=1&b=2",
                    creators=[NameParts(family=odd, given=""), NameParts(family="", given="")],
                    publication=odd, volume="3", date="2001-02", publisher=odd, full_text_url=f"http://x/{odd}",
                    msc_primary="53A35", msc_secondary=["20C25", "53"],
                    related_urls=[RelatedUrl(url=odd, type=""), RelatedUrl(url="", type=odd)], language=odd),
    ]
    store_records(records, tmp_path / "records.jsonl")
    config = write_config(tmp_path, endpoints=[])
    for fmt in ("eprints", "mets", "ore"):
        assert run(config, "export", "--format", fmt, "--name", "sample") == 0
    out = sorted((tmp_path / "out").iterdir())
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out} == EXPORT_GOLDEN


FIELDS = ["05", "11", "14", "20", "32", "35", "53", "57", "60", "68", "81", "94"]

# sha256 of each file `hits` writes for the seeded store of
# test_hits_output_bytes_are_pinned, computed when each window's graph was
# rebuilt from its records, so the running pair counts must match that rebuild
HITS_GOLDEN = {
    "hits_05.svg": "52ceac28bcc4d6164e04801b0f9607235b7ad28c7e36ccffeff771420f7fe461",
    "hits_11.svg": "5aee9966da33e97abcaeac2682c98f64a157db3989bee612c5b0d3fa6ee2032e",
    "hits_14.svg": "606de6ee9111b7b8d0ee52dbeddc769f760505a7b1aa04ae8538db7074708c67",
    "hits_20.svg": "984610b87b5a652db3880fb6fbb02cbfdc8823611ddf0ce3d395fde56c34be86",
    "hits_32.svg": "102ba7f9cb48e452a1930daaa8005a24d85f784909e26b7ffa09adc853aeaa2e",
    "hits_35.svg": "20f7023fca15a5123e1d30645286d39ed985b9ba89d69fefc49496da1b6a2f64",
    "hits_53.svg": "439ed6729d464aa65fa60fa9a9e74676f0502a31e8a41f3c87d85c9611dbce42",
    "hits_57.svg": "3ca376c44f600b2d68b46f5aa7a6db5c55c8abcf934d73af674b46df718e1a0c",
    "hits_60.svg": "db4fd0b0f2cfc5dad7cf37b85f022680a410785e929d389086e8e47b7619eee2",
    "hits_68.svg": "bea48caae26bbe346f022580398457d6d27702f0c28e1b403a654a99b810ce93",
    "hits_81.svg": "25d6c0fa69bd9dcc3fc2954432eea6b2d1ed3fd1028a9fe6e43b5ba84cbc9f82",
    "hits_94.svg": "dc929ab66e0fe24434fce65305c7269fb6361a002d9dc0835621daf8e5b07f94",
    "hits_series.csv": "915c4691957fbd0fddaac724883d4bb92ac1974c5e56ec1012252ff4671640cc",
}


class TestStatsHits:
    def test_stats_reproduces_published_shares(self, tmp_path, capsys):
        from test_analytics import SHARE_TABLE

        config = write_config(tmp_path, endpoints=[])
        records = []
        n = 0
        for msc2, count, _, _ in SHARE_TABLE:
            for _ in range(count):
                records.append(classified_record(n := n + 1, 1999, f"{msc2}A05", []))
        store_records(records, tmp_path / "records.jsonl")
        totals_path = tmp_path / "totals.tsv"
        totals_path.write_text(
            "".join(f"{m}\t{t}\n" for m, _, t, _ in SHARE_TABLE), encoding="utf-8"
        )
        assert run(config, "stats", "--totals", str(totals_path)) == 0
        printed = capsys.readouterr().out
        csv_lines = (tmp_path / "out" / "field_share.csv").read_text(encoding="utf-8").splitlines()
        assert len(csv_lines) == 13
        for (msc2, count, total, percent), line in zip(SHARE_TABLE, csv_lines[1:]):
            assert line == f"{msc2},{count},{total},{percent:.2f}"
        for _, _, _, percent in SHARE_TABLE:
            assert f"{percent:.2f}" in printed

    def test_hits_exports_csv_and_svg(self, tmp_path):
        config = write_config(tmp_path, endpoints=[])
        records = [
            classified_record(1, 1995, "53A35", ["32A10"]),
            classified_record(2, 1996, "32A10", ["53A35"]),
        ]
        store_records(records, tmp_path / "records.jsonl")
        assert run(config, "hits", "--from", "1990", "--to", "1992", "--window", "10") == 0
        out = tmp_path / "out"
        assert (out / "hits_series.csv").exists()
        assert (out / "hits_32.svg").exists()
        assert (out / "hits_53.svg").exists()

    def test_hits_window_beyond_int64_matches_a_covering_window(self, tmp_path):
        records = [classified_record(n, 1990 + n % 12, f"{FIELDS[n % 5]}A10", [f"{FIELDS[(n + 2) % 7]}B20"])
                   for n in range(40)]
        store_records(records, tmp_path / "records.jsonl")
        outputs = {}
        for window in ("100", "10000000000000000000"):  # from every start, each reaches past 2001
            config = write_config(tmp_path, endpoints=[], output_dir=str(tmp_path / window))
            assert run(config, "hits", "--from", "1990", "--to", "1995", "--window", window) == 0
            outputs[window] = {path.name: path.read_bytes() for path in sorted((tmp_path / window).iterdir())}
        assert "hits_series.csv" in outputs["100"]
        assert outputs["10000000000000000000"] == outputs["100"]

    def test_hits_warns_once_per_unconverged_window(self, tmp_path, caplog, capsys):
        config = write_config(tmp_path, endpoints=[])
        records = [
            classified_record(1, 1995, "53A35", ["32A10", "14B05"]),
            classified_record(2, 1996, "32A10", ["14B05"]),
        ]
        store_records(records, tmp_path / "records.jsonl")
        argv = ("hits", "--from", "1990", "--to", "1992")
        with caplog.at_level("WARNING"):
            assert run(config, *argv) == 0
        assert caplog.records == []
        converged_stdout = capsys.readouterr().out
        with caplog.at_level("WARNING"):
            assert run(config, *argv, "--max-iter", "1") == 0
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 3
        for year, message in zip((1990, 1991, 1992), warnings):
            assert f"window starting {year}" in message and "converged=False" in message
        assert capsys.readouterr().out == converged_stdout

    def test_hits_output_bytes_are_pinned(self, tmp_path):
        # 2000 seeded records over 1950-2010 with gapped years, some undated or unclassified
        rng = np.random.default_rng(2024)
        years = [y for y in range(1950, 2011) if not (1963 <= y <= 1967 or y in (1981, 1982, 1999))]
        records = []
        for n in range(2000):
            primary = f"{rng.choice(FIELDS)}A{rng.integers(10, 99)}"
            secondaries = [f"{rng.choice(FIELDS)}B{rng.integers(10, 99)}" for _ in range(rng.integers(0, 4))]
            rec = classified_record(n, int(rng.choice(years)), primary, secondaries)
            if n % 17 == 0:
                rec = dataclasses.replace(rec, date="")
            elif n % 13 == 0:
                rec = dataclasses.replace(rec, msc_primary="")
            records.append(rec)
        store_records(records, tmp_path / "records.jsonl")
        config = write_config(tmp_path, endpoints=[])
        assert run(config, "hits", "--from", "1945", "--to", "2005", "--window", "10") == 0
        out = tmp_path / "out"
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted([out / "hits_series.csv", *out.glob("hits_*.svg")])
        }
        assert digests == HITS_GOLDEN

    def test_forked_decoders_write_the_same_bytes(self, tmp_path, monkeypatch):
        records = [
            classified_record(n, 1990 + n % 12, f"{FIELDS[n % 5]}A{10 + n % 7}",
                              [f"{FIELDS[(n + k) % 7]}B20" for k in range(n % 4)])
            for n in range(60)
        ]
        store_records([*records, dataclasses.replace(records[3], msc_primary="05A15")], tmp_path / "records.jsonl")
        totals = tmp_path / "totals.tsv"
        totals.write_text("".join(f"{field}\t1000\n" for field in FIELDS), encoding="utf-8")
        outputs = {}
        sidecar = tmp_path / "records.jsonl.classifications"
        for name, chunks in (("serial", 1), ("forked", 3)):
            force_fork(monkeypatch, cpus=chunks, lines_per_process=10)
            config = write_config(tmp_path, endpoints=[], output_dir=str(tmp_path / name))
            sidecar.unlink(missing_ok=True)  # so that stats, and then hits, decode the store
            assert run(config, "stats", "--totals", str(totals)) == 0
            sidecar.unlink()
            assert run(config, "hits", "--from", "1990", "--to", "1995", "--window", "3") == 0
            for fmt in ("eprints", "mets", "ore"):
                assert run(config, "export", "--format", fmt) == 0
            outputs[name] = {path.name: path.read_bytes() for path in sorted((tmp_path / name).iterdir())}
        assert {"field_share.csv", "hits_series.csv", "records.ore.atom.xml"} <= outputs["serial"].keys()
        assert len([name for name in outputs["serial"] if name.endswith((".eprints.xml", ".mets.xml"))]) == 120
        assert outputs["forked"] == outputs["serial"]
        no_child_left()

    @pytest.mark.parametrize(
        "damage", ["truncated", "not-json", "wrong-shape", "directory", "unwritable", "invalid-code", "other-code"]
    )
    def test_sidecar_that_cannot_serve_is_a_miss(self, tmp_path, caplog, damage):
        records = [classified_record(n, 1990 + n % 6, f"{FIELDS[n % 5]}A10", [f"{FIELDS[(n + 1) % 7]}B20"])
                   for n in range(20)]
        store_records(records, tmp_path / "records.jsonl")
        totals = tmp_path / "totals.tsv"
        totals.write_text("".join(f"{field}\t1000\n" for field in FIELDS), encoding="utf-8")
        sidecar = tmp_path / "records.jsonl.classifications"
        outputs = {}
        for name in ("first", "damaged"):
            if name == "damaged":
                kept = sidecar.read_bytes()
                if damage == "truncated":
                    sidecar.write_bytes(kept[:len(kept) // 2])
                elif damage == "not-json":
                    sidecar.write_bytes(b"\xff not JSON")
                elif damage == "wrong-shape":
                    write_sidecar(tmp_path / "records.jsonl", [[1]])
                elif damage.endswith("-code"):  # the first record's primary, kept under its old key
                    sidecar.write_bytes(kept.replace(b'"05A10"', b'"bogus"' if damage == "invalid-code" else b'"11A10"', 1))
                else:
                    sidecar.unlink()
                    (tmp_path / ("records.jsonl.classifications" + (".tmp" if damage == "unwritable" else ""))).mkdir()
            config = write_config(tmp_path, endpoints=[], output_dir=str(tmp_path / name))
            caplog.clear()
            with caplog.at_level("DEBUG", logger="mathrepo"):
                assert run(config, "stats", "--totals", str(totals)) == 0
                assert run(config, "hits", "--from", "1990", "--to", "1995", "--window", "3") == 0
            logged = [r.getMessage() for r in caplog.records if r.levelname != "DEBUG"]
            outputs[name] = logged, {path.name: path.read_bytes() for path in sorted((tmp_path / name).iterdir())}
        assert outputs["damaged"] == outputs["first"]
        if damage in ("directory", "unwritable"):
            assert not sidecar.is_file()
            assert "classifications not kept" in caplog.text
        else:
            assert sidecar.read_bytes() == kept  # rewritten whole by the first read after the damage

    def test_stats_names_the_field_whose_count_exceeds_its_total(self, tmp_path, caplog):
        config = write_config(tmp_path, endpoints=[])
        store_records([classified_record(n, 1999, "53A35", []) for n in range(5)], tmp_path / "records.jsonl")
        totals = tmp_path / "totals.tsv"
        totals.write_text("53\t3\n", encoding="utf-8")
        assert run(config, "stats", "--totals", str(totals)) == 1
        assert "field '53': count 5 out of range for total 3" in caplog.text

    def test_hits_on_empty_store_warns_and_exits_zero(self, tmp_path, caplog, capsys):
        config = write_config(tmp_path, endpoints=[])
        store_records([], tmp_path / "records.jsonl")
        with caplog.at_level("WARNING"):
            assert run(config, "hits", "--from", "1990", "--to", "1991") == 0
        assert "empty" in caplog.text
        capsys.readouterr()
        assert run(config, "export", "--format", "eprints") == 0  # so does export, writing nothing
        assert capsys.readouterr().out == "export: 0 documents\n"
        assert not (tmp_path / "out").exists()


class TestServeFixturesCommand:
    def test_page_size_below_one_is_usage_error(self, tmp_path, caplog):
        assert main(["--config", str(write_config(tmp_path, endpoints=[])),
                     "serve-fixtures", "--dir", str(tmp_path), "--page-size", "0"]) == 2
        assert "--page-size must be at least 1, not 0" in caplog.text

    @pytest.mark.parametrize(
        "port, directory, message",
        [
            ("99999", ".", "--port must be from 0 to 65535, not 99999"),
            ("-1", ".", "--port must be from 0 to 65535, not -1"),
            ("0", "missing", "--dir is not a directory: {dir}"),
        ],
        ids=["port_too_large", "port_negative", "dir_missing"],
    )
    def test_bad_port_or_dir_is_usage_error(self, tmp_path, caplog, capsys, port, directory, message):
        config = write_config(tmp_path, endpoints=[])
        argv = ["serve-fixtures", "--dir", str(tmp_path / directory), "--port", port]
        assert main(["--config", str(config), *argv]) == 2
        assert message.format(dir=tmp_path / directory) in caplog.text
        assert capsys.readouterr().out == ""

    def test_empty_directory_serves_no_records(self, tmp_path, monkeypatch, capsys):
        def interrupted(server, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr("mathrepo.fixture_server.FixtureServer.wait", interrupted)
        (tmp_path / "empty").mkdir()
        config = write_config(tmp_path, endpoints=[])
        assert main(["--config", str(config), "serve-fixtures", "--dir", str(tmp_path / "empty")]) == 0
        assert capsys.readouterr().out.startswith("serving 0 fixture records at http://127.0.0.1:")

    def test_parser_knows_all_subcommands(self):
        from mathrepo.cli import build_parser

        parser = build_parser()
        text = parser.format_help()
        for name in ("harvest", "transform", "enrich", "export", "stats", "hits", "serve-fixtures"):
            assert name in text


class TestCollectorPause:
    """A batch stage runs with the cyclic collector paused, and `main` gives back the state it found."""

    def test_hits_scores_with_the_collector_paused(self, tmp_path, monkeypatch):
        _, config = stage_inputs(tmp_path)
        seen, scored = [], analytics.sliding_window_series

        def series(*args, **kwargs):
            seen.append(gc.isenabled())
            return scored(*args, **kwargs)

        monkeypatch.setattr(analytics, "sliding_window_series", series)
        assert gc.isenabled()
        assert run(config, "hits", "--from", "1998", "--to", "1999") == 0
        assert seen == [False]
        assert gc.isenabled()
        no_child_left()

    @pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
    @pytest.mark.parametrize("outcome", ["exit-0", "exit-1", "exit-2", "raises"])
    def test_collector_state_is_given_back(self, tmp_path, monkeypatch, outcome, enabled):
        store, config = stage_inputs(tmp_path)
        argv, code = ["hits", "--from", "1998", "--to", "1999"], {"exit-0": 0, "exit-1": 1, "exit-2": 2}.get(outcome)
        if outcome == "exit-1":  # a malformed store
            with open(store, "a", encoding="utf-8") as fh:
                fh.write('{"record_id": "broken"\n')
        elif outcome == "exit-2":  # a bad flag
            argv += ["--window", "0"]
        elif outcome == "raises":
            def broken(*args, **kwargs):
                raise RuntimeError("a stage that fails unexpectedly")

            monkeypatch.setattr(analytics, "sliding_window_series", broken)
        try:
            (gc.enable if enabled else gc.disable)()
            if code is None:
                with pytest.raises(RuntimeError):
                    run(config, *argv)
            else:
                assert run(config, *argv) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        no_child_left()

    def test_serve_fixtures_runs_collecting(self, tmp_path, monkeypatch, capsys):
        seen = []

        class Server:
            records, base_url = [], "http://127.0.0.1:1"

            def wait(self, timeout=None):
                seen.append(gc.isenabled())
                raise KeyboardInterrupt

            def close(self):
                seen.append("closed")

        monkeypatch.setattr("mathrepo.cli.serve_fixtures", lambda *args, **kwargs: Server())
        config = write_config(tmp_path, endpoints=[])
        assert main(["--config", str(config), "serve-fixtures", "--dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "serving 0 fixture records at http://127.0.0.1:1\n"
        assert seen == [True, "closed"]
        assert gc.isenabled()
        no_child_left()


def _probe(code: str) -> str:
    src = str(Path(mathrepo.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("module", ["requests", "numpy"])
def test_import_does_not_load(module):
    # HTTP goes through urllib, and only `hits` computes with numpy
    assert _probe(f"import sys, mathrepo, mathrepo.cli; print({module!r} in sys.modules)") == "False"


def test_spooled_payload_keeps_its_prefixes_without_the_serializers():
    # a spool's bytes must not depend on whether this process has also loaded mathrepo.serialize
    payload = (
        '<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/" xmlns:mets="http://www.loc.gov/METS/"'
        ' xmlns:xlink="http://www.w3.org/1999/xlink"><mets:FLocat xlink:href="http://example.org/a.pdf" /></oai_dc:dc>'
    )
    envelope = dc_envelope(
        "<record><header><identifier>oai:x:1</identifier><datestamp>2009-02-01</datestamp></header>"
        f"<metadata>{payload}</metadata></record>"
    )
    probe = (
        "import sys\n"
        "from mathrepo.oai_client import parse_oai_envelope, serialize_envelope\n"
        f"print(serialize_envelope(parse_oai_envelope({envelope!r})))\n"
        "print('mathrepo.serialize' in sys.modules)\n"
    )
    spooled, serializers_loaded = _probe(probe).splitlines()
    assert serializers_loaded == "False"
    assert '<mets:FLocat xlink:href="http://example.org/a.pdf" />' in spooled


def test_only_hits_loads_numpy(tmp_path):
    store, config = stage_inputs(tmp_path)
    store_records([classified_record(1, 1998, "53A35", ["32A10"]), classified_record(2, 1999, "32A10", [])], store)
    totals = tmp_path / "totals.tsv"
    totals.write_text("32\t100\n53\t100\n", encoding="utf-8")
    stages = [
        ["transform"], ["enrich"], ["export", "--format", "eprints"], ["stats", "--totals", str(totals)],
        ["hits", "--from", "1998", "--to", "1999"],
    ]
    probe = (
        "import json, sys\n"
        "from mathrepo.cli import main\n"
        "seen = []\n"
        f"for argv in {stages!r}:\n"
        f"    seen.append([argv[0], main(['--config', {str(config)!r}, *argv]), 'numpy' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    assert json.loads(_probe(probe).splitlines()[-1]) == [
        ["transform", 0, False], ["enrich", 0, False], ["export", 0, False], ["stats", 0, False],
        ["hits", 0, True],
    ]
    assert (tmp_path / "out" / "hits_series.csv").exists()
