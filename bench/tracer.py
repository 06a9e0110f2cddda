"""Spans and counters around the program's layer functions.

The tracer patches public layer functions in place, under every name a
caller uses: ``mathrepo.cli`` imports most of them by name, and
``mathrepo.enrich`` resolves to the function rather than the submodule, so
each function is replaced in every loaded ``mathrepo`` module whose
namespace holds it. Small helpers called from inside a layer (record ids,
MSC codes, datestamps) stay unwrapped, so their cost is part of the
caller's self time.

A span's self time is its duration minus the durations of its direct
children. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _bytes_out(args, result) -> dict:
    return {"serialize.bytes_out": len(result.encode("utf-8"))}


def _enrich_counts(args, result) -> dict:
    report = result[1]
    return {
        "enrich.matched": report.matched,
        "enrich.attempted": report.matched + report.unmatched + report.skipped,
    }


def _hits_counts(args, result) -> dict:
    return {
        "analytics.hits_iterations": result.iterations,
        "analytics.hits_converged": int(result.converged),
        "analytics.degenerate_windows": int(result.degenerate),
    }


# (span name, defining module, functions, counter hook). A hook runs after
# its span closes and returns the amounts to add to the pass's counters.
LAYERS = (
    ("oai_client.list_records", "mathrepo.oai_client", ("list_records",), None),
    ("oai_client.envelope_parse", "mathrepo.oai_client", ("parse_oai_envelope",), None),
    ("oai_client.spool_serialize", "mathrepo.oai_client", ("serialize_envelope",), None),
    ("parsers.oai_dc", "mathrepo.parsers", ("parse_oai_dc",), None),
    ("parsers.junii2", "mathrepo.parsers", ("parse_junii2",), None),
    ("parsers.citation", "mathrepo.parsers", ("parse_citation_string",), None),
    ("records.canonicalize", "mathrepo.records", ("canonical_from_dc", "canonical_from_junii2"), None),
    ("records.load", "mathrepo.records", ("load_records",),
     lambda args, result: {"records.records_loaded": len(result)}),
    ("records.store", "mathrepo.records", ("store_records",),
     lambda args, result: {"records.records_written": result}),
    ("enrich.table_load", "mathrepo.enrich", ("load_mr_table",), None),
    ("enrich.match", "mathrepo.enrich", ("enrich",), _enrich_counts),
    ("serialize.eprints", "mathrepo.serialize", ("to_eprints_xml",), _bytes_out),
    ("serialize.mets", "mathrepo.serialize", ("to_mets",), _bytes_out),
    ("serialize.ore", "mathrepo.serialize", ("to_ore_atom",), _bytes_out),
    ("analytics.field_share", "mathrepo.analytics", ("field_share_table",), None),
    ("analytics.graph_build", "mathrepo.analytics", ("build_msc_graph",),
     lambda args, result: {"analytics.records_scanned": len(args[0])}),
    ("analytics.hits", "mathrepo.analytics", ("hits",), _hits_counts),
    ("analytics.series", "mathrepo.analytics", ("sliding_window_series",), None),
    ("analytics.export_series", "mathrepo.analytics", ("export_series",), None),
)


def _http_counts(args, result) -> dict:
    return {"oai_client.bytes_in": len(result)}


class Tracer:
    """Records (pass, id, parent, name, start, end) spans and per-pass counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.pass_id = -1
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts = defaultdict(float)

    def call(self, name: str, fn, args, kwargs, hook=None):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self.spans.append(None)  # reserve the id in start order
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[f"{name}.raised"] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[sid] = (self.pass_id, sid, parent, name, start, end, frame[1])
            self.counts[f"{name}.calls"] += 1
            self.counts[f"{name}.self_s"] += (end - start) - frame[1]
        if hook is not None:
            for key, amount in hook(args, result).items():
                self.counts[key] += amount
        return result

    def _wrapper(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return traced

    def install(self) -> None:
        """Patch every layer function under each name a loaded module binds it to."""
        modules = [m for n, m in list(sys.modules.items()) if n == "mathrepo" or n.startswith("mathrepo.")]
        for name, module, functions, hook in LAYERS:
            for fn_name in functions:
                fn = getattr(sys.modules[module], fn_name)
                wrapped = self._wrapper(name, fn, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapped)
        transport = sys.modules["mathrepo.oai_client"].HttpTransport
        get = transport.get
        tracer = self

        def traced_get(self_, *args, **kwargs):
            return tracer.call("oai_client.http_get", get, (self_, *args), kwargs, _http_counts)

        self._patch(transport, "get", traced_get)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for pass_id, sid, parent, name, start, end, child_s in self.spans:
                fh.write(
                    json.dumps(
                        {"pass": pass_id, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "self_s": (end - start) - child_s}
                    )
                    + "\n"
                )
