"""Fixed reference work that measures the host's current speed.

The host gives the benchmark a share of a few cores of a shared machine, and
the speed of that share drifts by a quarter or more over stretches of
seconds to minutes, longer than a run. A run therefore times this reference
next to every pass and every set-up and scales the measured seconds to a
nominal host on which the reference takes ``REFERENCE_S``:

    nominal_s = measured_s * REFERENCE_S / reference_s

The reference does the kind of work the pipeline does, in pure Python and
the C parsers: JSON decoding and encoding, dict and list building, sorting,
string handling and ElementTree parsing. It is part of the benchmark, not of
the program, so a change to the program cannot change it. It keeps its
working set to a few hundred kilobytes, so it does not raise the peak memory
of the process that runs it.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from time import perf_counter

# Seconds the reference takes on the nominal host. Any fixed value works;
# this is about its median on a 2-vCPU cloud host.
REFERENCE_S = 0.15
ROUNDS = 16

_rng = random.Random(20091001)
_WORDS = "minimal regular digraphs girth spectral algebra trimmed sums vertex Schur Galois ergodic".split()
_RECORDS = [
    {
        "id": f"oai:ref:{i}",
        "title": " ".join(_rng.choice(_WORDS) for _ in range(7)),
        "creators": [f"{_rng.choice(_WORDS).upper()}, {_rng.choice(_WORDS)}" for _ in range(2)],
        "year": 1940 + _rng.randrange(70),
        "msc": [f"{_rng.randrange(98):02d}A{_rng.randrange(100):02d}" for _ in range(3)],
    }
    for i in range(600)
]
_JSON = json.dumps(_RECORDS)
_XML = "<list>" + "".join(
    f"<record><id>{r['id']}</id><title>{r['title']}</title><year>{r['year']}</year>"
    + "".join(f"<msc>{m}</msc>" for m in r["msc"])
    + "</record>"
    for r in _RECORDS
) + "</list>"


def _round() -> int:
    records = json.loads(_JSON)
    by_field: dict[str, list[str]] = {}
    for rec in records:
        for code in rec["msc"]:
            by_field.setdefault(code[:2], []).append(rec["id"])
    records.sort(key=lambda r: (r["year"], r["title"].lower(), r["id"]))
    pairs = {(a[:2], b[:2]) for rec in records for a in rec["msc"] for b in rec["msc"] if a != b}
    root = ET.fromstring(_XML)
    titles = [el.findtext("title", "").split() for el in root.iter("record")]
    return len(json.dumps(records)) + len(by_field) + len(pairs) + len(titles)


def measure() -> float:
    """Seconds the reference work takes now."""
    start = perf_counter()
    for _ in range(ROUNDS):
        _round()
    return perf_counter() - start

