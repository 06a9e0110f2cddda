"""Mathematics Subject Classification code helpers."""

import itertools
import re

# Full codes are two ASCII digits, a letter or dash, and two alphanumerics
# ("53A35", "20-xx"); the bare two-digit top-level form ("53") is also valid.
_MSC_CODE_RE = re.compile(r"\d{2}(?:[A-Za-z-][0-9A-Za-z]{2})?\Z", re.ASCII)


def is_msc_code(code: str) -> bool:
    """True when ``code`` is a valid MSC code in full or two-digit form."""
    return bool(_MSC_CODE_RE.match(code))


def msc_fields(codes: list[str]) -> list[str]:
    """Each code's two-digit top-level field ("53A35" -> "53", "05C20" -> "05"). The codes are
    matched in one C-level pass; the first that is not a code raises ``ValueError``, and one that
    is not a str the match's ``TypeError``."""
    for code in itertools.filterfalse(_MSC_CODE_RE.match, codes):
        raise ValueError(f"invalid MSC code: {code!r}")
    return [code[:2] for code in codes]
