"""Mathematics Subject Classification code helpers."""

import re

# Full codes are two ASCII digits, a letter or dash, and two alphanumerics
# ("53A35", "20-xx"); the bare two-digit top-level form ("53") is also valid.
_MSC_CODE_RE = re.compile(r"\d{2}(?:[A-Za-z-][0-9A-Za-z]{2})?\Z", re.ASCII)


def is_msc_code(code: str) -> bool:
    """True when ``code`` is a valid MSC code in full or two-digit form."""
    return bool(_MSC_CODE_RE.match(code))


def msc_top_level(code: str) -> str:
    """Two-digit top-level research field of an MSC code ("53A35" -> "53").

    Leading zeros are part of the field name ("05C20" -> "05").
    """
    if not is_msc_code(code):
        raise ValueError(f"invalid MSC code: {code!r}")
    return code[:2]
