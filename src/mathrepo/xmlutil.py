"""Namespace-agnostic helpers for element-tree access.

Harvested XML arrives with and without namespaces (and with varying
prefixes), so all structural matching is done on local names.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET


def parse_xml(data, error: type[Exception], what: str) -> ET.Element:
    """Parse XML text or bytes; a parse failure is ``error("malformed <what>: ...")``."""
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise error(f"malformed {what}: {exc}") from exc


def local_name(tag) -> str:
    if not isinstance(tag, str):
        return ""  # comments / processing instructions
    return tag.rsplit("}", 1)[-1]


def children(elem: ET.Element, name: str) -> list[ET.Element]:
    """Direct children whose local name is ``name``."""
    return [child for child in elem if local_name(child.tag) == name]


def first_child(elem: ET.Element, name: str) -> ET.Element | None:
    for child in elem:
        if local_name(child.tag) == name:
            return child
    return None


def text_of(elem: ET.Element, name: str) -> str:
    """Stripped text of the first child named ``name``; "" when there is none."""
    child = first_child(elem, name)
    return (child.text or "").strip() if child is not None else ""


def collapse_ws(text: str | None) -> str:
    """Trim and collapse runs of whitespace to single spaces."""
    if not text:
        return ""
    return " ".join(text.split())
