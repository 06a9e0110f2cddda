"""Aggregation toolkit for mathematics subject repositories.

Harvests bibliographic metadata over OAI-PMH, normalizes two metadata
dialects into a canonical record model, enriches records with subject
classifications and review identifiers, serializes to repository-exchange
formats, and computes field-activity statistics including hub/authority
scores over classification co-occurrence graphs.
"""

from .analytics import (
    AnalyticsError,
    FieldShareRow,
    HitsResult,
    MscGraph,
    WindowEntry,
    WindowSeries,
    build_msc_graph,
    export_series,
    field_share_table,
    hits,
    rank,
    share_rows_from_counts,
    sliding_window_series,
    truncated_percent,
)
from .enrich import (
    EnrichReport,
    MatchKey,
    MrEntry,
    MrTableError,
    enrich,
    load_mr_table,
    make_match_key,
    normalize_journal,
)
from .errors import MathRepoError
from .fixture_server import FixtureServer, serve_fixtures
from .msc import is_msc_code, msc_top_level
from .oai_client import (
    EndpointConfig,
    EnvelopeError,
    HarvestError,
    HttpTransport,
    OaiProtocolError,
    OaiRecord,
    list_records,
    parse_oai_envelope,
    serialize_envelope,
)
from .parsers import (
    Citation,
    DcRecord,
    Junii2Record,
    MetadataError,
    format_citation,
    parse_citation_string,
    parse_junii2,
    parse_oai_dc,
)
from .records import (
    CanonicalRecord,
    NameParts,
    RecordError,
    RelatedUrl,
    StoreError,
    canonical_from_dc,
    canonical_from_junii2,
    load_records,
    make_record_id,
    split_name,
    store_records,
)
from .serialize import (
    AggregatedResource,
    Aggregation,
    DepositError,
    SerializationError,
    from_eprints_xml,
    post_package,
    to_eprints_xml,
    to_mets,
    to_ore_atom,
)

__version__ = "0.1.0"
