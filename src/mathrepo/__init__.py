"""Aggregation toolkit for mathematics subject repositories.

Harvests bibliographic metadata over OAI-PMH, normalizes two metadata
dialects into a canonical record model, enriches records with subject
classifications and review identifiers, serializes to repository-exchange
formats, and computes field-activity statistics including hub/authority
scores over classification co-occurrence graphs.
"""
