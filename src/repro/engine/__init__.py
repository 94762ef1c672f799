"""MiniX: the single-site XML DBMS substrate (eXist stand-in)."""

from repro.engine.database import XMLEngine, serialize_sequence
from repro.engine.indexes import (
    CollectionIndex,
    candidate_documents,
    tokenize_text,
)
from repro.engine.stats import EngineStats, ExecOptions, QueryResult
from repro.engine.store import DocumentStore, StoredCollection, StoredDocument

__all__ = [
    "CollectionIndex",
    "DocumentStore",
    "EngineStats",
    "ExecOptions",
    "QueryResult",
    "StoredCollection",
    "StoredDocument",
    "XMLEngine",
    "candidate_documents",
    "serialize_sequence",
    "tokenize_text",
]
