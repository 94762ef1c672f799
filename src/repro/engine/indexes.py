"""Indexes of the storage engine, built over the binary node tables.

Mirrors what eXist set up for the paper's experiments ("some indexes were
automatically created by the eXist DBMS to speed up text search operations
and path expressions evaluation"):

* :class:`FullTextIndex` — inverted word index over all text content;
  answers ``contains`` predicates with a (sound) superset of documents.
* :class:`ValueIndex` — maps ``(element label, value)`` to documents.
* :class:`ElementIndex` — maps element/attribute labels to documents;
  answers existential path tests.
* :class:`PathIndex` — maps root-to-node label paths to documents.
* :class:`RangeIndex` — ordered values for ``<``/``>`` predicates.

Indexes ingest :class:`~repro.datamodel.binary.BinaryXMLDocument` tables
(one linear pass over the preorder arrays — no DOM). Every lookup is
document-level and returns a sound superset.

:func:`candidate_documents` is the one consumer of the lookups: given
a query's extracted selection predicate it intersects
index probes into the documents that must actually be parsed.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Optional

from repro.datamodel.binary import (
    KIND_ATTRIBUTE,
    KIND_ELEMENT,
    KIND_TEXT,
    BinaryXMLDocument,
)
from repro.paths.ast import Axis
from repro.paths.predicates import (
    And,
    Comparison,
    Contains,
    Exists,
    Or,
    Predicate,
    StartsWith,
)

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def tokenize_text(text: str) -> set[str]:
    """Lowercased word tokens of a text value."""
    return {match.group(0).lower() for match in _WORD_RE.finditer(text)}


def _immediate_text(binary: BinaryXMLDocument, index: int) -> str | None:
    """Concatenated direct text children of an element, None when none."""
    texts = [
        binary.text_value(child)
        for child in binary.children(index)
        if binary.kinds[child] == KIND_TEXT
    ]
    return "".join(texts) if texts else None


class FullTextIndex:
    """Inverted index: token → document names."""

    def __init__(self) -> None:
        self._postings: dict[str, set[str]] = {}

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            if binary.kinds[index] != KIND_ELEMENT:
                for token in tokenize_text(binary.text_value(index)):
                    self._postings.setdefault(token, set()).add(name)

    def remove_document(self, name: str) -> None:
        for postings in self._postings.values():
            postings.discard(name)

    def lookup_substring(self, needle: str) -> set[str]:
        """Documents whose text *may* contain ``needle``.

        ``needle`` is split into word tokens; a candidate document must
        hold, for every needle token, some vocabulary token containing it
        as a substring (handles stemming-free matches like ``good`` in
        ``goodness``). A needle with no word characters cannot be pruned.
        """
        tokens = tokenize_text(needle)
        if not tokens:
            return self.all_documents()
        result: set[str] | None = None
        for token in tokens:
            matching: set[str] = set()
            for vocab, postings in self._postings.items():
                if token in vocab:
                    matching |= postings
            result = matching if result is None else (result & matching)
        return result or set()

    def all_documents(self) -> set[str]:
        union: set[str] = set()
        for postings in self._postings.values():
            union |= postings
        return union


class ValueIndex:
    """Equality index: (element label, exact value) → document names."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], set[str]] = {}
        self._labels: set[str] = set()

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            kind = binary.kinds[index]
            if kind == KIND_ATTRIBUTE:
                label = "@" + (binary.name_of(index) or "")
                text = binary.text_value(index)
            elif kind == KIND_ELEMENT:
                label = binary.name_of(index) or ""
                text = _immediate_text(binary, index)
                if text is None:
                    continue
            else:
                continue
            self._entries.setdefault((label, text), set()).add(name)
            self._labels.add(label)

    def remove_document(self, name: str) -> None:
        for postings in self._entries.values():
            postings.discard(name)

    def covers_label(self, label: str) -> bool:
        """Is this label indexed at all (i.e. can a lookup be trusted)?"""
        return label in self._labels

    def lookup(self, label: str, value: str) -> set[str]:
        """Documents holding an element/attribute ``label`` with ``value``."""
        return set(self._entries.get((label, value), ()))


class PathIndex:
    """Structural index: root-to-node label paths → document names.

    Keys are label sequences like ``("Store", "Items", "Item",
    "Section")`` — the structural summary eXist and most native XML
    stores maintain. It answers existential tests (does any document
    contain a node reachable by this path?) more precisely than the
    label-only :class:`ElementIndex`, including simple descendant
    patterns (suffix matching).
    """

    def __init__(self) -> None:
        self._postings: dict[tuple[str, ...], set[str]] = {}

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            if binary.kinds[index] != KIND_TEXT:
                self._postings.setdefault(
                    binary.path_labels(index), set()
                ).add(name)

    def remove_document(self, name: str) -> None:
        for postings in self._postings.values():
            postings.discard(name)

    def lookup_exact(self, labels: tuple[str, ...]) -> set[str]:
        """Documents containing a node at exactly this root-to-node path."""
        return set(self._postings.get(labels, ()))

    def lookup_suffix(self, labels: tuple[str, ...]) -> set[str]:
        """Documents containing a node whose path *ends with* ``labels``.

        Answers leading-``//`` patterns: ``//Items/Item`` matches any
        stored path with the suffix ``("Items", "Item")``.
        """
        result: set[str] = set()
        size = len(labels)
        for key, postings in self._postings.items():
            if len(key) >= size and key[-size:] == labels:
                result |= postings
        return result


class RangeIndex:
    """Ordered index: per element label, values sorted for range lookups.

    Answers ``<``, ``<=``, ``>`` and ``>=`` predicates with a sound
    document superset that mirrors the comparison semantics of
    :mod:`repro.paths.predicates`: values that parse as numbers compare
    numerically, everything else lexicographically — so a numeric probe
    must consult both the numeric entries (numerically) and the
    non-numeric entries (as strings), and a non-numeric probe consults
    every entry as a string.
    """

    def __init__(self) -> None:
        # label -> ([(float, doc)], [(raw, doc)] non-numeric, [(raw, doc)] all)
        self._numeric: dict[str, list[tuple[float, str]]] = {}
        self._non_numeric: dict[str, list[tuple[str, str]]] = {}
        self._all: dict[str, list[tuple[str, str]]] = {}
        self._sorted = True
        self._sort_lock = threading.Lock()

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            if binary.kinds[index] != KIND_ELEMENT:
                continue
            raw = _immediate_text(binary, index)
            if raw is None:
                continue
            label = binary.name_of(index) or ""
            self._all.setdefault(label, []).append((raw, name))
            try:
                self._numeric.setdefault(label, []).append((float(raw), name))
            except ValueError:
                self._non_numeric.setdefault(label, []).append((raw, name))
        self._sorted = False

    def remove_document(self, name: str) -> None:
        for table in (self._numeric, self._non_numeric, self._all):
            for label in table:
                table[label] = [
                    entry for entry in table[label] if entry[1] != name
                ]

    def covers_label(self, label: str) -> bool:
        return label in self._all

    def lookup(self, label: str, op: str, value) -> set[str]:
        """Documents with a ``label`` node standing in ``op`` to ``value``."""
        self._ensure_sorted()
        result: set[str] = set()
        try:
            numeric_value: float | None = float(value)
        except (TypeError, ValueError):
            numeric_value = None
        if numeric_value is not None:
            result |= _range_scan(
                self._numeric.get(label, []), op, numeric_value
            )
            # Non-numeric stored values compare against str(value).
            result |= _range_scan(
                self._non_numeric.get(label, []), op, str(value)
            )
        else:
            result |= _range_scan(self._all.get(label, []), op, str(value))
        return result

    def _ensure_sorted(self) -> None:
        """Sort the posting lists on the first lookup after an ingest.

        Concurrent queries share this index, and ``list.sort`` empties
        the list it is sorting for the duration of the sort — a lookup
        reading one meanwhile would see no entries and prune every
        document, which breaks the superset guarantee. So the sort runs
        under a lock, and a lookup that waited re-checks ``_sorted``
        instead of sorting again."""
        if self._sorted:
            return
        with self._sort_lock:
            if self._sorted:
                return
            for table in (self._numeric, self._non_numeric, self._all):
                for label in table:
                    table[label].sort(key=lambda entry: (entry[0],))
            self._sorted = True


def _range_scan(entries, op: str, value) -> set[str]:
    """Documents whose entry value satisfies ``value_entry op value``."""
    keys = [entry[0] for entry in entries]
    if op in ("<", "<="):
        cut = (
            bisect.bisect_left(keys, value)
            if op == "<"
            else bisect.bisect_right(keys, value)
        )
        return {doc for _, doc in entries[:cut]}
    if op in (">", ">="):
        cut = (
            bisect.bisect_right(keys, value)
            if op == ">"
            else bisect.bisect_left(keys, value)
        )
        return {doc for _, doc in entries[cut:]}
    raise ValueError(f"range lookup does not support operator {op!r}")


class ElementIndex:
    """Presence index: element/attribute label → document names."""

    def __init__(self) -> None:
        self._postings: dict[str, set[str]] = {}

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            kind = binary.kinds[index]
            if kind == KIND_ELEMENT:
                self._postings.setdefault(
                    binary.name_of(index) or "", set()
                ).add(name)
            elif kind == KIND_ATTRIBUTE:
                self._postings.setdefault(
                    "@" + (binary.name_of(index) or ""), set()
                ).add(name)

    def remove_document(self, name: str) -> None:
        for postings in self._postings.values():
            postings.discard(name)

    def lookup(self, label: str) -> set[str]:
        """Documents containing at least one node with ``label``."""
        return set(self._postings.get(label, set()))


# ----------------------------------------------------------------------
# Index-assisted document pruning
# ----------------------------------------------------------------------
def candidate_documents(
    collection, predicate: Optional[Predicate]
) -> tuple[list[str], int]:
    """``(candidate document names, index lookups performed)`` for a
    query's selection predicate over one stored collection.

    Intersects index lookups to compute the documents that must actually
    be parsed; anything the indexes cannot answer falls back to "all
    documents" — pruning is an optimization, never a correctness
    requirement. Soundness: the predicate parts extracted by
    :mod:`repro.xquery.analysis` are *necessary* conditions for a
    document to contribute query results, and each index lookup returns
    a superset of the documents satisfying its atom, so the intersection
    is a superset of the contributing documents.

    Pure — all state is the call's own — so concurrent queries probing
    one collection each get their own lookup count. Whether to use the
    indexes at all is the caller's decision (``XMLEngine.scan_candidates``).
    """
    all_names = collection.names()
    if predicate is None:
        return all_names, 0
    candidates, lookups = _candidates_for(collection, predicate)
    if candidates is None:
        return all_names, lookups
    # Preserve store order for determinism.
    return [name for name in all_names if name in candidates], lookups


def _candidates_for(
    collection, predicate: Predicate
) -> tuple[Optional[set[str]], int]:
    """Document-name superset for ``predicate`` (None = no pruning) and
    the number of index lookups spent finding it."""
    if isinstance(predicate, And):
        result: Optional[set[str]] = None
        lookups = 0
        for part in predicate.parts:
            candidates, spent = _candidates_for(collection, part)
            lookups += spent
            if candidates is not None:
                result = candidates if result is None else result & candidates
        return result, lookups
    if isinstance(predicate, Or):
        union: set[str] = set()
        lookups = 0
        for part in predicate.parts:
            candidates, spent = _candidates_for(collection, part)
            lookups += spent
            if candidates is None:
                return None, lookups  # one unprunable branch defeats the union
            union |= candidates
        return union, lookups
    if isinstance(predicate, Contains):
        return collection.fulltext.lookup_substring(predicate.needle), 1
    if isinstance(predicate, StartsWith):
        # A value starting with the prefix contains the prefix's tokens.
        return collection.fulltext.lookup_substring(predicate.prefix), 1
    if isinstance(predicate, Comparison) and predicate.op == "=":
        label = _terminal_label(predicate.path)
        if label is not None and collection.values.covers_label(label):
            return collection.values.lookup(label, str(predicate.value)), 1
        return None, 0
    if isinstance(predicate, Comparison) and predicate.op in ("<", "<=", ">", ">="):
        label = _terminal_label(predicate.path)
        if (
            label is not None
            and not label.startswith("@")
            and collection.ranges.covers_label(label)
        ):
            return (
                collection.ranges.lookup(label, predicate.op, predicate.value),
                1,
            )
        return None, 0
    if isinstance(predicate, Exists):
        label = _terminal_label(predicate.path)
        if label is None:
            return None, 0
        structural = _structural_lookup(collection, predicate.path)
        if structural is not None:
            return structural, 1
        return collection.elements.lookup(label), 1
    return None, 0


def _structural_lookup(collection, path) -> Optional[set[str]]:
    """Use the structural path index when the path is exact enough.

    Simple child-axis paths map to an exact structural key; a single
    leading ``//`` followed by child steps maps to a suffix probe.
    Anything else (None) falls back to the label index.
    """
    steps = path.steps
    if any(step.is_wildcard or step.position is not None for step in steps):
        return None
    labels = tuple(
        ("@" + step.name) if step.is_attribute else step.name
        for step in steps
    )
    if all(step.axis is Axis.CHILD for step in steps):
        return collection.paths.lookup_exact(labels)
    if steps[0].axis is Axis.DESCENDANT and all(
        step.axis is Axis.CHILD for step in steps[1:]
    ):
        return collection.paths.lookup_suffix(labels)
    return None


def _terminal_label(path) -> Optional[str]:
    """The index label of a path's last step (None for a wildcard)."""
    last = path.last
    if last.is_wildcard:
        return None
    return ("@" + last.name) if last.is_attribute else last.name
