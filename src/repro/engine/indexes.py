"""Indexes of the storage engine, built over the binary node tables.

Mirrors what eXist set up for the paper's experiments ("some indexes were
automatically created by the eXist DBMS to speed up text search operations
and path expressions evaluation"). One :class:`CollectionIndex` per
stored collection owns three families:

* :class:`FullTextIndex` — inverted word index over all text content,
  built on its first lookup; answers ``contains``/``starts-with`` with a
  superset of documents.
* :class:`RangeIndex` — per element or attribute label, the values kept
  in order; answers ``=``, ``<``, ``<=``, ``>``, ``>=``.
* :class:`PathIndex` — root-to-node label paths; answers existential
  tests, exactly or by suffix (a bare label is a one-label suffix).

**One pass, and no tokens until a text lookup.**
:meth:`CollectionIndex.add_document` walks a document's preorder table
once: each node's label, root-to-node path and text are computed there
and posted to the value and path families. The full-text family only
records the table; the first :meth:`FullTextIndex.lookup_substring`
tokenizes every table recorded since, so a collection no text query
reads — every point lookup, every site with indexes off — is never
tokenized.

**One comparison rule.** A stored value and a probe compare numerically
when both parse as numbers and as strings otherwise — the rule of
:mod:`repro.paths.predicates`, whose :func:`~repro.paths.predicates.as_number`
decides "parses" for both sides here too, so ``= 5`` finds ``5``,
``5.0`` and ``05`` exactly as the scan does.

Every lookup is document-level and returns a sound superset.
:func:`candidate_documents` is the one consumer of the lookups: given
a query's extracted selection predicate it intersects
index probes into the documents that must actually be evaluated.

:class:`ValueSummary` is what a site tells the planner about a stored
collection's :class:`RangeIndex` (:meth:`RangeIndex.summary`): enough to
*prove*, without touching the site, that :func:`candidate_documents`
would come back empty for a comparison predicate — which is how the
decomposer routes a query by value.
"""

from __future__ import annotations

import bisect
import re
import threading
import zlib
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from repro.datamodel.binary import (
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
    as_number,
)

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def tokenize_text(text: str) -> set[str]:
    """Lowercased word tokens of a text value."""
    return {word.lower() for word in _WORD_RE.findall(text)}


class _Postings:
    """key → names of the documents holding it; live keys only."""

    def __init__(self) -> None:
        self._postings: dict = {}

    def post(self, name: str, keys: Iterable) -> None:
        for key in keys:
            self._postings.setdefault(key, set()).add(name)

    def remove_document(self, name: str) -> None:
        """A key whose last document goes is dropped with it."""
        emptied = []
        for key, documents in self._postings.items():
            documents.discard(name)
            if not documents:
                emptied.append(key)
        for key in emptied:
            del self._postings[key]

    def documents(self, key) -> set[str]:
        return set(self._postings.get(key, ()))

    def __contains__(self, key) -> bool:
        return key in self._postings

    def __iter__(self):
        return iter(self._postings)

    def __len__(self) -> int:
        return len(self._postings)


class FullTextIndex(_Postings):
    """Inverted index: token → document names, built lazily.

    :meth:`add_document` records a document's table and nothing else;
    the first :meth:`lookup_substring` after it tokenizes every recorded
    table and posts its tokens. Recording, removal and lookup hold one
    lock, so a lookup never reads a half-built posting map, and a
    document removed before the build is dropped from the pending
    tables (O(1)) instead of being posted. The posting map counts (and
    iterates) only what has been built.
    """

    def __init__(self) -> None:
        super().__init__()
        self._pending: dict[str, BinaryXMLDocument] = {}
        self._lock = threading.Lock()

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        with self._lock:
            self._pending[name] = binary

    def remove_document(self, name: str) -> None:
        with self._lock:
            if self._pending.pop(name, None) is None:
                super().remove_document(name)

    def lookup_substring(self, needle: str) -> Optional[set[str]]:
        """Documents whose text *may* contain ``needle``.

        ``needle`` is split into word tokens; a candidate document must
        hold, for every needle token, some vocabulary token containing it
        as a substring (handles stemming-free matches like ``good`` in
        ``goodness``). A needle with no word characters cannot be pruned
        (None).
        """
        with self._lock:
            pending, self._pending = self._pending, {}
            for name, binary in pending.items():
                self.post(name, _document_tokens(binary))
            result: Optional[set[str]] = None
            for token in tokenize_text(needle):
                matching: set[str] = set()
                for vocab, postings in self._postings.items():
                    if token in vocab:
                        matching |= postings
                result = matching if result is None else (result & matching)
            return result


def _document_tokens(binary: BinaryXMLDocument) -> set[str]:
    """The tokens of a document's text and attribute values, each
    distinct value tokenized once."""
    string = binary.pool.get
    tokens: set[str] = set()
    for value in {
        value
        for kind, value in zip(binary.kinds, binary.values)
        if kind != KIND_ELEMENT and value >= 0
    }:
        tokens |= tokenize_text(string(value))
    return tokens


class PathIndex(_Postings):
    """Structural index: root-to-node label paths → document names.

    Keys are label sequences like ``("Store", "Items", "Item",
    "Section")`` (attributes as ``"@id"``) — the structural summary
    eXist and most native XML stores maintain. It answers existential
    tests (does any document contain a node reachable by this path?)
    exactly, and simple descendant patterns by suffix; a node's label is
    the last component of its path, so "some node is labelled ``l``" is
    the one-label suffix ``(l,)``.
    """

    def lookup_exact(self, labels: tuple[str, ...]) -> set[str]:
        """Documents containing a node at exactly this root-to-node path."""
        return self.documents(labels)

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
    """Ordered value index: per element or attribute label, the values
    sorted for ``=``, ``<``, ``<=``, ``>`` and ``>=`` lookups.

    A lookup returns a sound document superset under the comparison
    rule of :mod:`repro.paths.predicates`: values that parse as numbers
    compare numerically, everything else lexicographically — so a
    numeric probe consults the numeric entries (numerically) and the
    non-numeric entries (as strings), and a non-numeric probe consults
    every entry as a string. A node's value is its string value: the
    text of an attribute or of an element with text content, ``""`` for
    an element with no content; an element with element content is not
    ordered — its documents are candidates of every lookup on its label.
    """

    def __init__(self) -> None:
        # label -> [(value, document)]: values that parse as numbers (as
        # floats), those that do not, and all of them as strings.
        self._numeric: dict[str, list[tuple[float, str]]] = {}
        self._non_numeric: dict[str, list[tuple[str, str]]] = {}
        self._all: dict[str, list[tuple[str, str]]] = {}
        self._unordered = _Postings()
        self._sorted = True
        self._sort_lock = threading.Lock()

    def post(
        self,
        name: str,
        values: Iterable[tuple[str, str]],
        unordered: Iterable[str] = (),
    ) -> None:
        """Add one document's ``(label, value)`` pairs, and the labels
        of its elements with element content."""
        for label, raw in values:
            self._all.setdefault(label, []).append((raw, name))
            number = as_number(raw)
            if number is None:
                self._non_numeric.setdefault(label, []).append((raw, name))
            else:
                self._numeric.setdefault(label, []).append((number, name))
        self._unordered.post(name, unordered)
        self._sorted = False

    def remove_document(self, name: str) -> None:
        for table in (self._numeric, self._non_numeric, self._all):
            for label in list(table):
                kept = [entry for entry in table[label] if entry[1] != name]
                if kept:
                    table[label] = kept
                else:
                    del table[label]
        self._unordered.remove_document(name)

    def __len__(self) -> int:
        return (
            len(self._all)
            + len(self._numeric)
            + len(self._non_numeric)
            + len(self._unordered)
        )

    def covers_label(self, label: str) -> bool:
        """Is this label indexed at all (i.e. can a lookup be trusted)?"""
        return label in self._all or label in self._unordered

    def unordered_documents(self, label: str) -> set[str]:
        """Documents holding ``label`` as an element with element content."""
        return self._unordered.documents(label)

    def lookup(self, label: str, op: str, value) -> set[str]:
        """Documents with a ``label`` node standing in ``op`` to ``value``."""
        self._ensure_sorted()
        numeric = self._numeric.get(label)
        # With no numeric entry every stored value compares as a string,
        # whatever the probe parses as.
        number = as_number(value) if numeric else None
        if number is None:
            result = _range_scan(self._all.get(label, ()), op, str(value))
        else:
            result = _range_scan(numeric, op, number)
            # Non-numeric stored values compare against str(value).
            result |= _range_scan(
                self._non_numeric.get(label, ()), op, str(value)
            )
        if label in self._unordered:
            result |= self.unordered_documents(label)
        return result

    def summary(self) -> "ValueSummary":
        """What the planner may know of this index without probing it.

        Built from the already partitioned posting lists — no value is
        parsed again. Held under the sort lock: a concurrent lookup's
        ``list.sort`` empties the list it sorts, and a summary that
        missed a value would stop being a superset.
        """
        labels = {}
        with self._sort_lock:
            for label in self._all.keys() | set(self._unordered):
                numbers = {entry[0] for entry in self._numeric.get(label, ())}
                strings = {
                    entry[0] for entry in self._non_numeric.get(label, ())
                }
                ordered = bool(numbers) and not strings
                keys = {_number_key(number) for number in numbers} | strings
                labels[label] = LabelSummary(
                    keys=array("I", sorted(set(map(_key_hash, keys)))),
                    low=min(numbers) if ordered else None,
                    high=max(numbers) if ordered else None,
                    unordered=label in self._unordered,
                )
        return ValueSummary(labels)

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
                for entries in table.values():
                    entries.sort(key=itemgetter(0))
            self._sorted = True


def _range_scan(entries, op: str, value) -> set[str]:
    """Documents whose entry value satisfies ``value_entry op value``.

    The sorted posting list is bisected in place: a 1-tuple sorts right
    before every ``(value, document)`` entry of that value, so ``low`` is
    the first of them (no key list, no key function) and the equal
    entries run from there to ``high``."""
    low = high = bisect.bisect_left(entries, (value,))
    if op in ("=", "<=", ">"):
        while high < len(entries) and entries[high][0] == value:
            high += 1
    if op == "=":
        span = entries[low:high]
    elif op in ("<", "<="):
        span = entries[:high]
    elif op in (">", ">="):
        span = entries[high:]
    else:
        raise ValueError(f"value lookup does not support operator {op!r}")
    return {document for _, document in span}


class CollectionIndex:
    """The indexes of one stored collection: the value and path families
    fed by one pass over each document's node table, the full-text
    family by its first lookup."""

    def __init__(self) -> None:
        self.fulltext = FullTextIndex()
        self.values = RangeIndex()
        self.paths = PathIndex()

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        """Index one document: a single preorder walk computes each
        node's label, root-to-node path and text, then the value and
        path families take their postings; the full-text family records
        the table for its first lookup."""
        pool_get = binary.pool.get
        name_ids, value_ids, parents = binary.names, binary.values, binary.parents
        # Root-to-node path by position (None for a text node).
        paths: list[Optional[tuple[str, ...]]] = []
        # Element position -> its direct text; None once it holds an element.
        content: dict[int, Optional[list[str]]] = {}
        values: list[tuple[str, str]] = []
        for index, kind in enumerate(binary.kinds):
            parent = parents[index]
            if kind == KIND_ELEMENT:
                label = pool_get(name_ids[index])
                content[index] = []
                if parent >= 0:
                    content[parent] = None
            else:
                value_id = value_ids[index]
                text = pool_get(value_id) if value_id >= 0 else ""
                if kind == KIND_TEXT:
                    parts = content[parent]
                    if parts is not None:
                        parts.append(text)
                    paths.append(None)
                    continue
                label = "@" + pool_get(name_ids[index])
                values.append((label, text))
            paths.append((label,) if parent < 0 else paths[parent] + (label,))
        unordered = set()
        for index, parts in content.items():
            if parts is None:
                unordered.add(paths[index][-1])
            else:
                values.append((paths[index][-1], "".join(parts)))
        self.fulltext.add_document(name, binary)
        self.values.post(name, values, unordered)
        self.paths.post(name, {path for path in paths if path is not None})

    def remove_document(self, name: str) -> None:
        self.fulltext.remove_document(name)
        self.values.remove_document(name)
        self.paths.remove_document(name)


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
    if predicate is None:
        return collection.names(), 0
    candidates, lookups = _candidates_for(collection, predicate)
    if candidates is None:
        return collection.names(), lookups
    # Store order for determinism, paid per candidate, not per document
    # of the collection.
    return collection.in_store_order(candidates), lookups


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
    index: CollectionIndex = collection.index
    if isinstance(predicate, (Contains, StartsWith)):
        label = _terminal_label(predicate.path)
        # A value starting with the prefix contains the prefix's tokens.
        found = index.fulltext.lookup_substring(
            predicate.needle if isinstance(predicate, Contains) else predicate.prefix
        )
        if label is None or found is None:
            return None, 0
        # Tokens come from single text nodes; the string value of an
        # element with element content runs several together, so the
        # documents holding ``label`` as one stay candidates.
        return found | index.values.unordered_documents(label), 1
    if isinstance(predicate, Comparison) and predicate.op != "!=":
        label = _terminal_label(predicate.path)
        if label is not None and index.values.covers_label(label):
            return index.values.lookup(label, predicate.op, predicate.value), 1
        return None, 0
    if isinstance(predicate, Exists):
        label = _terminal_label(predicate.path)
        if label is None:
            return None, 0
        return _path_lookup(index.paths, predicate.path, label), 1
    return None, 0


# ----------------------------------------------------------------------
# Value summaries: the same rule, decided away from the site
# ----------------------------------------------------------------------
def _number_key(number: float) -> str:
    """A number's comparison key as text: equal numbers (``5``, ``5.0``,
    ``05``; ``0`` and ``-0``) share one spelling, and none of them is
    the spelling of a value that compares as a string."""
    return repr(number + 0.0)


def _key_hash(key: str) -> int:
    """32 bits of a comparison key, equal in every process (``hash()``
    of a string is salted per process)."""
    return zlib.crc32(key.encode("utf-8", "surrogatepass"))


@dataclass(frozen=True)
class LabelSummary:
    """One label's values in a :class:`ValueSummary`.

    ``keys`` is the filter: the sorted 32-bit hashes of the distinct
    comparison keys — the number a value parses as
    (:func:`~repro.paths.predicates.as_number`), else the string itself,
    which is what :meth:`RangeIndex.lookup` compares by. A key whose
    hash is absent is absent; a present hash may be a collision (about
    one probe in 2³²/distinct-values). ``low``/``high`` bound the values
    when every one of them parses as a number (None otherwise — string
    order is not summarized). ``unordered`` marks a label some document
    holds as an element with element content: its documents are
    candidates of every lookup, so nothing can be proved about it.
    """

    keys: array
    low: Optional[float]
    high: Optional[float]
    unordered: bool

    def _holds(self, key: str) -> bool:
        hashed = _key_hash(key)
        position = bisect.bisect_left(self.keys, hashed)
        return position < len(self.keys) and self.keys[position] == hashed

    def proves_no_match(self, op: str, value) -> bool:
        """True only when ``RangeIndex.lookup(label, op, value)`` is
        empty: a numeric probe meets the numeric entries as a number and
        the others as ``str(value)``, a non-numeric probe meets every
        entry as a string (and equals no numeric one)."""
        if self.unordered:
            return False
        number = as_number(value)
        if op == "=":
            return not (
                number is not None and self._holds(_number_key(number))
            ) and not self._holds(str(value))
        if number is None or self.low is None:
            return False
        if op == "<":
            return self.low >= number
        if op == "<=":
            return self.low > number
        if op == ">":
            return self.high <= number
        if op == ">=":
            return self.high < number
        return False


@dataclass(frozen=True)
class ValueSummary:
    """Per element/attribute label, a :class:`LabelSummary` of the values
    one stored collection's :class:`RangeIndex` holds.

    A *superset* description: it may admit values the collection lacks
    (hash collisions, coarse bounds), never the reverse. So
    :meth:`proves_empty` can cost a wasted lane but not an answer.
    """

    labels: dict[str, LabelSummary]

    def proves_empty(self, predicate: Predicate) -> bool:
        """Would :func:`candidate_documents` find no document for
        ``predicate``? Decided by its rule: an ``And`` is empty when any
        part is, an ``Or`` when every part is, a comparison atom by the
        terminal label of its path; whatever the value index does not
        answer — ``!=``, ``Not``, text search, existence, a wildcard, an
        uncovered or unordered label — proves nothing."""
        if isinstance(predicate, And):
            return any(self.proves_empty(part) for part in predicate.parts)
        if isinstance(predicate, Or):
            return all(self.proves_empty(part) for part in predicate.parts)
        if isinstance(predicate, Comparison) and predicate.op != "!=":
            label = _terminal_label(predicate.path)
            entry = self.labels.get(label) if label is not None else None
            return entry is not None and entry.proves_no_match(
                predicate.op, predicate.value
            )
        return False


def _path_lookup(paths: PathIndex, path, label: str) -> set[str]:
    """Probe the path index as exactly as the path allows.

    Simple child-axis paths map to an exact structural key; a single
    leading ``//`` followed by child steps maps to a suffix probe.
    Anything else falls back to the terminal label alone.
    """
    steps = path.steps
    if not any(step.is_wildcard or step.position is not None for step in steps):
        labels = tuple(
            ("@" + step.name) if step.is_attribute else step.name
            for step in steps
        )
        if all(step.axis is Axis.CHILD for step in steps):
            return paths.lookup_exact(labels)
        if steps[0].axis is Axis.DESCENDANT and all(
            step.axis is Axis.CHILD for step in steps[1:]
        ):
            return paths.lookup_suffix(labels)
    return paths.lookup_suffix((label,))


def _terminal_label(path) -> Optional[str]:
    """The index label of a path's last step (None for a wildcard)."""
    last = path.last
    if last.is_wildcard:
        return None
    return ("@" + last.name) if last.is_attribute else last.name
