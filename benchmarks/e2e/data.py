"""Seeded benchmark inputs whose *cost* does not depend on the seed.

The driver compares runs made with different seeds, so anything the
seed changes about how much work a query does (how many documents match
``Section = "DVD"``, whether any DVD item contains "good") would show up
as run-to-run noise. The collections here come from the repo's own
ToXgene generators — every text, name and size is drawn from the seed —
and then the handful of fields the query predicates test are rewritten
to exact quotas. Which document plays which role is again drawn from the
seed, so no two seeds give the same collection, yet every seed gives the
same selectivities.
"""

from __future__ import annotations

import random

from repro.datamodel.collection import Collection
from repro.datamodel.tree import XMLNode
from repro.workloads import (
    SECTIONS,
    SECTION_WEIGHTS,
    build_items_collection,
    build_xbench_collection,
)
from repro.workloads.toxgene import DEFAULT_VOCABULARY
from repro.workloads.xbench import COUNTRIES, GENRES
from repro.xmltext.serializer import serialized_size

HOT_COLLECTION = "Chot"
#: Every Item is padded or trimmed to its kind's size (the generators'
#: means), so bytes parsed and bytes returned do not depend on the seed.
ITEM_BYTES = {"small": 1_700, "large": 78_000}


def _set_text(element: XMLNode, text: str) -> None:
    element.children[0].value = text


def _set_term(element: XMLNode, term: str, present: bool) -> None:
    """Make ``term`` occur in the element's text exactly when asked.

    The generators' injected terms are not vocabulary words, so removing
    every occurrence and re-inserting one is exact.
    """
    words = [word for word in element.children[0].value.split(" ") if word != term]
    if present:
        words.insert(len(words) // 2, term)
    element.children[0].value = " ".join(words)


def _resize(document, element: XMLNode, target_bytes: int, rng) -> None:
    """Pad or trim the tail of ``element``'s text until ``document``
    serializes to ``target_bytes`` (give or take one word)."""
    words = element.children[0].value.split(" ")
    excess = serialized_size(document) - target_bytes
    while excess > 0 and len(words) > 1:
        excess -= len(words.pop()) + 1
    while excess < 0:
        words.append(rng.choice(DEFAULT_VOCABULARY))
        excess += len(words[-1]) + 1
    element.children[0].value = " ".join(words)


def _quota_blocks(values, weights, count: int) -> list:
    """``count`` values in blocks sized by ``weights`` (largest remainder)."""
    exact = [weight * count for weight in weights]
    sizes = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(values)), key=lambda i: exact[i] - sizes[i], reverse=True
    )
    for index in by_remainder[: count - sum(sizes)]:
        sizes[index] += 1
    return [value for value, size in zip(values, sizes) for _ in range(size)]


def _roles(count: int, seed: int) -> list[int]:
    """A seeded permutation: ``roles[i]`` is document ``i``'s role index."""
    roles = list(range(count))
    random.Random(seed).shuffle(roles)
    return roles


def items_collection(
    count: int, kind: str, seed: int, name: str = "Citems"
) -> Collection:
    """Items of one size with exact Section / Release-year / "good" quotas.

    Sections follow ``SECTION_WEIGHTS`` in role-index blocks; inside every
    block each fourth item's Description contains "good" and Release
    years cycle 2000-2005, so every predicate of ``items_queries`` selects
    the same number of documents under every seed.
    """
    collection = build_items_collection(count, kind=kind, seed=seed, name=name)
    sections = _quota_blocks(SECTIONS, SECTION_WEIGHTS, count)
    rng = random.Random(seed)
    for document, role in zip(collection, _roles(count, seed)):
        item = document.root
        _set_text(item.first_child("Section"), sections[role])
        _set_term(item.first_child("Description"), "good", role % 4 == 0)
        release = item.first_child("Release")
        _set_text(
            release,
            f"{2000 + role % 6}{release.children[0].value[4:]}",
        )
        _resize(document, item.first_child("Description"), ITEM_BYTES[kind], rng)
    return collection


def articles_collection(count: int, doc_bytes: int, seed: int) -> Collection:
    """XBench articles with exact genre / country / year / term quotas."""
    collection = build_xbench_collection(count, doc_bytes=doc_bytes, seed=seed)
    for document, role in zip(collection, _roles(count, seed)):
        prolog = document.root.first_child("prolog")
        body = document.root.first_child("body")
        epilog = document.root.first_child("epilog")
        _set_text(prolog.first_child("genre"), GENRES[role % len(GENRES)])
        _set_term(prolog.first_child("title"), "frontier", role % 5 == 1)
        date = prolog.first_child("dateline").first_child("date")
        _set_text(date, f"{1998 + role % 8}{date.children[0].value[4:]}")
        _set_term(body.first_child("abstract"), "novel", role % 10 in (0, 3, 6))
        _set_text(epilog.first_child("country"), COUNTRIES[role % len(COUNTRIES)])
    return collection


def hot_variants(count: int, seed: int) -> tuple[Collection, Collection]:
    """Two variants of the side collection the coordinator workload
    republishes: identical document names, Codes and Sections, differing
    only in ``Name`` text.

    ``publish(replace=True)`` into the same stored collections upserts by
    name and never deletes, so variants with different document sets
    would leave stale documents behind (see README, "Known defect").
    """
    first = items_collection(count, "small", seed, name=HOT_COLLECTION)
    second = items_collection(count, "small", seed, name=HOT_COLLECTION)
    for index, document in enumerate(second):
        _set_text(document.root.first_child("Name"), f"republished {index}")
    return first, second
