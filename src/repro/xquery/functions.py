"""Built-in function library of the XQuery subset.

Each function takes the dynamic context and the (already evaluated)
argument sequences and returns a result sequence. The library covers the
functions the paper's query sets use — aggregation (``count``/``sum``/
``avg``/``min``/``max``), text search (``contains``/``starts-with``), and
the usual accessors — plus input functions ``collection``/``doc`` resolved
through the context's document provider, and the two primitives the
decomposer's sub-queries call: ``px:project`` (document projection, the
fetch of a vertical join) and ``px:collection`` (a collection restricted
to the documents of given origins, stage two of a vertical semi-join).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.datamodel.tree import Node, NodeKind
from repro.errors import XQueryEvaluationError, XQueryTypeError
from repro.xmltext.projection import parse_keep, serialize_projected
from repro.xquery.values import (
    atomic_to_string,
    atomize,
    effective_boolean,
    string_value,
    to_number,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xquery.evaluator import DynamicContext

FunctionImpl = Callable[["DynamicContext", list[list]], list]

_REGISTRY: dict[str, FunctionImpl] = {}


def register(name: str) -> Callable[[FunctionImpl], FunctionImpl]:
    def decorator(fn: FunctionImpl) -> FunctionImpl:
        _REGISTRY[name] = fn
        return fn

    return decorator


def lookup(name: str) -> FunctionImpl:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise XQueryEvaluationError(f"unknown function {name}()") from None


def known_functions() -> list[str]:
    return sorted(_REGISTRY)


def _require_args(name: str, args: list[list], minimum: int, maximum: int) -> None:
    if not (minimum <= len(args) <= maximum):
        raise XQueryTypeError(
            f"{name}() takes {minimum}..{maximum} arguments, got {len(args)}"
        )


# ----------------------------------------------------------------------
# Input functions
# ----------------------------------------------------------------------
@register("collection")
def _collection(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("collection", args, 0, 1)
    name = string_value(args[0]) if args else None
    return list(ctx.provider.collection_roots(name))


@register("px:collection")
def _collection_by_origin(ctx: "DynamicContext", args: list[list]) -> list:
    """``px:collection("name", "origin", ...)`` — the roots of the named
    collection's documents whose stored origin is one of the listed
    strings, in store order. The keys are one flat argument list looked
    up as a set, so a long list costs no nesting and no per-document
    comparison chain; with no key it is the empty sequence."""
    if not args:
        raise XQueryTypeError("px:collection() takes the collection name")
    origins = frozenset(string_value(key) for key in args[1:])
    return list(ctx.provider.collection_roots(string_value(args[0]), origins))


@register("doc")
def _doc(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("doc", args, 1, 1)
    root = ctx.provider.document_root(string_value(args[0]))
    return [root] if root is not None else []


@register("px:project")
def _project(ctx: "DynamicContext", args: list[list]) -> list:
    """``px:project($roots, "path", ...)`` — the fetch sub-query of a
    vertical join: each root element restricted to the kept paths
    (:mod:`repro.xmltext.projection`), in its wire form. A strict
    projection is one string per root, written from the kept spans alone
    (nothing else is decoded); a projection that keeps everything is the
    root itself, which the engine serializes as it does any node."""
    if not args:
        raise XQueryTypeError("px:project() takes the nodes to project")
    for root in args[0]:
        if not isinstance(root, Node) or root.kind is not NodeKind.ELEMENT:
            raise XQueryTypeError("px:project() projects element nodes")
    keep = parse_keep(string_value(path) for path in args[1:])
    if keep is None:
        return args[0]
    return [serialize_projected(root, keep) for root in args[0]]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@register("count")
def _count(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("count", args, 1, 1)
    return [len(args[0])]


@register("sum")
def _sum(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("sum", args, 1, 2)
    values = [to_number(v) for v in atomize(args[0])]
    if any(math.isnan(v) for v in values):
        raise XQueryTypeError("sum() over non-numeric values")
    return [float(sum(values))]


@register("avg")
def _avg(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("avg", args, 1, 1)
    if not args[0]:
        return []
    values = [to_number(v) for v in atomize(args[0])]
    if any(math.isnan(v) for v in values):
        raise XQueryTypeError("avg() over non-numeric values")
    return [float(sum(values)) / len(values)]


def _min_max(args: list[list], pick) -> list:
    if not args[0]:
        return []
    values = atomize(args[0])
    numbers = [to_number(v) for v in values]
    if all(not math.isnan(n) for n in numbers):
        return [pick(numbers)]
    return [pick(atomic_to_string(v) for v in values)]


@register("min")
def _min(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("min", args, 1, 1)
    return _min_max(args, min)


@register("max")
def _max(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("max", args, 1, 1)
    return _min_max(args, max)


# ----------------------------------------------------------------------
# Boolean
# ----------------------------------------------------------------------
@register("not")
def _not(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("not", args, 1, 1)
    return [not effective_boolean(args[0])]


@register("empty")
def _empty(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("empty", args, 1, 1)
    return [not args[0]]


@register("exists")
def _exists(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("exists", args, 1, 1)
    return [bool(args[0])]


@register("true")
def _true(ctx: "DynamicContext", args: list[list]) -> list:
    return [True]


@register("false")
def _false(ctx: "DynamicContext", args: list[list]) -> list:
    return [False]


@register("boolean")
def _boolean(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("boolean", args, 1, 1)
    return [effective_boolean(args[0])]


# ----------------------------------------------------------------------
# Strings
# ----------------------------------------------------------------------
@register("string")
def _string(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("string", args, 0, 1)
    if not args:
        item = ctx.context_item
        return [item.text_value() if isinstance(item, Node) else atomic_to_string(item)]
    return [string_value(args[0])]


@register("contains")
def _contains(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("contains", args, 2, 2)
    haystacks = atomize(args[0]) or [""]
    needle = string_value(args[1])
    # Existential over the first argument: eXist's contains() over a node
    # sequence holds when any node's value contains the needle, which is
    # what the paper's text-search queries rely on.
    return [any(needle in atomic_to_string(h) for h in haystacks)]


@register("starts-with")
def _starts_with(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("starts-with", args, 2, 2)
    haystacks = atomize(args[0]) or [""]
    prefix = string_value(args[1])
    return [any(atomic_to_string(h).startswith(prefix) for h in haystacks)]


@register("ends-with")
def _ends_with(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("ends-with", args, 2, 2)
    haystacks = atomize(args[0]) or [""]
    suffix = string_value(args[1])
    return [any(atomic_to_string(h).endswith(suffix) for h in haystacks)]


@register("string-length")
def _string_length(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("string-length", args, 1, 1)
    return [len(string_value(args[0]))]


@register("concat")
def _concat(ctx: "DynamicContext", args: list[list]) -> list:
    if len(args) < 2:
        raise XQueryTypeError("concat() takes at least 2 arguments")
    return ["".join(string_value(a) for a in args)]


@register("substring")
def _substring(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("substring", args, 2, 3)
    text = string_value(args[0])
    start = int(to_number(atomize(args[1])[0])) if args[1] else 1
    begin = max(start - 1, 0)
    if len(args) == 3 and args[2]:
        length = int(to_number(atomize(args[2])[0]))
        return [text[begin : begin + max(length, 0)]]
    return [text[begin:]]


@register("string-join")
def _string_join(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("string-join", args, 1, 2)
    separator = string_value(args[1]) if len(args) == 2 else ""
    return [separator.join(atomic_to_string(v) for v in atomize(args[0]))]


@register("substring-before")
def _substring_before(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("substring-before", args, 2, 2)
    text = string_value(args[0])
    needle = string_value(args[1])
    index = text.find(needle) if needle else -1
    return [text[:index] if index >= 0 else ""]


@register("substring-after")
def _substring_after(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("substring-after", args, 2, 2)
    text = string_value(args[0])
    needle = string_value(args[1])
    index = text.find(needle) if needle else -1
    return [text[index + len(needle) :] if index >= 0 else ""]


@register("translate")
def _translate(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("translate", args, 3, 3)
    text = string_value(args[0])
    source = string_value(args[1])
    target = string_value(args[2])
    table = {}
    for position, char in enumerate(source):
        table[ord(char)] = target[position] if position < len(target) else None
    return [text.translate(table)]


@register("matches")
def _matches(ctx: "DynamicContext", args: list[list]) -> list:
    import re

    _require_args("matches", args, 2, 2)
    return [re.search(string_value(args[1]), string_value(args[0])) is not None]


@register("replace")
def _replace(ctx: "DynamicContext", args: list[list]) -> list:
    import re

    _require_args("replace", args, 3, 3)
    return [
        re.sub(string_value(args[1]), string_value(args[2]), string_value(args[0]))
    ]


@register("tokenize")
def _tokenize(ctx: "DynamicContext", args: list[list]) -> list:
    import re

    _require_args("tokenize", args, 2, 2)
    text = string_value(args[0])
    if not text:
        return []
    return [token for token in re.split(string_value(args[1]), text)]


@register("normalize-space")
def _normalize_space(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("normalize-space", args, 1, 1)
    return [" ".join(string_value(args[0]).split())]


@register("upper-case")
def _upper_case(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("upper-case", args, 1, 1)
    return [string_value(args[0]).upper()]


@register("lower-case")
def _lower_case(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("lower-case", args, 1, 1)
    return [string_value(args[0]).lower()]


# ----------------------------------------------------------------------
# Numbers
# ----------------------------------------------------------------------
@register("number")
def _number(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("number", args, 0, 1)
    if not args:
        item = ctx.context_item
        return [to_number(item.text_value() if isinstance(item, Node) else item)]
    if not args[0]:
        return [float("nan")]
    return [to_number(atomize(args[0])[0])]


@register("abs")
def _abs(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("abs", args, 1, 1)
    if not args[0]:
        return []
    return [abs(to_number(atomize(args[0])[0]))]


@register("round")
def _round(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("round", args, 1, 1)
    if not args[0]:
        return []
    value = to_number(atomize(args[0])[0])
    return [float(math.floor(value + 0.5))]


@register("floor")
def _floor(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("floor", args, 1, 1)
    if not args[0]:
        return []
    return [float(math.floor(to_number(atomize(args[0])[0])))]


@register("ceiling")
def _ceiling(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("ceiling", args, 1, 1)
    if not args[0]:
        return []
    return [float(math.ceil(to_number(atomize(args[0])[0])))]


# ----------------------------------------------------------------------
# Sequences / nodes
# ----------------------------------------------------------------------
@register("distinct-values")
def _distinct_values(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("distinct-values", args, 1, 1)
    seen = set()
    result = []
    for value in atomize(args[0]):
        key = atomic_to_string(value)
        if key not in seen:
            seen.add(key)
            result.append(value)
    return result


@register("data")
def _data(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("data", args, 1, 1)
    return atomize(args[0])


@register("name")
def _name(ctx: "DynamicContext", args: list[list]) -> list:
    _require_args("name", args, 0, 1)
    if args:
        if not args[0]:
            return [""]
        item = args[0][0]
    else:
        item = ctx.context_item
    if isinstance(item, Node):
        return [item.label or ""]
    raise XQueryTypeError("name() requires a node")


@register("position")
def _position(ctx: "DynamicContext", args: list[list]) -> list:
    return [ctx.position]


@register("last")
def _last(ctx: "DynamicContext", args: list[list]) -> list:
    return [ctx.size]
