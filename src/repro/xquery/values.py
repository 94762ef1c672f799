"""Value model of the XQuery subset: items, sequences, atomization.

A *sequence* is a Python list whose items are either nodes (any
:class:`~repro.datamodel.tree.Node`: stored-table handles or DOM nodes)
or atomic values (``str``, ``int``, ``float``, ``bool``).
This module centralizes the XPath-style coercions: atomization, effective
boolean value, numeric promotion, and general comparison.
"""

from __future__ import annotations

import math
from typing import Union

from repro.datamodel.tree import Node
from repro.errors import XQueryTypeError
from repro.paths.predicates import as_number

Item = Union[Node, str, int, float, bool]
Sequence_ = list  # alias for documentation purposes

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def atomize_item(item: Item) -> Union[str, int, float, bool]:
    """Atomize one item: nodes become their (untyped) string value."""
    if isinstance(item, Node):
        return item.text_value()
    return item


def atomize(sequence: list) -> list:
    """Atomize a whole sequence."""
    return [atomize_item(item) for item in sequence]


def effective_boolean(sequence: list) -> bool:
    """XPath effective boolean value of a sequence."""
    if not sequence:
        return False
    first = sequence[0]
    if isinstance(first, Node):
        return True
    if len(sequence) > 1:
        raise XQueryTypeError(
            "effective boolean value of a multi-item atomic sequence"
        )
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return first != 0 and not (isinstance(first, float) and math.isnan(first))
    if isinstance(first, str):
        return len(first) > 0
    raise XQueryTypeError(f"no effective boolean value for {type(first).__name__}")


def to_number(value: Union[str, int, float, bool]) -> float:
    """Numeric value of an atomic (NaN for non-numeric strings)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value.strip())
    except (ValueError, AttributeError):
        return float("nan")


def is_numeric_like(value: Union[str, int, float, bool]) -> bool:
    """Can the atomic participate in a numeric comparison?"""
    return as_number(value) is not None


def compare_atomics(left, right, op: str) -> bool:
    """Single-pair comparison, numeric when both sides parse as numbers
    (:func:`repro.paths.predicates.as_number` — the rule the fragment
    predicates and the value index share)."""
    fn = _OPS[op]
    if isinstance(left, bool) or isinstance(right, bool):
        return fn(bool(effective_boolean([left])), bool(effective_boolean([right])))
    a = as_number(left)
    if a is not None:
        b = as_number(right)
        if b is not None:
            return fn(a, b)
    return fn(str(left), str(right))


def general_compare(left_seq: list, right_seq: list, op: str) -> bool:
    """XPath general comparison: existential over both atomized sequences."""
    lefts = atomize(left_seq)
    rights = atomize(right_seq)
    return any(
        compare_atomics(a, b, op) for a in lefts for b in rights
    )


def string_value(sequence: list) -> str:
    """String value of a sequence (first item, or empty string)."""
    if not sequence:
        return ""
    return _atomic_to_string(atomize_item(sequence[0]))


def _atomic_to_string(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def atomic_to_string(value) -> str:
    """Canonical string form of one atomic value."""
    return _atomic_to_string(value)
