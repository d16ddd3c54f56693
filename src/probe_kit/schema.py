"""Checked reads from parsed instance files.

A missing, mistyped, non-finite or out-of-range field raises ValueError
naming its path in the document, such as ``p``, ``ground.size`` or
``outer[0].capacities[1]``, so a malformed file fails with a usage error
instead of a traceback.  (Python's json parses NaN and Infinity.)
"""

from __future__ import annotations

import math


def _is(value, kind) -> bool:
    if isinstance(value, bool):  # JSON true/false are not numbers here
        return False
    if kind is float:  # any JSON number
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check(value, kinds, where: str, lo, hi):
    if not _is(value, kinds[0]):
        raise ValueError(f"{where}: expected {kinds[0].__name__}, got {type(value).__name__}")
    if len(kinds) > 1:
        for i, item in enumerate(value):
            _check(item, kinds[1:], f"{where}[{i}]", lo, hi)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {value}")
    elif (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{where}: expected a value {bounds}, got {value}")


def read_field(d, key: str, path: str, *kinds, lo=None, hi=None):
    """d[key], checked against `kinds`: e.g. (int,), (list, float), (list, list, int).

    `path` locates `d` in the document ("" at the top level).  `lo` and `hi`,
    when given, bound every scalar in the field (inclusive).
    """
    if not isinstance(d, dict):
        raise ValueError(f"{path or 'instance'}: expected dict, got {type(d).__name__}")
    where = f"{path}.{key}" if path else key
    if key not in d:
        raise ValueError(f"{where}: missing field")
    _check(d[key], kinds, where, lo, hi)
    return d[key]
