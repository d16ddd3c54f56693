"""Checked reads from parsed instance files.

A missing or mistyped field raises ValueError naming its path in the
document, such as ``p``, ``ground.size`` or ``outer[0].capacities``, so a
malformed file fails with a usage error instead of a traceback.
"""

from __future__ import annotations


def _is(value, kind) -> bool:
    if isinstance(value, bool):  # JSON true/false are not numbers here
        return False
    if kind is float:  # any JSON number
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check(value, kinds, where: str):
    if not _is(value, kinds[0]):
        raise ValueError(f"{where}: expected {kinds[0].__name__}, got {type(value).__name__}")
    if len(kinds) > 1:
        for i, item in enumerate(value):
            _check(item, kinds[1:], f"{where}[{i}]")


def read_field(d, key: str, path: str, *kinds):
    """d[key], checked against `kinds`: e.g. (int,), (list, float), (list, list, int).

    `path` locates `d` in the document ("" at the top level).
    """
    if not isinstance(d, dict):
        raise ValueError(f"{path or 'instance'}: expected dict, got {type(d).__name__}")
    where = f"{path}.{key}" if path else key
    if key not in d:
        raise ValueError(f"{where}: missing field")
    _check(d[key], kinds, where)
    return d[key]
