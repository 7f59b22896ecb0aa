"""JSON text of the CLI's payloads: ``dumps(obj)`` returns exactly what
``json.dumps(obj, indent=2)`` returns for every JSON value (dicts, lists and
tuples of str, int, bool, None and float), and also takes float arrays.

``json.dumps`` with an indent runs CPython's pure-Python encoder, one
generator step per value; the payloads hold up to ~10^5 floats. Here the
structure of a float array, of a ``KeyedStack`` (an object whose values are
the matrices of one stack, such as a solution's P blocks) and of a
``Records`` (the columns of records that share their keys, such as the
``lmei check`` constraints) is a ``%``-template built once, and
its values are filled in by one ``%``-format: ``%s`` of a float is
``float.__repr__``, which is how json writes a finite float. Non-finite
floats become ``NaN``, ``Infinity`` and ``-Infinity``, as in json. A float
array is emitted as ``json.dumps(a.tolist(), indent=2)`` would emit it.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

_INDENT = "  "
_SINGLETONS = {None: "null", True: "true", False: "false"}


class KeyedStack(Mapping):
    """Read-only mapping names[j] -> stack[j]: a JSON object with str keys
    whose values are equally shaped float arrays, held as one
    (len(names), ...) stack, which ``dumps`` emits with one template."""

    __slots__ = ("names", "stack", "_index")

    def __init__(self, names: list[str], stack: np.ndarray):
        if len(names) != len(stack):
            raise ValueError(f"{len(names)} keys for a stack of {len(stack)}")
        self.names, self.stack, self._index = names, stack, None

    def __getitem__(self, key: str) -> np.ndarray:
        if self._index is None:
            self._index = {name: j for j, name in enumerate(self.names)}
        return self.stack[self._index[key]]

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


class Records(Sequence):
    """Read-only sequence of dicts {keys[f]: columns[f][j]}: a JSON array of
    objects with the same str keys in the same order, held as one column
    per key, which ``dumps`` emits with one record template."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns):
        keys, columns = tuple(keys), tuple(columns)
        if not keys or set(map(type, keys)) != {str} or len(set(keys)) != len(keys):
            raise ValueError("records need one or more distinct str keys")
        if len(columns) != len(keys) or len(set(map(len, columns))) != 1:
            raise ValueError(f"{len(keys)} keys need as many columns of one length")
        self.keys, self.columns = keys, columns

    def __getitem__(self, j: int) -> dict:
        return {key: column[j] for key, column in zip(self.keys, self.columns)}

    def __len__(self) -> int:
        return len(self.columns[0])


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, for float ndarrays, ``KeyedStack`` and
    ``Records`` too (a float ndarray as its ``tolist()``, a ``KeyedStack`` as
    the dict it maps, ``Records`` as its list of dicts)."""
    return _encode(obj, 0)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    """An object key as json writes it (str, float, bool, None or int)."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _float(key)
    elif key is True or key is False or key is None:
        key = _SINGLETONS[key]
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _encode_str(key)


def _encode(obj, level: int) -> str:
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None or obj is True or obj is False:
        return _SINGLETONS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        return _list(obj, level)
    if isinstance(obj, dict):
        return _object(obj, level)
    if isinstance(obj, KeyedStack):
        return _keyed_stack(obj, level)
    if isinstance(obj, Records):
        return _records(obj, level)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return _array_template(obj.shape, level) % _floats(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _floats(a: np.ndarray) -> tuple:
    """The entries of a float array, in C order, as the arguments of a
    template's ``%s`` fields."""
    flat = a.ravel().tolist()
    if not np.isfinite(a).all():
        flat = [_float(x) for x in flat]
    return tuple(flat)


def _escape(text: str) -> str:
    """Text placed into a template, with its ``%`` escaped."""
    return text.replace("%", "%%")


def _wrap(open_: str, close: str, parts, level: int) -> str:
    """json's layout of a non-empty container whose items are `parts`."""
    inner = "\n" + _INDENT * (level + 1)
    return f"{open_}{inner}{(',' + inner).join(parts)}\n{_INDENT * level}{close}"


@lru_cache(maxsize=64)
def _array_template(shape: tuple[int, ...], level: int) -> str:
    """The text of a float array of this shape at this indent level, with a
    ``%s`` field per entry."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    return _wrap("[", "]", [_array_template(shape[1:], level + 1)] * shape[0], level)


def _object(obj: dict, level: int) -> str:
    if not obj:
        return "{}"
    return _wrap("{", "}", [f"{_key(k)}: {_encode(v, level + 1)}" for k, v in obj.items()],
                 level)


def _keyed_stack(obj: KeyedStack, level: int) -> str:
    if not obj.names:
        return "{}"
    value = _array_template(obj.stack.shape[1:], level + 1)
    names = obj.names
    if "%" in "".join(names):
        names = map(_escape, names)
    template = _wrap("{", "}", [f"{k}: {value}" for k in map(_encode_str, names)], level)
    return template % _floats(obj.stack)


def _list(items, level: int) -> str:
    if not items:
        return "[]"
    return _wrap("[", "]", [_encode(v, level + 1) for v in items], level)


def _records(obj: Records, level: int) -> str:
    """One record template, its fields filled column by column."""
    if not len(obj):
        return "[]"
    record = _wrap("{", "}", [f"{_escape(_encode_str(k))}: %s" for k in obj.keys], level + 1)
    texts = [_column(values, level + 2) for values in obj.columns]
    template = _wrap("[", "]", [record] * len(obj), level)
    return template % tuple(chain.from_iterable(zip(*texts)))


def _column(values: list, level: int):
    """The JSON text of each value of one record field."""
    types = set(map(type, values))
    if types <= {int} or (types <= {float} and all(map(math.isfinite, values))):
        return values                      # %s of an int or a finite float is its repr
    if types <= {bool, type(None)}:
        return map(_SINGLETONS.__getitem__, values)
    if types <= {str}:
        return map(_encode_str, values)
    return [v if type(v) is int else _encode(v, level) for v in values]
