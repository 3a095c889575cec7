"""JSON wire helpers.

Complex numbers travel as ``[re, im]`` pairs and matrices as row lists of
such pairs, converted as whole arrays: out by one ``tolist``; in by one
check per row, one ``set(map(type, ...))`` over all entries (numbers are
``int`` or ``float``, not ``bool``), one ``np.array`` and one ``isfinite``
(an integer beyond the double range is not finite).  A rejected input
raises the error of its first faulty entry.  ``canonical_json`` is a
deterministic serializer: object keys are sorted, floats are emitted with
17 significant digits (exact round trip) by ``"%.17g".__mod__``, the text
of ``"{:.17g}".format`` at less cost, and infinities become the string
sentinels ``"inf"`` / ``"-inf"`` (JSON has no infinity literal).  It
dispatches on exact types and writes a list of finite floats, or of
``[re, im]`` pairs of them, with one ``str.join``.  ``canonical_json_rows``
writes a table of records given as columns: a finite 1-D float64 array
column is formatted once per distinct bit pattern (``np.unique`` of its
int64 view), an all-``int`` column by ``str``, any other column value by
value as ``canonical_json`` would, and the records are filled in from one
``%`` template.
"""

from __future__ import annotations

import hashlib
import math
from itertools import chain, starmap
from json.encoder import encode_basestring

import numpy as np

_NUMBERS = {int, float}
_PAIR_TYPES = {list, tuple}
_FLOAT = "%.17g".__mod__
_PAIR = "[{:.17g},{:.17g}]".format


def complex_to_json(a: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs of a complex array of any shape."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _is_pair(entry) -> bool:
    return type(entry) in _PAIR_TYPES and len(entry) == 2 and set(map(type, entry)) <= _NUMBERS


def _pairs(entries: list, what: str) -> np.ndarray:
    """Complex vector of ``[re, im]`` pairs, or the error of the first faulty entry."""
    good = len(entries)
    if not (
        set(map(type, entries)) <= _PAIR_TYPES
        and set(map(len, entries)) <= {2}
        and set(map(type, chain.from_iterable(entries))) <= _NUMBERS
    ):
        good = next(n for n, e in enumerate(entries) if not _is_pair(e))
    try:  # the entries before a bad one may hold an earlier fault
        parts = np.array(list(chain.from_iterable(entries[:good])), dtype=float)
        finite = np.isfinite(parts).all()
    except OverflowError:  # an integer beyond the double range
        finite = False
    if not finite:
        raise ValueError(f"{what}: entries must be finite")
    if good < len(entries):
        raise ValueError(f"{what}: each entry must be a [re, im] pair of numbers")
    return parts.view(complex)


def json_to_matrix(rows, what: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{what}: expected a nonempty list of rows")
    width = len(rows[0]) if isinstance(rows[0], list) else 0
    bad = next((n for n, r in enumerate(rows) if not isinstance(r, list) or not r or len(r) != width), None)
    values = _pairs(list(chain.from_iterable(rows[:bad])), what)  # entry faults of earlier rows come first
    if bad is not None:
        if not isinstance(rows[bad], list) or not rows[bad]:
            raise ValueError(f"{what}: each row must be a nonempty list")
        raise ValueError(f"{what}: rows have inconsistent lengths")
    return values.reshape(len(rows), width)


def json_to_vector(entries, what: str = "vector") -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{what}: expected a nonempty list of [re, im] pairs")
    return _pairs(entries, what)


def _float_text(x) -> str:
    x = float(x)
    if math.isnan(x):
        raise ValueError("NaN is not representable in report JSON")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return _FLOAT(x)


def _finite_floats(values) -> bool:
    values = list(values)
    return set(map(type, values)) == {float} and all(map(math.isfinite, values))


def _array_text(items) -> str:
    pairs = set(map(type, items)) == {list} and set(map(len, items)) == {2}
    if _finite_floats(items):
        body = ",".join(map(_FLOAT, items))
    elif pairs and _finite_floats(chain.from_iterable(items)):
        body = ",".join(starmap(_PAIR, items))
    else:
        body = ",".join(map(_text, items))
    return "[" + body + "]"


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"object keys must be strings, got {type(key).__name__}")
    return encode_basestring(key)


def _object_text(obj: dict) -> str:
    return "{" + ",".join(_key_text(key) + ":" + _text(obj[key]) for key in sorted(obj)) + "}"


def _int_text(n) -> str:
    return str(int(n))


_WRITERS = {type(None): lambda _: "null", bool: lambda b: "true" if b else "false", str: encode_basestring}
_WRITERS |= {int: _int_text, np.integer: _int_text, float: _float_text, np.floating: _float_text}
_WRITERS |= {dict: _object_text, list: _array_text, tuple: _array_text}


def _text(obj) -> str:
    """JSON text of `obj` by the writer of its exact type, else of its nearest registered base class."""
    for kind in type(obj).__mro__:
        if kind in _WRITERS:
            return _WRITERS[kind](obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}; encode it first")


def canonical_json(obj) -> str:
    """Deterministic JSON text for `obj` (sorted keys, 17-digit floats)."""
    return _text(obj)


def canonical_json_rows(columns, rows: int) -> list:
    """``canonical_json`` of each of `rows` records given as columns, written column by column.

    `columns` is a sequence of one value per record, or a dict of such
    columns; record k is `columns` with each column replaced by its k-th
    value.  A column object that appears twice is written once.
    """
    return _column_rows(columns, rows, {})


def _column_rows(columns, rows: int, written: dict) -> list:
    """`canonical_json_rows` of `columns`, taking the texts of a column already written from `written` (by id)."""
    if id(columns) in written:
        return written[id(columns)]
    if isinstance(columns, dict):
        keys = sorted(columns)
        template = "{" + ",".join(_key_text(key).replace("%", "%%") + ":%s" for key in keys) + "}"
        parts = [_column_rows(columns[key], rows, written) for key in keys]
        texts = list(map(template.__mod__, zip(*parts))) if parts else ["{}"] * rows
    elif _finite_float_column(columns):  # each distinct bit pattern written once
        distinct, inverse = np.unique(columns.view(np.int64), return_inverse=True)
        texts = np.array(list(map(_FLOAT, distinct.view(float).tolist())), dtype=object)[inverse].tolist()
    else:
        values = columns.tolist() if isinstance(columns, np.ndarray) else list(columns)
        texts = list(map(str if set(map(type, values)) == {int} else _text, values))
    written[id(columns)] = texts
    return texts


def _finite_float_column(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == float and column.ndim == 1 and np.isfinite(column).all()


def input_digest(doc) -> str:
    """SHA-256 hex digest of the canonicalized document."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
