"""JSON wire: canonical writer text, bulk parsers and their error messages.

The references below are the straightforward per-value writer and
per-entry parser; the bulk implementations must reproduce their text,
their arrays bit for bit and their error messages.
"""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channellab.cli import main
from channellab.jsonutil import canonical_json, canonical_json_rows, input_digest, json_to_matrix, json_to_vector


def _reference_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not representable in report JSON")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _reference_write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_reference_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {type(key).__name__}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _reference_write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _reference_write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}; encode it first")


def reference_json(obj) -> str:
    out: list = []
    _reference_write(obj, out)
    return "".join(out)


def _reference_pair(entry, what):
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise ValueError(f"{what}: each entry must be a [re, im] pair of numbers")
    z = complex(float(entry[0]), float(entry[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what}: entries must be finite")
    return z


def reference_matrix(rows, what="matrix"):
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{what}: expected a nonempty list of rows")
    parsed = []
    width = None
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ValueError(f"{what}: each row must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{what}: rows have inconsistent lengths")
        parsed.append([_reference_pair(e, what) for e in row])
    return np.array(parsed, dtype=complex)


def reference_vector(entries, what="vector"):
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{what}: expected a nonempty list of [re, im] pairs")
    return np.array([_reference_pair(e, what) for e in entries], dtype=complex)


# --- writer --------------------------------------------------------------------

PAYLOAD = {
    "ints": [0, -7, 10**20, np.int64(-3)],
    "bools": [True, False],
    "none": None,
    "zeros": [0.0, -0.0],
    "infinities": [math.inf, -math.inf],
    "subnormal": 5e-324,
    "numpy_float": np.float64(0.1),
    "tuple": (1, 2.5, "x"),
    "empty": [[], {}, ()],
    'quote"key': 'a"b\\c\nd',
    "clé": "snow ☃",
    "floats": [0.1, 1e300, -2.5],
    "pairs": [[0.1, -0.2], [3.0, 4.5]],
    "mixed_pairs": [[1, 0.5], [0.0, math.inf]],
}

PAYLOAD_TEXT = (
    '{"bools":[true,false],"clé":"snow ☃","empty":[[],{},[]],"floats":[0.10000000000000001,1.0000000000000001e+300,-2.5],'
    '"infinities":["inf","-inf"],"ints":[0,-7,100000000000000000000,-3],"mixed_pairs":[[1,0.5],[0,"inf"]],"none":null,'
    '"numpy_float":0.10000000000000001,"pairs":[[0.10000000000000001,-0.20000000000000001],[3,4.5]],'
    '"quote\\"key":"a\\"b\\\\c\\nd","subnormal":4.9406564584124654e-324,"tuple":[1,2.5,"x"],"zeros":[0,-0]}'
)


def test_canonical_json_pinned_text():
    assert canonical_json(PAYLOAD) == PAYLOAD_TEXT
    assert reference_json(PAYLOAD) == PAYLOAD_TEXT


_floats = st.floats(allow_nan=False)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | _floats
    | st.text(max_size=4)
    | _floats.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
)
_float_arrays = st.lists(_floats) | st.lists(st.lists(_floats, min_size=2, max_size=2))
_values = st.recursive(
    _scalars | _float_arrays,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_values)
def test_canonical_json_matches_reference_writer(value):
    assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize(
    "value",
    [math.nan, [1.0, math.nan], [[0.5, math.nan]], {"a": [[math.nan, 0.0]]}, np.float64("nan")],
    ids=["scalar", "float-list", "pair-list", "nested", "numpy"],
)
def test_nan_raises(value):
    with pytest.raises(ValueError, match="NaN"):
        canonical_json(value)


@pytest.mark.parametrize("value", [{1: 0.0}, {"a": {2: "b"}}, np.array([1.0]), np.bool_(True)])
def test_unencodable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def _row(column, k):
    return {key: _row(value, k) for key, value in column.items()} if isinstance(column, dict) else column[k]


def test_rows_equal_per_record_canonical_json():
    columns = {
        "n": range(4),
        "x": np.array([0.0, -0.0, math.inf, 1.0 / 3.0]),
        "y": [None, True, "s", -math.inf],
        "{k}": {"b": np.array([1.5, 2.0, -1.0, 1e300]), "a": [[1.0, 2.0], [], {}, 7]},
        "e": {},
    }
    want = [canonical_json({key: _row(value, k) for key, value in columns.items()}) for k in range(4)]
    assert canonical_json_rows(columns, 4) == want


def test_rows_of_a_repeated_column_and_of_integer_columns_equal_per_record_canonical_json():
    shared = np.array([0.25, 1e-300, 3.0])
    columns = {
        "d": shared,
        "f": {"trivial": shared, "other": shared[:]},
        "n": range(3),
        "i": [0, -7, 10**20],
        "m": [1, True, 2],
        "g": [np.int64(4), 5, 6],
    }
    want = [canonical_json({key: _row(value, k) for key, value in columns.items()}) for k in range(3)]
    assert canonical_json_rows(columns, 3) == want


def test_rows_of_float_columns_equal_per_record_canonical_json():
    # finite float64 columns are written once per distinct bit pattern; the others value by value
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    columns = {
        "periodic": np.tile([1.0 / 3.0, 0.1, -2.5, 1e-17], 5),
        "extremes": np.array(extremes * 3 + [0.0]),
        "strided": np.arange(40.0)[::2] / 7.0,
        "swapped": np.arange(20.0).astype(">f8") / 3.0,
        "inf": np.array([math.inf, -math.inf, 1.0, 0.5] * 5),
        "100% {k}": {"{}": np.full(20, 0.75), "%s%%": np.linspace(-1.0, 1.0, 20)},
    }
    want = [canonical_json({key: _row(value, k) for key, value in columns.items()}) for k in range(20)]
    assert want == [reference_json({key: _row(value, k) for key, value in columns.items()}) for k in range(20)]
    assert canonical_json_rows(columns, 20) == want


def test_rows_of_random_float_bit_patterns_equal_the_reference_writer():
    bits = np.random.default_rng(17).integers(-(2**63), 2**63, 10_000, dtype=np.int64).view(float)
    column = np.concatenate([bits[np.isfinite(bits)]] * 2)
    assert canonical_json_rows({"x": column}, len(column)) == [reference_json({"x": x}) for x in column.tolist()]


def test_rows_of_a_periodic_float_column_with_nan_raise():
    with pytest.raises(ValueError, match="NaN"):
        canonical_json_rows({"%{}": np.tile([0.5, math.nan, 0.5], 3)}, 9)


def test_rows_keep_the_errors_of_canonical_json():
    with pytest.raises(ValueError, match="NaN"):
        canonical_json_rows({"x": np.array([1.0, math.nan])}, 2)
    with pytest.raises(TypeError):
        canonical_json_rows({1: [0.0]}, 1)


def test_input_digest_of_catalog_document():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["zoo-emit", "random", "--dim", "2", "--param", "kraus_rank=4", "--param", "seed=7"]) == 0
    doc = json.loads(out.getvalue())
    assert input_digest(doc) == "314d72e572f00f2e2f18e5d2b9f0a9e31433e27bce9f951e3fbf34e1803e3f9d"


# --- parsers -------------------------------------------------------------------

_numbers = st.integers(-(2**1000), 2**1000) | st.floats(allow_nan=False, allow_infinity=False)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.lists(st.lists(_numbers, min_size=2, max_size=2), min_size=width, max_size=width), min_size=1, max_size=4
        )
    )
)
def test_parsers_return_the_reference_arrays(rows):
    assert _same_array(json_to_matrix(rows), reference_matrix(rows))
    assert _same_array(json_to_vector(rows[0]), reference_vector(rows[0]))


HUGE = 10**400

# Lists of entries with an entry fault; the first faulty entry decides.
BAD_ENTRIES = {
    "pair-of-one": [[1.0]],
    "pair-of-three": [[1.0, 0.0, 0.0]],
    "bool": [[True, 0.0]],
    "string": [["1", 0.0]],
    "null": [[None, 0.0]],
    "nested-list": [[[1.0], 0.0]],
    "string-entry": ["ab"],
    "object-entry": [{"re": 1, "im": 0}],
    "nan": [[math.nan, 0.0]],
    "inf": [[0.0, -math.inf]],
    "nan-before-string": [[math.nan, 0.0], ["x", 0.0]],
    "string-before-nan": [["x", 0.0], [math.nan, 0.0]],
}

BAD_VECTORS = {"not-a-list": {"a": 1}, "empty": [], **BAD_ENTRIES}

BAD_MATRICES = {
    "not-a-list": {"a": 1},
    "no-rows": [],
    "ragged": [[[1, 0], [0, 0]], [[0, 0]]],
    "empty-row": [[[1, 0]], []],
    "empty-first-row": [[], [[1, 0]]],
    "row-not-a-list": [[[1, 0]], 5],
    # an entry fault in an earlier row comes before a row fault, and after it
    "entry-fault-before-ragged-row": [[[1, 0], [True, 0]], [[0, 0]]],
    "ragged-row-before-entry-fault": [[[1, 0], [0, 0]], [[0, 0]], [["x", 0]]],
    **{name: [row] for name, row in BAD_ENTRIES.items()},
}


@pytest.mark.parametrize("name", sorted(BAD_MATRICES))
def test_matrix_errors_match_reference(name):
    rows = BAD_MATRICES[name]
    with pytest.raises(ValueError) as expected:
        reference_matrix(rows, what="kraus operator")
    with pytest.raises(ValueError) as got:
        json_to_matrix(rows, what="kraus operator")
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name", sorted(BAD_VECTORS))
def test_vector_errors_match_reference(name):
    entries = BAD_VECTORS[name]
    with pytest.raises(ValueError) as expected:
        reference_vector(entries, what="bath_state")
    with pytest.raises(ValueError) as got:
        json_to_vector(entries, what="bath_state")
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "rows",
    [[[[HUGE, 0]]], [[[0.5, -HUGE]]], [[[1, 0], [HUGE, 0]], [[0, 0]]], [[[HUGE, 0], ["x", 0]]]],
    ids=["real", "imaginary", "before-ragged-row", "before-string"],
)
def test_integer_beyond_double_range_is_not_finite(rows):
    with pytest.raises(OverflowError):
        reference_matrix(rows)
    with pytest.raises(ValueError, match=r"^state: entries must be finite$"):
        json_to_matrix(rows, what="state")
    with pytest.raises(ValueError, match=r"^state: entries must be finite$"):
        json_to_vector(rows[0], what="state")


_junk = st.none() | st.booleans() | st.text(max_size=2) | st.floats() | st.integers(-(2**1100), 2**1100)
_entries = st.lists(_junk, max_size=3) | _junk
_rows = st.lists(st.lists(_entries, max_size=3) | _junk, max_size=3) | _junk


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rows)
def test_parsers_agree_with_reference_on_arbitrary_json(rows):
    for parse, reference in ((json_to_matrix, reference_matrix), (json_to_vector, reference_vector)):
        try:
            expected = reference(rows, what="doc")
        except OverflowError:
            expected = ValueError("doc: entries must be finite")
        except ValueError as exc:
            expected = exc
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError) as got:
                parse(rows, what="doc")
            assert str(got.value) == str(expected)
        else:
            assert _same_array(parse(rows, what="doc"), expected)
