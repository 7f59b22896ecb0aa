"""dumps is json.dumps(obj, indent=2), byte for byte; the stdlib encoder is
the oracle."""
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import delq
from delq.jsontext import KeyedStack, Records, dumps

SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16,
                  1e-7, 0.1, 1.7976931348623157e308]

text = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["%", "%s", "%%d", "ß ", "\x00\x1f\"\\", "\U0001f600"])
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS) | st.floats().map(np.float64)
scalars = st.none() | st.booleans() | st.integers() | floats | text
keys = text | st.integers() | st.floats() | st.booleans() | st.none()


@st.composite
def records(draw, values):
    """A list of dicts that share their str keys, in the same order."""
    names = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[values] * len(names)), min_size=2, max_size=5))
    return [dict(zip(names, row)) for row in rows]


json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)
                      | records(children)),
    max_leaves=30,
)


def oracle(obj) -> str:
    return json.dumps(obj, indent=2)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_dumps_is_json_dumps_with_indent_2(obj):
    assert dumps(obj) == oracle(obj)


@settings(max_examples=200, deadline=None)
@given(st.lists(records(scalars), min_size=1, max_size=3))
def test_records_are_emitted_as_json_emits_them(obj):
    assert dumps(obj) == oracle(obj)


def test_records_whose_keys_compare_equal_keep_their_own_key_text():
    obj = [{1: 0.5}, {True: 0.5}, {1.0: 0.5}]
    assert dumps(obj) == oracle(obj)
    assert dumps([{"a": 1, "b": 2}, {"b": 2, "a": 1}]) == oracle([{"a": 1, "b": 2},
                                                                   {"b": 2, "a": 1}])


def test_unsupported_values_raise_type_error_as_json_does():
    for bad in (np.int64(1), np.arange(3), np.bool_(True), {(1, 2): 0.0}, object()):
        with pytest.raises(TypeError):
            oracle(bad)
        with pytest.raises(TypeError):
            dumps(bad)


array_floats = st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS)
shapes = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4) | st.sampled_from(
    [(0,), (0, 3, 3), (5, 1, 1), (4, 0, 2)])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, shapes, elements=array_floats), st.integers(0, 3))
def test_float_array_is_emitted_as_its_tolist(a, depth):
    """At every indent level, and as a view in any order."""
    wrap = a
    for _ in range(depth):
        wrap = {"x": [wrap, 1]}
    want = a.tolist()
    for _ in range(depth):
        want = {"x": [want, 1]}
    assert dumps(wrap) == oracle(want)
    assert dumps(a.T) == oracle(a.T.tolist())


def test_float32_array_is_emitted_as_its_tolist():
    a = np.array([[0.1, np.nan], [1e30, -0.0]], dtype=np.float32)
    assert dumps(a) == oracle(a.tolist())


@settings(max_examples=200, deadline=None)
@given(st.lists(text, unique=True, max_size=6).flatmap(lambda names: st.tuples(
    st.just(names),
    hnp.arrays(np.float64, st.tuples(st.just(len(names)), st.integers(0, 3), st.integers(0, 3)),
               elements=array_floats))), st.integers(0, 2))
def test_keyed_stack_is_emitted_as_the_dict_it_maps(names_and_stack, depth):
    names, stack = names_and_stack
    obj, want = KeyedStack(names, stack), {name: M.tolist() for name, M in zip(names, stack)}
    for _ in range(depth):
        obj, want = [obj], [want]
    assert dumps(obj) == oracle(want)


def test_keyed_stack_is_a_read_only_mapping():
    stack = np.arange(8.0).reshape(2, 2, 2)
    obj = KeyedStack(["0,1", "1,1"], stack)
    assert list(obj) == ["0,1", "1,1"] and len(obj) == 2
    assert np.array_equal(obj["1,1"], stack[1])
    with pytest.raises(KeyError):
        obj["2,1"]
    with pytest.raises(ValueError, match="3 keys for a stack of 2"):
        KeyedStack(["a", "b", "c"], stack)


@settings(max_examples=200, deadline=None)
@given(records(scalars), st.integers(0, 2))
def test_column_records_are_emitted_as_the_list_of_dicts_they_map(rows, depth):
    """Records holds the columns of a list of dicts with the same str keys;
    dumps emits it as json emits that list, at every indent level."""
    keys = tuple(rows[0])
    obj = Records(keys, [[r[k] for r in rows] for k in keys])
    want = rows
    for _ in range(depth):
        obj, want = {"x": [obj, 1]}, {"x": [want, 1]}
    assert dumps(obj) == oracle(want)


def test_column_records_are_a_read_only_sequence():
    obj = Records(("kind", "k"), [("a", "b", "c"), (1, 2, None)])
    assert len(obj) == 3 and list(obj) == [{"kind": "a", "k": 1}, {"kind": "b", "k": 2},
                                           {"kind": "c", "k": None}]
    assert obj[-1] == {"kind": "c", "k": None}
    assert dumps(obj) == oracle(list(obj))
    assert dumps(Records(("a",), [[]])) == oracle([]) == "[]"
    assert dumps(Records(("a",), [[0.5]])) == oracle([{"a": 0.5}])
    for keys, columns in (((), ()), (("a", "a"), ([1], [2])), ((1,), ([1],)),
                          (("a", "b"), ([1],)), (("a", "b"), ([1], [2, 3]))):
        with pytest.raises(ValueError):
            Records(keys, columns)


def test_no_other_json_encoder_in_the_package():
    """Every JSON text the package writes goes through dumps."""
    pattern = re.compile(r"json\.dumps?\(")
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(pathlib.Path(delq.__file__).parent.glob("*.py"))
        if path.name != "jsontext.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
