"""The streaming artifact writer against json.dumps(obj, sort_keys=True, indent=2)."""

import enum
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hayesdist import _writer
from hayesdist.cli import run


def written(obj) -> str:
    buf = io.StringIO()
    _writer.dump(obj, buf)
    return buf.getvalue()


def expected(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


_TRICKY_TEXT = st.text(alphabet='"\\/\x00\x01\x1f\x7f\b\f\n\r\t %sé \ud800\U0001f600', max_size=6)
_TEXT = st.text(max_size=8) | _TRICKY_TEXT
_KEYS = _TEXT | st.sampled_from(["%", "%s", "%(x)s", "pass", "a", "b"])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 300), max_value=2 ** 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, -1e300, 5e-324, float("nan"), float("inf"), float("-inf"), 0, 1, 1.0]),
    _TEXT,
)


def _record_lists(children):
    """Lists of flat dicts on one key set; two such runs joined differ in keys."""
    one_run = st.lists(_KEYS, min_size=1, max_size=4, unique=True).flatmap(
        lambda names: st.lists(st.fixed_dictionaries({k: children for k in names}), min_size=1, max_size=4)
    )
    return st.tuples(one_run, one_run).map(lambda runs: runs[0] + runs[1])


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
        _record_lists(children),
    )


_PAYLOADS = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_writer_matches_json_dumps(obj):
    assert written(obj) == expected(obj)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(_KEYS, _PAYLOADS, min_size=1, max_size=6))
def test_writer_matches_json_dumps_on_records_in_any_key_order(record):
    # one key set, inserted in two orders, in a record list and at the top level
    obj = {"checks": [record, dict(reversed(record.items())), record], **record}
    assert written(obj) == expected(obj)


class _Level(enum.IntEnum):
    LOW = 1


# subclasses whose own text json does not use
class _Count(int):
    def __repr__(self):
        return "count"

    __str__ = __repr__


class _Text(str):
    def __str__(self):
        return "text"


class _Real(float):
    def __repr__(self):
        return "real"

    __str__ = __repr__


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        "top",
        7,
        -0.0,
        None,
        [{}, {}, [], [[]]],
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"a": 5}, {"a": 6, "b": 7}, {"c": [{"a": 1}]}],
        {1: "one", 2: "two", 10: "ten"},
        {1.5: 0, -0.0: 1, float("inf"): 2},
        {False: 0, True: 1},
        {None: 1},
        [{1: "a"}, {True: "b"}, {1.0: "c"}],
        [{"x": True}, {"x": 1}, {"x": 1.0}],
        {"n": np.float64(0.1), "m": np.float64("nan")},
        [_Level.LOW, _Count(3), _Text("t"), _Real(2.5), {"k": _Level.LOW, "n": _Count(4)}, {_Count(5): 0}],
        {"nested": {"deep": {"deeper": [{"a": (1, 2)}, {"a": {"b": None}}]}}},
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert written(obj) == expected(obj)


@pytest.mark.parametrize(
    "obj",
    [
        Fraction(1, 2),
        {"value": Fraction(1, 2)},
        [np.int64(3)],
        {"record": [{"a": np.float32(1.0)}]},
        {"s": {1, 2}},
        {(1, 2): "tuple key"},
        [{"a": 1}, {b"a": 1}],
        {"a": 1, 2: "mixed keys"},
    ],
)
def test_writer_raises_what_json_raises(obj):
    with pytest.raises(TypeError) as want:
        expected(obj)
    with pytest.raises(TypeError) as got:
        written(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"],
        ["moments-check", "--p", "2", "--ell", "1", "--Q", "x + 1", "--k", "2"],
        ["weil", "--p", "3", "--ell", "1", "--Q", "x^2 + 1"],
        ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "1", "--seed", "3"],
        ["rs", "--p", "5", "--k", "1", "--ell", "1", "--census"],
        ["rs", "--p", "5", "--k", "1", "--ell", "1", "--word", "x^2 + 3*x"],
        ["approx", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"],
        ["regimes", "--p", "2", "--a", "4", "--ell", "2", "--k-list", "2,4,8"],
        ["series-check", "--p", "2", "--ell", "1", "--Q", "x", "--d-max", "4"],
        ["kernels", "cycle-average", "--j", "4", "--a-val", "7/2", "--b-val", "1/2", "--p-char", "3"],
    ],
)
def test_cli_artifact_is_json_dumps_of_its_content(tmp_path, argv):
    out = tmp_path / "artifact.json"
    assert run(argv + ["--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
