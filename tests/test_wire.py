from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

from agentmesh.wire import dumps, json_float, json_hex, load_json, load_jsonl

_finite_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@given(_finite_json)
def test_dumps_is_the_sorted_compact_rendering_on_finite_input(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_refuses_what_standard_json_cannot_hold(value):
    for obj in (value, [1.0, value], {"a": {"b": value}}):
        with pytest.raises(ValueError):
            dumps(obj)


def test_loaders_read_what_dumps_writes(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(dumps({"b": [1, 2.5], "a": None}))
    assert load_json(path) == {"a": None, "b": [1, 2.5]}
    path.write_text("\n".join([dumps(1), "", "  ", dumps(2)]) + "\n")
    assert load_jsonl(path, lambda obj: obj * 10) == [10, 20]


def test_load_jsonl_names_the_line_a_value_error_comes_from(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('1\n\n"x"\n')

    def parse(obj):
        if not isinstance(obj, int):
            raise ValueError("not an integer")
        return obj

    with pytest.raises(ValueError, match="^line 3: not an integer$"):
        load_jsonl(path, parse)
    path.write_text("1\n{\n")
    with pytest.raises(ValueError, match="^line 2: "):
        load_jsonl(path, parse)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_json_float_refuses_what_json_reads_as_not_finite(text):
    with pytest.raises(ValueError, match="^x must be finite$"):
        json_float(json.loads(text), "x")


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**1000), 2**1000))
def test_json_float_reads_every_finite_number(value):
    assert json_float(value, "x") == float(value)


@pytest.mark.parametrize("value", [10**400, True, "1.0", None, [1.0]])
def test_json_float_refuses_what_is_not_a_float(value):
    with pytest.raises(ValueError, match="^x "):
        json_float(value, "x")


@given(st.binary(max_size=70))
def test_json_hex_reads_what_bytes_hex_writes(data):
    assert json_hex(data.hex(), "x") == data
    assert json_hex(data.hex(), "x", len(data)) == data


@pytest.mark.parametrize(
    "value, size, message",
    [
        ("AB", None, "x must be lowercase hex, two digits a byte"),
        ("ab cd", None, "x must be lowercase hex, two digits a byte"),
        ("abc", None, "x must be lowercase hex, two digits a byte"),
        ("ab\n", None, "x must be lowercase hex, two digits a byte"),
        ("0xab", None, "x must be lowercase hex, two digits a byte"),
        ("abcd", 1, "x must be 1 bytes, got 2"),
        ("", 32, "x must be 32 bytes, got 0"),
        (None, None, "x must be a string"),
        (b"ab", None, "x must be a string"),
    ],
)
def test_json_hex_refuses_any_other_spelling_or_size(value, size, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        json_hex(value, "x", size)
