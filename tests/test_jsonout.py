from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexbench.jsonout import indented_json

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
#: Every key type json.dumps accepts, mixed so that sorting some fails.
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple), st.dictionaries(KEYS, children)),
    max_leaves=30,
)


def _outcome(write):
    try:
        return write()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestIndentedJsonOracle:
    """The output writer against ``json.dumps(..., indent=2)``: the same text,
    or the same error, for every combination of ``sort_keys`` and
    ``ensure_ascii``."""

    @settings(deadline=None)
    @given(VALUES, st.booleans(), st.booleans())
    def test_random_values(self, value, sort_keys, ensure_ascii):
        assert _outcome(lambda: indented_json(value, sort_keys=sort_keys, ensure_ascii=ensure_ascii)) == _outcome(
            lambda: json.dumps(value, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii))

    @pytest.mark.parametrize("value", [
        {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "zero": -0.0, "big": 10 ** 30},
        {1: "int", 2.5: "float", True: "bool", None: "none", "é": [" ", "\x00", ()]},
        [[], {}, [[[]]], {"a": {"b": {}}}],
        "top-level string",
    ])
    @pytest.mark.parametrize("sort_keys", [False, True])
    @pytest.mark.parametrize("ensure_ascii", [False, True])
    def test_edge_values(self, value, sort_keys, ensure_ascii):
        assert _outcome(lambda: indented_json(value, sort_keys=sort_keys, ensure_ascii=ensure_ascii)) == _outcome(
            lambda: json.dumps(value, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii))

    @pytest.mark.parametrize("value", [{"a": object()}, [{1, 2}], {(1, 2): "tuple key"}])
    def test_unserializable_values_raise_the_same_error(self, value):
        assert _outcome(lambda: indented_json(value)) == _outcome(lambda: json.dumps(value, indent=2))
