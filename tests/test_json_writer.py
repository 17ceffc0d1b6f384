"""cli._dumps, the one JSON writer, against json.dumps(indent=2, sort_keys=True)."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from thetatwist.cli import _dumps

# ints past 2^64, and strings with quotes, control characters, non-ASCII and
# lone surrogates, which the C escaper writes as \udxxx
ints = st.integers(-(2**70), 2**70)
strings = st.text(st.characters() | st.characters(categories=["Cs"]) | st.sampled_from('"\\\n\t\x00\x7f'))
leaves = st.none() | st.booleans() | ints | strings
# an outcome row: [p, status, observed, predicted], patterns as int lists
rows = st.tuples(ints, strings, st.lists(ints), st.lists(ints | st.lists(ints)))


def _containers(children):
    return (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(strings, children)
        | st.lists(ints)
        | st.lists(ints | st.booleans())
        | rows
    )


documents = st.recursive(leaves, _containers, max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(documents)
@example({})
@example([])
@example({"a": [], "b": {}, "c": ()})
@example({"outcomes": [[2, "match", [1, 1, 3], [1, 1, 3]], [3, "ambiguous_pass", [1] * 12, [[1] * 12, [1, 11]]]]})
@example([True, 1, False, 0])
def test_dumps_writes_the_bytes_of_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "doc",
    [1.5, [1, 2.0], {1, 2}, {"a": {3}}, {1: "a"}, {"a": 1, 2: "b"}],
    ids=["float", "float-in-int-list", "set", "nested-set", "int-key", "mixed-keys"],
)
def test_dumps_refuses_what_the_tool_never_writes(doc):
    with pytest.raises(TypeError):
        _dumps(doc)
