"""Fuzz of spec parsing: any JSON either parses or raises a DualisError,
which the command line turns into exit 2; nothing else escapes.

Only parse_spec runs, never a check, so no input can start a long walk.
Skipped when hypothesis is not installed (it is the ``test`` extra).
"""

import copy
import json

import pytest

from dualis.errors import DualisError
from dualis.specdoc import SpecDocument, parse_spec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# one object of every kind, and a check on each
VALID = {
    "objects": {
        "a": {"type": "algebra", "field": "fp:7", "dim": 2,
              "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]], "unit": ["1", "0"]},
        "c": {"type": "coalgebra", "field": "q", "dim": 2,
              "comult": [[0, 0, 0, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]], "counit": ["1", "0"]},
        "m": {"type": "comodule", "coalgebra": "c", "dim": 1, "coaction": [[0, 0, 0, "1"]]},
        "s": {"type": "functional", "field": "q", "sequence": ["1", "1", "2", "3"]},
        "q": {"type": "quiver", "vertices": [0, 1], "arrows": [[0, 1]]},
        "t": {"type": "quiver-template", "name": "finite", "quiver": "q"},
        "r": {"type": "quiver-template", "name": "star:2"},
        "p": {"type": "poset", "elements": [0, 1], "relation": [[0, 1]]},
        "h": {"type": "bialgebra", "field": "q", "cayley": [[0, 1], [1, 0]], "inverses": [0, 1]},
    },
    "checks": [
        {"check": "verify_pathdual_iso", "refs": ["q"], "params": {"max_len": 2}},
        {"check": "verify_incidencedual_iso", "refs": ["p"], "params": {"field": "fp:5"}},
        {"check": "semiperfect", "refs": ["r"], "params": {"side": "left", "radius": 2}},
        {"check": "coreflexive", "refs": ["c"]},
        {"check": "unital_dual_compat", "refs": ["a"]},
        {"check": "lattice_agreement", "refs": ["m"], "params": {"samples": 3}},
        {"check": "linrec", "refs": ["s"], "params": {"rank_bound": 2}},
        {"check": "hopf_selfdual", "refs": ["h"]},
    ],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2000) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=12)

# replacements aimed at the parser's checks: out-of-range, oversized,
# fractional and infinite numbers; unknown and wrong-kind refs and types;
# bad scalars; and JSON of any other type
replacements = st.sampled_from([float("inf"), -1, 3, 1025, 10 ** 30, 1.5, True]) | \
    st.sampled_from(["ghost", "widget", "x", "1/0", "star:0", *VALID["objects"],
                     *{block["type"] for block in VALID["objects"].values()}]) | \
    json_values

def _paths(node, path=()):
    """Every path of keys and indices below node."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """VALID with a few nodes dropped or replaced."""
    doc = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(replacements)
    return doc


def _parses_or_rejects(text: str):
    try:
        doc = parse_spec(text)
    except DualisError:
        return
    assert isinstance(doc, SpecDocument)


def test_the_valid_document_parses():
    assert len(parse_spec(json.dumps(VALID)).checks) == len(VALID["checks"])


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(json_values)
def test_any_json_value_parses_or_is_rejected(value):
    _parses_or_rejects(json.dumps(value))
    _parses_or_rejects(json.dumps({"objects": {"x": value}, "checks": [value]}))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutated_documents())
def test_a_mutated_document_parses_or_is_rejected(doc):
    _parses_or_rejects(json.dumps(doc))
