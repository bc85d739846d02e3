"""``render_json`` renders exactly what ``json.dumps(sort_keys=True, indent=2)`` does,
and CSV tables are projected from the JSON payload."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantoract.reports import density_csv, lcs_csv, render_json

# characters a template or an escape could get wrong: the template's own
# '%', JSON's quote and backslash, control characters, and non-ASCII ones
# inside and outside the basic plane
TEXT = st.text(alphabet='ab%s"\\\n\t\x00\x7fé☃\U0001d11e', max_size=8) | st.text(max_size=4)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers(-10**40, 10**40)
    | TEXT
)

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25,
)


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_render_matches_json_dumps(payload):
    assert render_json(payload) == reference(payload)


@settings(max_examples=200, deadline=None)
@given(VALUES, VALUES)
def test_shared_objects_render_at_each_indent(shared, other):
    # one object at indents 2, 4 and 8, and twice at indent 4
    payload = {"a": shared, "b": [shared, {"c": [other, shared]}, shared], "%s": other}
    assert render_json(payload) == reference(payload)


def test_edge_values():
    row = {"level": 1, "ratio": {"num": -1, "den": 2**70}}
    payload = {
        "": [],
        "empty": {},
        "bools next to ints": [True, 1, False, 0, None, -0],
        "keys": {'%': 1, '%%s': 2, '"': 3, "\\": 4, "\n": 5, "é": 6, "\U0001d11e": 7},
        "rows": [row, row, [row], {"row": row}],
        "nested": [[[]], [{}], {"x": [[{"y": []}]]}],
    }
    assert render_json(payload) == reference(payload)
    assert render_json({}) == "{}\n" and render_json([]) == "[]\n"


@pytest.mark.parametrize("payload", [
    1.5,
    {"a": [1, {"b": 0.0}]},
    {"ratio": Fraction(1, 2)},
    [(1, 2)],
    {"s": {1, 2}},
    [object()],
    {1: "a"},
    {"a": {None: 1}},
    [{True: 1}],
    {("a",): 1},
])
def test_values_outside_json_types_raise(payload):
    with pytest.raises(TypeError):
        render_json(payload)


@settings(max_examples=300, deadline=None)
@given(st.fractions() | st.fractions(max_denominator=10**30))
def test_csv_ratio_cells_are_the_exact_fraction(value):
    payload = {"entries": [{"level": 0, "density": {"num": value.numerator,
                                                    "den": value.denominator}}]}
    header, rows = density_csv(payload)
    assert header == ["level", "num", "den", "dec"]
    assert rows == [[0, value.numerator, value.denominator, format(float(value), ".12g")]]


def test_csv_null_and_missing_values_are_empty_cells():
    classes = [
        {"class": 1, "examined": 3, "truncated": False, "nonvanishing": True,
         "best_word": "g", "hol_estimate": {"num": 1, "den": 3}},
        {"class": 2, "examined": 0, "truncated": True, "nonvanishing": False,
         "best_word": None, "hol_estimate": None},
        {"class": 3},
    ]
    header, rows = lcs_csv({"classes": classes})
    assert header == ["class", "examined", "truncated", "best_word", "hol_num", "hol_den",
                      "hol_dec", "nonvanishing"]
    assert rows == [
        [1, 3, False, "g", 1, 3, "0.333333333333", True],
        [2, 0, True, "", "", "", "", False],
        [3, "", "", "", "", "", "", ""],
    ]
