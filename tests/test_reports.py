"""``render_json`` renders exactly what ``json.dumps(sort_keys=True, indent=2)`` does,
and CSV tables are projected from the JSON payload."""

import gc
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantoract as ca
from cantoract.reports import density_csv, farber_payload, lcs_csv, render_json

# characters a format string or an escape could get wrong: '%', JSON's
# quote and backslash, control characters, and non-ASCII ones
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


@settings(max_examples=200, deadline=None)
@given(VALUES, VALUES)
def test_shared_containers_nested_in_shared_containers(shared, other):
    # ``outer`` holds ``shared`` twice; both are met first at one indent,
    # then again at that indent and at others, inside and outside each other
    outer = {"s": shared, "t": [shared, other, shared]}
    payload = {"a": [outer, {"o": outer}, outer], "b": outer, "c": [[[outer, shared]]],
               "d": shared, "e": [shared, outer]}
    assert render_json(payload) == reference(payload)


def test_farber_trajectories_share_by_identity():
    chain = ca.fragmented()
    report = ca.farber_check(chain, max_word_len=3, depth=6)
    # the check builds one tuple per distinct trajectory, so identity finds
    # every trajectory two words share
    assert len({id(w.trajectory) for w in report.words}) == len({w.trajectory for w in report.words})
    assert len({id(w.trajectory) for w in report.words}) < len(report.words)
    # every verdict gets its own trajectory tuple, equal to the shared one
    apart = report._replace(words=tuple(
        w._replace(trajectory=tuple((level, ratio + 0) for level, ratio in w.trajectory))
        for w in report.words))
    shared, distinct = farber_payload(report, chain.alphabet), farber_payload(apart, chain.alphabet)
    assert distinct == shared
    for payload, source in ((shared, report), (distinct, apart)):
        assert (len({id(w["trajectory"]) for w in payload["words"]})
                == len({id(w.trajectory) for w in source.words}))
    assert render_json(distinct) == render_json(shared) == reference(shared)


def test_render_peak_is_about_the_report_size():
    # farber-shaped: every word row shares one 12-level trajectory
    trajectory = [{"level": level, "ratio": {"num": 1, "den": 2**level}}
                  for level in range(1, 13)]
    payload = {"kind": "classic", "overall": "pass", "words": [
        {"word": f"g{i}", "verdict": "pass", "trajectory": trajectory} for i in range(2000)]}
    tracemalloc.start()
    try:
        text = render_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference(payload)
    # the text itself is len(text) bytes (ASCII); a renderer that also keeps
    # each container's text until the end peaks at about 4x that
    assert peak <= 1.5 * len(text)


def test_render_leaves_no_cyclic_garbage():
    chain = ca.fragmented()
    payload = farber_payload(ca.farber_check(chain, max_word_len=2, depth=6), chain.alphabet)
    gc.collect()
    gc.disable()
    try:
        text = render_json(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == reference(payload)


def test_edge_values():
    ratio = {"num": -1, "den": 2**70}
    row = {"level": 1, "ratio": ratio}
    # shared inside shared: ``ratio`` in ``row`` in ``rows``
    rows = [row, {"level": 2, "ratio": ratio}, row]
    payload = {
        "": [],
        "empty": {},
        "bools next to ints": [True, 1, False, 0, None, -0],
        "keys": {'%': 1, '%%s': 2, '"': 3, "\\": 4, "\n": 5, "é": 6, "\U0001d11e": 7},
        "rows": [row, row, [row], {"row": row}],
        "words": [{"trajectory": rows}, {"trajectory": rows}, [[rows, [row, ratio]]], ratio],
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
