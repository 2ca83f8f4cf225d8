"""The JSON writer of the CLI, `cli._dumps`, against the one it replaced:
`json.dumps(x, indent=2, sort_keys=True)`, which is kept here as the oracle.
Output must agree byte for byte on any JSON value and on the payload of
every command that writes JSON."""

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sandwich.cli
from sandwich.cli import _dumps, main


def reference_dumps(x):
    return json.dumps(x, indent=2, sort_keys=True)


scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=8) | st.sampled_from(["", "\n", '"', "\\", "é", " ", "[", "}"]))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)
                   | st.dictionaries(st.floats(0, 1), inner, max_size=3)),
    max_leaves=40,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(json_values)
def test_dumps_matches_json_dumps(x):
    assert _dumps(x) == reference_dumps(x)


class Level(IntEnum):
    LOW = 1


@pytest.mark.parametrize("x", [
    [], {}, [[]], {"a": {}}, [{}, []], {"a": [], "b": [1]},
    [1, True, None, 1.5, "s"], {"b": 1, "a": None, "c": [True]},
    # exact types only take the fast path: an int subclass goes through the
    # recursion and still prints as the integer
    [Level.LOW, 2], {"k": Level.LOW}, [float("nan"), float("inf"), -0.0],
    {"x": [[1, 2], [3]], "y": [{"z": "w"}, [{}]]},
    # keys that are no strings are written as json writes them
    {2: [1], 10: {}}, {1.5: [None], 0.25: [1]}, {None: [[]]}, {True: [{}]},
    # a list of exact ints is one join of its repr, a one-item tuple's too
    [5], (5,), [-1, 10**30, 0], [True, 1], [1, 1.0],
    # str keys as json.dumps writes them; scalar leaves beside a container
    {"é": 1, "\n": [2], '"': {"k": 3}}, {"a": "é", "b": [1], "c": 10**20},
    # literals at the top level and as leaves: no encoder is built for them
    True, None, (), {"ok": True, "problems": []},
    # ints in 0..255 come from a table; one outside it falls back to the repr
    [0, 255, 7], [0, 256], [3, -1], (255,),
])
def test_dumps_edge_cases(x):
    assert _dumps(x) == reference_dumps(x)


# every command that writes JSON, with inputs from the CLI tests' fixture
JSON_COMMANDS = {
    "germ": [("germ", "--graph", "twocusp.plumb", "--trace", "trace.json"),
             ("germ", "--graph", "e3.plumb")],
    "validate": [("validate", "--wire", "fig.wire"),
                 ("validate", "--wire", "fig.wire", "--germ", "twocusp.germ"),
                 ("validate", "--wire", "figfull.wire", "--germ", "twocusp.germ")],
    "vanishing": [("vanishing", "--wire", "figfull.wire")],
    "incidence": [("incidence", "--wire", "figfull.wire")],
    "compare": [("compare", "--wire", "fig.wire", "--wire", "figfull.wire"),
                ("compare", "--wire", "fig.wire", "--wire", "fig.wire", "--unlabeled")],
    "inside-out": [("inside-out", "--wire", "abc.wire", "--hole", "3")],
    "unexpected": [("unexpected", "--graph", "e3.plumb", "-N", "1", "--wmax", "3", "-o", "K")],
    "auts": [("auts", "--graph", "twocusp.plumb"), ("auts", "--graph", "K.plumb")],
}


def test_every_command_payload(work, capsys, monkeypatch):
    monkeypatch.chdir(work)
    (work / "abc.wire").write_text("strands 3\ncomponents a=1 b=2 c=3\nseq: 1, I(1..3), 1, F(1), 1\n")
    payloads = []

    def spy(x, indent=""):
        if not indent:  # a whole payload, not a part of one
            payloads.append(x)
        return _dumps(x, indent)

    monkeypatch.setattr(sandwich.cli, "_dumps", spy)
    for command, runs in JSON_COMMANDS.items():
        for argv in runs:
            before = len(payloads)
            assert main(list(argv)) in (0, 1), argv
            assert len(payloads) > before, argv
    capsys.readouterr()
    assert sorted(JSON_COMMANDS) == sorted(
        name for name in sandwich.cli._COMMANDS
        if name not in ("graph", "scott", "wire-from-vanishing", "extend", "render"))
    for x in payloads:
        assert _dumps(x) == reference_dumps(x)
    # the large ones: the germ trace and the 10,080 maps of the N=1 graph
    assert any(len(x.get("automorphisms", ())) == 10080 for x in payloads)
    assert any("steps" in x for x in payloads)
