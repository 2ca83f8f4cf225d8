import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sandwich
from sandwich.cli import _COMMANDS, build_parser, main, render
from sandwich.errors import FormatError
from sandwich.fillings import incidence_canonical
from sandwich.plumbing import (
    Cluster,
    check_cluster,
    extend_chains,
    germ_from_augmentation,
    germ_json,
    graph_from_cluster,
    parse_germ,
    parse_plumb,
    serialize_germ,
    serialize_plumb,
)
from sandwich.wiring import (
    FreePoint,
    factorization_from_json,
    factorization_json,
    incidence,
    incidence_json,
    parse_wire,
    scott,
    serialize_wire,
    vanishing_data,
    wiring_from_vanishing,
)

from fixtures import E3_PLUMB, FIG, FIG_FULL, TWO_CUSP_GERM, TWO_CUSP_PLUMB, arrangement
from random_clusters import rand_cluster
from random_diagrams import rand_diagram


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_success_is_zero(self, work, capsys):
        code, out, err = run(capsys, "germ", "--graph", work / "e3.plumb")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["formatVersion"] == 1
        assert [b["weight"] for b in data["branches"]] == [2, 2]

    def test_semantic_false_is_one(self, work, capsys):
        code, out, _ = run(capsys, "validate", "--wire", work / "fig.wire",
                           "--germ", work / "twocusp.germ")
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_missing_file_is_two(self, work, capsys):
        code, _, err = run(capsys, "validate", "--wire", work / "nope.wire")
        assert code == 2
        assert json.loads(err)["code"] == "io"

    def test_parse_error_is_two_with_location(self, work, capsys):
        (work / "bad.wire").write_text("strands 2\nseq: 1, Q(1), 1\n")
        code, _, err = run(capsys, "validate", "--wire", work / "bad.wire")
        assert code == 2
        data = json.loads(err)
        assert data["code"] == "format"
        assert "line" in data["location"]

    @pytest.mark.parametrize("name, content, command, location, message", [
        ("bad.plumb", b"vertex v -2\r\nvertex w\xc3 -2\n", "germ --graph", "line 2",
         "not UTF-8: byte 0xc3 (invalid continuation byte)"),
        ("bad.germ", b"branch A\rpoint q0 parent root\n\n# \xe9", "graph --germ", "line 4",
         "not UTF-8: byte 0xe9 (unexpected end of data)"),
        ("bad.wire", b"strands 2\nseq: s1\xff\n", "validate --wire", "line 2",
         "not UTF-8: byte 0xff (invalid start byte)"),
        ("bad.json", b"\xff\xfe{}", "wire-from-vanishing --fact", "line 1",
         "not UTF-8: byte 0xff (invalid start byte)"),
    ], ids=["plumb", "germ", "wire", "json"])
    def test_bytes_that_are_not_utf8_are_a_located_format_error(self, work, capsys, name, content,
                                                                  command, location, message):
        # \r\n and a lone \r end a line, as in text mode
        (work / name).write_bytes(content)
        code, out, err = run(capsys, *command.split(), work / name)
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": location, "message": message}

    def test_usage_error_is_two(self, work, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["code"] == "usage"

    def test_bad_format_version(self, work, capsys, monkeypatch):
        monkeypatch.setenv("SANDWICH_FORMAT_VERSION", "9")
        code, _, err = run(capsys, "germ", "--graph", work / "e3.plumb")
        assert code == 2
        data = json.loads(err)
        assert data["code"] == "format"
        assert data["location"] == "SANDWICH_FORMAT_VERSION"

    def test_unparsable_format_version(self, work, capsys, monkeypatch):
        monkeypatch.setenv("SANDWICH_FORMAT_VERSION", "x")
        code, out, err = run(capsys, "germ", "--graph", work / "e3.plumb")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": "SANDWICH_FORMAT_VERSION",
                                   "message": "bad format version 'x'"}

    def test_arrow_vertex_name_is_reserved(self, work, capsys):
        (work / "taken.plumb").write_text("vertex v -1\nvertex @a -2\ncurvetta a on v\n")
        code, out, err = run(capsys, "germ", "--graph", work / "taken.plumb")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "range", "location": None,
                                   "message": "name @a is reserved for an arrow vertex"}

    @pytest.mark.parametrize("command, text, message", [
        ("scott", "branch A\n", "empty cluster"),
        ("scott", "branch A\npoint r parent root\npoint p parent r\npoint q parent p prox r,p\n"
                  "mult r A=1\nmult p A=1\nmult q A=1\n", "point q is proximate to more than two points"),
        ("scott", "branch A\npoint r parent root\npoint p parent r prox q\npoint q parent r\n"
                  "mult r A=1\nmult p A=1\n", "point p lists proximity to q, which does not precede it"),
        ("scott", "branch A\npoint r parent root\npoint p parent r prox r\nmult r A=1\nmult p A=1\n",
         "point p repeats its parent in prox"),
        ("graph", "branch A\npoint r parent root\npoint p parent r\npoint q parent p prox r\n"
                  "mult r A=2\nmult p A=1\nmult q A=1\n", "final point q must be free"),
    ])
    def test_cluster_structure_errors_are_two(self, work, capsys, command, text, message):
        (work / "bad.germ").write_text(text)
        code, out, err = run(capsys, command, "--germ", work / "bad.germ")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "proximity-violation", "location": None, "message": message}

    def test_scott_point_without_branch_is_two(self, work, capsys):
        (work / "bare.germ").write_text(
            "branch c0\npoint q0 parent root\npoint f1 parent q0\nmult q0 c0=1\n"
        )
        code, _, err = run(capsys, "scott", "--germ", work / "bare.germ")
        assert code == 2
        assert json.loads(err) == {
            "code": "proximity-violation", "location": None,
            "message": "point f1 carries no branch",
        }

    def test_long_smooth_branch_is_zero(self, work, capsys):
        n = 1500
        lines = ["branch A", "point q0 parent root"]
        lines += [f"point q{i} parent q{i - 1}" for i in range(1, n)]
        lines += [f"mult q{i} A=1" for i in range(n)]
        (work / "long.germ").write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "graph", "--germ", work / "long.germ")
        assert code == 0
        g, aug, _ = parse_plumb(out)
        assert len(g.vertices) == n - 1 and aug.arrows == (("A", f"q{n - 2}"),)
        code, out, _ = run(capsys, "scott", "--germ", work / "long.germ")
        assert code == 0
        assert parse_wire(out).events == (FreePoint(1),) * n

    def test_uncaught_exception_is_two(self, work, capsys, monkeypatch):
        # an exception that is no SandwichError is a failure to compute,
        # not a "no"
        def boom(g):
            raise RuntimeError("boom")

        monkeypatch.setattr(sandwich.cli, "automorphisms", boom)
        code, out, err = run(capsys, "auts", "--graph", work / "e3.plumb")
        assert code == 2 and out == ""
        data = json.loads(err)
        assert data["code"] == "internal" and data["location"] is None
        assert data["message"].startswith("RuntimeError: ")

    def test_deep_chain_automorphisms_are_zero(self, work, capsys):
        # no recursion per tree level: a 3000-vertex -2 chain has its flip
        n = 3000
        lines = [f"vertex v{i} -2" for i in range(n)]
        lines += [f"edge v{i} v{i + 1}" for i in range(n - 1)]
        (work / "deep.plumb").write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "auts", "--graph", work / "deep.plumb")
        assert code == 0
        maps = json.loads(out)["automorphisms"]
        assert len(maps) == 2
        assert {m["v0"] for m in maps} == {"v0", f"v{n - 1}"}

    @pytest.mark.parametrize("command", ["scott", "graph"])
    def test_repeated_branch_name_is_two(self, work, capsys, command):
        (work / "twice.germ").write_text(
            "branch A A\npoint q0 parent root\nmult q0 A=1\n"
        )
        code, out, err = run(capsys, command, "--germ", work / "twice.germ")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": "line 1", "message": "duplicate branch A"}

    @pytest.mark.parametrize("mults, location, message", [
        (["mult q0 A=2 B=5"], "line 3", "mult for unknown branch B"),
        (["mult q0 A=1 A=3"], "line 3", "duplicate multiplicity q0 A"),
        (["mult q0 A=1", "mult q0 A=3"], "line 4", "duplicate multiplicity q0 A"),
    ])
    @pytest.mark.parametrize("command", ["scott", "graph"])
    def test_bad_multiplicity_is_two(self, work, capsys, command, mults, location, message):
        (work / "bad.germ").write_text("branch A\npoint q0 parent root\n" + "\n".join(mults) + "\n")
        code, out, err = run(capsys, command, "--germ", work / "bad.germ")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": location, "message": message}

    @pytest.mark.parametrize("tail, location, message", [
        (["weight A 9", "weight A 2"], "line 6", "duplicate weight A"),
        (["weight A 9", "weight B 2"], "line 6", "weight for unknown branch B"),
        # an unknown weight branch is reported before an unknown mult branch
        (["mult q0 B=1", "weight A 9", "weight B 2"], "line 7", "weight for unknown branch B"),
    ])
    @pytest.mark.parametrize("command", ["scott", "graph"])
    def test_bad_weight_is_two(self, work, capsys, command, tail, location, message):
        (work / "bad.germ").write_text(
            "branch A\npoint q0 parent root\npoint q1 parent q0\nmult q0 A=1\n" + "\n".join(tail) + "\n"
        )
        code, out, err = run(capsys, command, "--germ", work / "bad.germ")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": location, "message": message}

    @pytest.mark.parametrize("suffix, text, location, message", [
        ("plumb", "vertex v -2\nvertex v -3\n", "line 2", "duplicate vertex v"),
        ("plumb", "vertex v -1\ncurvetta a on v\ncurvetta a on v\n", "line 3", "duplicate curvetta a"),
        ("plumb", "vertex v -2\nvertex w -2\nedge v w\nedge v w\n", "line 4", "duplicate edge v w"),
        ("plumb", "vertex v -2\nvertex w -2\nedge v w\nedge w v\n", "line 4", "duplicate edge v w"),
        ("plumb", "vertex v -2\nedge v v\n", "line 2", "self-loop at v"),
        ("plumb", "vertex v -1\ncurvetta a on v\nchains a=2,a=3\n", "line 3", "duplicate chain a"),
        ("plumb", "vertex v -1\ncurvetta a on v\nchains a=2\nchains a=3\n", "line 4", "duplicate chain a"),
        ("plumb", "vertex v -2\nedge v w\n", "line 2", "edge for unknown vertex w"),
        ("plumb", "vertex v -1\ncurvetta a on x\n", "line 2", "curvetta for unknown vertex x"),
        ("plumb", "vertex v -1\ncurvetta a on v\nchains z=2\n", "line 3", "chains for unknown curvetta z"),
        ("plumb", "vertex v -1\ncurvetta a on v\nchains a=-1\n", "line 3", "negative chain length for a"),
        ("plumb", "vertex v -1\ncurvetta a on v\nchains a=2\nvertex a.2 -2\nedge v a.2\n", "line 3",
         "chain vertex name a.2 collides"),
        ("germ", "branch A\npoint q0 parent root\nmult q0 A=1\nmult q9 A=1\n", "line 4",
         "mult for unknown point q9"),
        ("germ", "branch A\npoint q0 parent root\npoint q0 parent root\nmult q0 A=1\n", "line 3",
         "duplicate point q0"),
        ("germ", "branch A\nbranch A\npoint q0 parent root\nmult q0 A=1\n", "line 2", "duplicate branch A"),
    ])
    def test_name_errors_are_located(self, work, capsys, suffix, text, location, message):
        # every duplicate or unknown name is a format error at the line of the offending statement
        (work / f"bad.{suffix}").write_text(text)
        command = ("germ", "--graph") if suffix == "plumb" else ("scott", "--germ")
        code, out, err = run(capsys, *command, work / f"bad.{suffix}")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": location, "message": message}

    @pytest.mark.parametrize("chains, message", [
        ("c=2,c=3", "duplicate chain c"),
        ("z=2", "chains for unknown curvetta z"),
        ("c=-2", "negative chain length for c"),
        ("d=1,c=2", "chain vertex name c.1 collides"),
    ])
    def test_bad_chains_option_is_two(self, work, capsys, chains, message):
        # the file's own chain c.1 is in the graph that --chains extends
        (work / "e3c.plumb").write_text(E3_PLUMB + "chains c=1\n")
        code, out, err = run(capsys, "extend", "--graph", work / "e3c.plumb", "--chains", chains)
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": "--chains", "message": message}

    def test_cancelling_out_of_range_letters_are_two(self, work, capsys):
        (work / "cancel.wire").write_text("strands 2\nseq: s3 s3', T(1), 1\n")
        code, out, err = run(capsys, "validate", "--wire", work / "cancel.wire")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "range", "location": "line 2, seq[0]",
            "message": "braid letter 3 outside strand range 1..1",
        }

    @pytest.mark.parametrize("n, seq, location, message", [
        (3, "s5, I(1..2)", "line 2, seq[0]", "braid letter 5 outside strand range 1..2"),
        (3, "T(3)", "line 2, seq[0]", "tangency at 3 outside 1..2"),
        (3, "1, I(1..2), s1 s2', F(4), 1", "line 2, seq[3]", "free point at 4 outside 1..3"),
        # a strand count below 1 is an error of the strands line itself
        (0, "s1", "line 1", "need at least one strand"),
        (-3, "s1", "line 1", "need at least one strand"),
    ])
    def test_range_errors_name_the_seq_entry(self, work, capsys, n, seq, location, message):
        (work / "range.wire").write_text(f"strands {n}\nseq: {seq}\n")
        code, out, err = run(capsys, "validate", "--wire", work / "range.wire")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "range", "location": location, "message": message}

    @pytest.mark.parametrize("group", ["B=", "B=,"])
    def test_empty_components_group_is_two(self, work, capsys, group):
        (work / "empty.wire").write_text(f"strands 2\ncomponents A=1,2 {group}\nseq: 1\n")
        code, out, err = run(capsys, "incidence", "--wire", work / "empty.wire")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "format", "location": "line 2",
            "message": f"bad components group {group!r}",
        }

    @pytest.mark.parametrize("header, message, location", [
        ("strandsfoo 2", "unrecognized statement 'strandsfoo 2'", "line 1"),
        ("strands 2\ncomponentsX A=1,2", "unrecognized statement 'componentsX A=1,2'", "line 2"),
        ("strands 2 4", "bad strands line 'strands 2 4'", "line 1"),
        ("strands 2\nstrands 3", "duplicate strands", "line 2"),
    ])
    def test_inexact_header_is_two(self, work, capsys, header, message, location):
        (work / "head.wire").write_text(f"{header}\nseq: 1, T(1), 1\n")
        code, out, err = run(capsys, "validate", "--wire", work / "head.wire")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": location, "message": message}

    @pytest.mark.parametrize("header, message, location", [
        # an out-of-range group used to be replaced by a later one
        ("strands 1\ncomponents A=5 A=1", "duplicate component label A", "line 2"),
        ("strands 2\ncomponents A=1 A=2", "duplicate component label A", "line 2"),
        ("strands 3\ncomponents A=1,2 B=3\ncomponents A=3 B=1,2", "duplicate components", "line 3"),
        ("strands 2\ncomponents\ncomponents A=1,2", "duplicate components", "line 3"),
    ])
    def test_repeated_components_are_two(self, work, capsys, header, message, location):
        (work / "comp.wire").write_text(f"{header}\nseq: 1\n")
        code, out, err = run(capsys, "validate", "--wire", work / "comp.wire")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": location, "message": message}

    @pytest.mark.parametrize("groups", ["A=1", "A=1 B=3", "A=1,1 B=2"])
    def test_components_that_do_not_partition_are_located(self, work, capsys, groups):
        (work / "part.wire").write_text(f"strands 2\n# two strands\ncomponents {groups}\nseq: 1\n")
        code, out, err = run(capsys, "validate", "--wire", work / "part.wire")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "format", "location": "line 3",
                                   "message": "components do not partition strands 1..2"}

    @pytest.mark.parametrize("data, error", [
        ({"holes": 3, "items": [{"kind": "arc", "start": 3}]},
         {"code": "range", "location": "items[0]", "message": "arc base (3, 4) outside 1..3"}),
        ({"holes": 3, "items": [{"kind": "cycle", "start": 1},
                                {"kind": "arc", "start": 1, "conjugator": [2, 5]}]},
         {"code": "range", "location": "items[1]",
          "message": "braid letter 5 outside strand range 1..2"}),
        ({"holes": 3, "items": [{"kind": "cycle", "start": 1}, {"kind": "cycle"}, "x"]},
         {"code": "format", "location": "items[1]", "message": "bad factorization JSON: missing key 'start'"}),
        ({"holes": 3, "items": [{"kind": "cycle", "start": 1}, "x"]},
         {"code": "format", "location": "items[1]", "message": "bad factorization JSON: items[1] must be an object"}),
        # the shape of the whole document has no item to name
        ([{"holes": 3}], {"code": "format", "location": None,
                          "message": "bad factorization JSON: the top level must be an object"}),
        ({"holes": "x", "items": []}, {"code": "format", "location": None,
                                       "message": "bad factorization JSON: expected an integer, got 'x'"}),
        # a number that is not a JSON integer, or an items string, is a format error
        ({"holes": 2.9, "items": [{"kind": "cycle", "start": True, "span": 0.5, "conjugator": [1.7]}]},
         {"code": "format", "location": None, "message": "bad factorization JSON: expected an integer, got 2.9"}),
        ({"holes": "3", "items": []},
         {"code": "format", "location": None, "message": "bad factorization JSON: expected an integer, got '3'"}),
        ({"holes": 3, "items": "ab"},
         {"code": "format", "location": None, "message": "bad factorization JSON: items must be a list"}),
        ({"holes": 2, "items": [{"kind": "cycle", "start": True}]},
         {"code": "format", "location": "items[0]", "message": "bad factorization JSON: expected an integer, got True"}),
        ({"holes": 2, "items": [{"kind": "cycle", "start": 1, "span": 0.5}]},
         {"code": "format", "location": "items[0]", "message": "bad factorization JSON: expected an integer, got 0.5"}),
        ({"holes": 2, "items": [{"kind": "arc", "start": 1, "conjugator": [1.7]}]},
         {"code": "format", "location": "items[0]", "message": "bad factorization JSON: expected an integer, got 1.7"}),
        ({"holes": 2, "items": [{"kind": "cycle", "start": 1}, {"kind": "cycle", "start": 1, "twists": [0, 0, False]}]},
         {"code": "format", "location": "items[1]", "message": "bad factorization JSON: expected an integer, got False"}),
        # a twists vector of the wrong length, zero or not
        ({"holes": 2, "items": [{"kind": "cycle", "start": 1, "twists": [0, 0]}]},
         {"code": "range", "location": "items[0]",
          "message": "twists vector must have one entry per hole plus the outer entry"}),
        ({"holes": 2, "items": [{"kind": "cycle", "start": 1, "twists": [0, 1]}]},
         {"code": "range", "location": "items[0]",
          "message": "twists vector must have one entry per hole plus the outer entry"}),
        # only "arc" and "cycle" are item kinds
        ({"holes": 3, "items": [{"kind": "cycle", "start": 1}, {"kind": "weird", "start": 1, "span": 1}]},
         {"code": "format", "location": "items[1]", "message": "bad factorization JSON: unknown item kind 'weird'"}),
        # a well-formed item with nonzero twists has no diagram form
        ({"holes": 2, "items": [{"kind": "cycle", "start": 1}, {"kind": "arc", "start": 1, "twists": [1, 0, -1]}]},
         {"code": "range", "location": "items[1]",
          "message": "items carrying boundary-twist offsets have no diagram form"}),
        # an arc spans one gap: any other span is refused, not dropped
        ({"holes": 3, "items": [{"kind": "cycle", "start": 1}, {"kind": "arc", "start": 1, "span": 7}]},
         {"code": "range", "location": "items[1]", "message": "no item of kind 'arc' and span 7"}),
        # a document of the wrong shape names what is wrong: not Python's own message
        ("x", {"code": "format", "location": None, "message": "bad factorization JSON: the top level must be an object"}),
        ({"items": []}, {"code": "format", "location": None, "message": "bad factorization JSON: missing key 'holes'"}),
        ({"holes": 3, "items": [1]},
         {"code": "format", "location": "items[0]", "message": "bad factorization JSON: items[0] must be an object"}),
        ({"holes": 3, "items": [{"start": 1}]},
         {"code": "format", "location": "items[0]", "message": "bad factorization JSON: missing key 'kind'"}),
        ({"holes": 3, "items": [{"kind": "arc", "start": 1, "conjugator": 5}]},
         {"code": "format", "location": "items[0]",
          "message": "bad factorization JSON: conjugator must be a list of integers"}),
        ({"holes": 3, "items": [{"kind": "arc", "start": 1, "twists": {}}]},
         {"code": "format", "location": "items[0]", "message": "bad factorization JSON: twists must be a list of integers"}),
    ])
    def test_factorization_errors_name_the_item(self, work, capsys, data, error):
        (work / "f.json").write_text(json.dumps(data))
        code, out, err = run(capsys, "wire-from-vanishing", "--fact", work / "f.json")
        assert code == 2 and out == ""
        assert json.loads(err) == error

    def test_semantic_error_in_input_is_two(self, work, capsys):
        # inside-out through a hole on a two-strand component
        (work / "w.wire").write_text("strands 2\ncomponents X=1,2\nseq: 1, T(1), 1\n")
        code, _, err = run(capsys, "inside-out", "--wire", work / "w.wire", "--hole", 1)
        assert code == 2
        assert json.loads(err)["code"] == "multiplicity-not-one"

    # a hole count below 1 is blamed on ``holes``, not on the first item
    # that it makes out of range, nor left without a location
    @pytest.mark.parametrize("data", [
        {"holes": -3, "items": [{"kind": "cycle", "start": 1}]},
        {"holes": 0, "items": [{"kind": "arc", "start": 1}]},
        {"holes": 0, "items": []},
    ])
    def test_holes_below_one_is_located_at_holes(self, work, capsys, data):
        (work / "f.json").write_text(json.dumps(data))
        code, out, err = run(capsys, "wire-from-vanishing", "--fact", work / "f.json")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "range", "location": "holes", "message": "need at least one hole"}

    # a hole that the diagram does not have, and a graph that already uses
    # a name of the star that ``unexpected`` attaches
    @pytest.mark.parametrize("command, text, message", [
        ("inside-out --hole 0 --wire", serialize_wire(arrangement(8)), "hole 0 outside 1..8"),
        ("inside-out --hole 9 --wire", serialize_wire(arrangement(8)), "hole 9 outside 1..8"),
        ("unexpected -N 1 --wmax 5 --graph", "vertex vstar -3\ncurvetta c0 on vstar\ncurvetta c1 on vstar\n",
         "vertex name vstar already in use"),
        ("unexpected -N 1 --wmax 5 --graph", "vertex leg1.1 -3\ncurvetta c0 on leg1.1\ncurvetta c1 on leg1.1\n",
         "vertex name leg1.1 already in use"),
        ("unexpected -N 1 --wmax 5 --graph", "vertex v -3\ncurvetta line1 on v\ncurvetta c1 on v\n",
         "curvetta name line1 already in use"),
    ], ids=["hole 0", "hole 9", "vstar", "leg1.1", "line1"])
    def test_holes_and_names_out_of_range_are_two(self, work, capsys, command, text, message):
        (work / "input").write_text(text)
        code, out, err = run(capsys, *command.split(), work / "input", "-o", work / "K")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "range", "location": None, "message": message}
        assert not list(work.glob("K*"))


# ---------------------------------------------------------------------------
# exit codes on mutated input

# small numbers only: a huge root multiplicity makes scott lay out that
# many strands, and a huge strand count as many strands
_GERM_WORDS = ("0", "1", "2", "3", "-1", "root", "parent", "prox", "mult", "weight",
               "branch", "point", "q0", "q1", "c0", "c1", "c0=1", "c1=2", "c0=-1",
               "c2=0", "q0,q1", "=", ",", "x")
_WIRE_WORDS = ("0", "1", "2", "-1", "strands", "components", "seq:", "T(1)", "I(1..2)",
               "I(2..1)", "F(1)", "F(0)", "s1", "s2'", "s0", "c1=1", "c1=1,2", "c2=",
               ",", ",,", "1,", "x")
_PLUMB_WORDS = ("0", "1", "-1", "-2", "vertex", "edge", "curvetta", "on", "chains",
                "q0", "q1", "c0", "c1", "c0=1", "c1=0", "c0=-1", "x")
_NUMBER = re.compile(r"-?\d+(?!.*\d)")


def edit_lines(draw, lines, words):
    """Up to four edits of ``lines``: one dropped, repeated or moved, a word
    replaced or inserted, the last number in a word changed (to -1..3), or a
    character dropped."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        split = lines[i].split()
        kind = draw(st.integers(0, 6))
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == 2:
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif kind == 3 and split:
            split[draw(st.integers(0, len(split) - 1))] = draw(st.sampled_from(words))
            lines[i] = " ".join(split)
        elif kind == 4:
            split.insert(draw(st.integers(0, len(split))), draw(st.sampled_from(words)))
            lines[i] = " ".join(split)
        elif kind == 5 and any(_NUMBER.search(w) for w in split):
            j = draw(st.sampled_from([j for j, w in enumerate(split) if _NUMBER.search(w)]))
            split[j] = _NUMBER.sub(str(draw(st.integers(-1, 3))), split[j])
            lines[i] = " ".join(split)
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:j] + lines[i][j + 1 :]
    return "\n".join(lines) + "\n"


@st.composite
def germ_texts(draw):
    """serialize_germ of a random cluster (weights declared or not), edited."""
    c = rand_cluster(random.Random(draw(st.integers(0, 10**6))))
    if draw(st.booleans()):
        c = Cluster(c.branches, c.points, c.mults, check_cluster(c))
    return edit_lines(draw, serialize_germ(c).splitlines(), _GERM_WORDS)


@st.composite
def wire_texts(draw):
    """serialize_wire of a random diagram, edited."""
    w = rand_diagram(random.Random(draw(st.integers(0, 10**6))))
    return edit_lines(draw, serialize_wire(w).splitlines(), _WIRE_WORDS)


@st.composite
def plumb_texts(draw):
    """serialize_plumb of the graph of a random cluster, edited."""
    c = rand_cluster(random.Random(draw(st.integers(0, 10**6))))
    return edit_lines(draw, serialize_plumb(*graph_from_cluster(c)).splitlines(), _PLUMB_WORDS)


_JSON_VALUES = (0, 1, 2, -1, 1.5, True, None, "x", "arc", "cycle", [], [1], [1, -1], {})


@st.composite
def factorization_texts(draw):
    """factorization_json of a random diagram's vanishing data with up to
    three edits (a value replaced, a key or list entry dropped, a list entry
    repeated), and sometimes a character dropped from the JSON text."""
    w = rand_diagram(random.Random(draw(st.integers(0, 10**6))))
    root = [factorization_json(vanishing_data(w))]
    for _ in range(draw(st.integers(0, 3))):
        slots, stack = [], [root]
        while stack:
            node = stack.pop()
            keys = list(node) if isinstance(node, dict) else range(len(node))
            slots += [(node, k) for k in keys]
            stack += [node[k] for k in keys if isinstance(node[k], (dict, list))]
        node, key = draw(st.sampled_from(slots))
        kind = draw(st.integers(0, 2))
        if kind == 0 or node is root:
            node[key] = draw(st.sampled_from(_JSON_VALUES))
        elif kind == 1:
            del node[key]
        elif isinstance(node, list):
            node.insert(key, json.loads(json.dumps(node[key])))
    text = json.dumps(root[0])
    if draw(st.integers(0, 9)) == 0:
        j = draw(st.integers(0, len(text) - 1))
        text = text[:j] + text[j + 1 :]
    return text


def keeps_the_contract(argv, name, text):
    """Run ``main`` on ``text`` saved as ``name``: exit 0 or 1 with output
    and nothing on stderr, or exit 2 with error JSON that names an input
    problem, never a crash.  Returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a if a != "FILE" else str(path) for a in argv])
    if code in (0, 1):
        assert err.getvalue() == "" and out.getvalue()
    else:
        assert code == 2 and out.getvalue() == ""
        assert json.loads(err.getvalue())["code"] != "internal"
    return code, out.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(germ_texts(), st.sampled_from(("graph", "scott")))
def test_mutated_germ_keeps_the_exit_code_contract(text, command):
    # on exit 0 the output re-parses to the library's answer
    code, out = keeps_the_contract([command, "--germ", "FILE"], "c.germ", text)
    if code == 0:
        c = parse_germ(text)
        if command == "graph":
            assert parse_plumb(out)[:2] == graph_from_cluster(c)
        else:
            assert parse_wire(out) == scott(c)
    assert code != 1


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(wire_texts(), st.sampled_from(("validate", "incidence", "render")))
def test_mutated_wire_keeps_the_exit_code_contract(text, command):
    code, out = keeps_the_contract([command, "--wire", "FILE"], "w.wire", text)
    if command == "validate" and code != 2:
        assert json.loads(out)["ok"] == (code == 0)
    elif command == "render" and code != 2:
        assert code == 0 and out == render(parse_wire(text))
    elif code != 2:
        assert code == 0
        m = incidence_canonical(incidence(parse_wire(text)))
        assert json.loads(out) == {"formatVersion": 1, **incidence_json(m)}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(plumb_texts(), st.sampled_from(("", "c0=1", "c1=2,c0=0", "c0=-1", "x=1", "c0")))
def test_mutated_plumb_keeps_the_exit_code_contract(text, chains):
    argv = ["extend", "--graph", "FILE", "--chains", chains] if chains else ["germ", "--graph", "FILE"]
    code, out = keeps_the_contract(argv, "g.plumb", text)
    assert code != 1
    if code == 0:
        # the output re-parses to the library's answer
        g, aug, file_chains = parse_plumb(text)
        if file_chains:
            g, aug = extend_chains(g, aug, file_chains)
        if chains:
            lengths = {k: int(v) for k, v in (p.split("=") for p in chains.split(","))}
            assert parse_plumb(out)[:2] == extend_chains(g, aug, lengths)
        else:
            germ = germ_json(germ_from_augmentation(g, aug))
            assert json.loads(out) == json.loads(json.dumps({"formatVersion": 1, **germ}))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(factorization_texts())
def test_mutated_factorization_keeps_the_exit_code_contract(text):
    code, out = keeps_the_contract(["wire-from-vanishing", "--fact", "FILE"], "f.json", text)
    if code == 0:
        assert parse_wire(out) == wiring_from_vanishing(factorization_from_json(json.loads(text)))
    assert code != 1


def valid_texts(rng):
    """(parser, text) for a serialized random cluster (its weights given or
    not), the graph of that cluster with a ``chains`` line, and a random
    diagram."""
    c = rand_cluster(rng)
    if rng.random() < 0.5:
        c = Cluster(c.branches, c.points, c.mults, check_cluster(c))
    g, aug = graph_from_cluster(c)
    curvettas = aug.curvettas()
    chains = {name: rng.randint(0, 3) for name in rng.sample(curvettas, rng.randint(1, len(curvettas)))}
    plumb = serialize_plumb(g, aug) + "chains " + ",".join(f"{k}={n}" for k, n in sorted(chains.items())) + "\n"
    return [(parse_germ, serialize_germ(c)), (parse_plumb, plumb), (parse_wire, serialize_wire(rand_diagram(rng)))]


def test_a_copied_line_reads_the_same_or_is_named_at_the_copy():
    # a copy of any line of a valid file, put anywhere after it, is either
    # harmless or a format error located at the copy
    rng = random.Random(16)
    probes = 0
    for _ in range(200):
        for parse, text in valid_texts(rng):
            lines = text.splitlines()
            want = parse(text)
            for i, line in enumerate(lines):
                j = rng.randint(i + 1, len(lines))
                copied = "\n".join(lines[:j] + [line] + lines[j:]) + "\n"
                try:
                    got = parse(copied)
                except FormatError as exc:
                    assert exc.location == f"line {j + 1}", (copied, exc.message, exc.location)
                else:
                    assert got == want, copied
                probes += 1
    assert probes >= 4000


# the characters other than "\n" (and "\r", which reading a file turns into "\n") at which
# str.splitlines breaks a line
LINE_BREAKS_BUT_NEWLINE = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS_BUT_NEWLINE, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("parse, text", [(parse_plumb, E3_PLUMB), (parse_germ, TWO_CUSP_GERM),
                                         (parse_wire, FIG)], ids=["plumb", "germ", "wire"])
def test_a_comment_holds_any_line_break_but_newline(parse, text, brk):
    # the comment's tail after brk, a copy of the first statement, is no
    # statement, and the lines after the comment keep their numbers
    first, *rest = text.splitlines()
    commented = "\n".join([f"{first}  # as before:{brk}{first}", *rest]) + "\n"
    assert parse(commented) == parse(text)
    with pytest.raises(FormatError) as ei:
        parse(commented + "bogus\n")
    assert ei.value.location == f"line {len(rest) + 2}"


def test_a_plumb_file_comment_with_a_vertical_tab(work, capsys):
    (work / "vt.plumb").write_text(E3_PLUMB.replace("\n", "  # E\x0bis the base\n", 1))
    assert run(capsys, "germ", "--graph", work / "vt.plumb") == run(capsys, "germ", "--graph", work / "e3.plumb")


# ---------------------------------------------------------------------------
# the parser


def parse_outcome(parser, argv, capsys):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


def valid_argv(command):
    argv = [command]
    for flags, kwargs in _COMMANDS[command][2]:
        if kwargs.get("action") == "store_true":
            argv.append(flags[-1])
        elif kwargs.get("required"):
            argv += [flags[-1], "1"]
    return argv


def assert_main_parses_like_all(capsys, monkeypatch, command, cases):
    """main on each argv of ``cases`` parses, prints and exits as a fresh
    ``build_parser()`` does; the command's handler only records its args."""
    parsed = []
    _, help_text, arguments = _COMMANDS[command]
    monkeypatch.setitem(_COMMANDS, command, (lambda args, version: parsed.append(vars(args)) or 0,
                                             help_text, arguments))
    for argv in cases:
        code = main(argv)
        out = capsys.readouterr()
        result, out_all, err_all = parse_outcome(build_parser(), argv, capsys)
        if isinstance(result, dict):
            assert result.pop("command") == command
            assert (code, parsed.pop()) == (0, result), argv
        else:
            assert (code, parsed) == (result, []), argv
        assert (out.out, out.err) == (out_all, err_all), argv


@pytest.fixture
def fresh_parsers():
    # main keeps each command's parser for the process: start with none, so
    # a test sees its own builds, and keep none a test made (a spy's) for later tests
    sandwich.cli._parser.cache_clear()
    yield
    sandwich.cli._parser.cache_clear()


class TestParser:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_one_subparser_parses_like_all(self, capsys, monkeypatch, command):
        # main parses a named command with that command's parser alone
        full = valid_argv(command)
        abbreviated = [a[:-1] if a.startswith("--") else a for a in full]
        assert_main_parses_like_all(capsys, monkeypatch, command, [
            full, full + ["-o", "x"], full + ["--bogus"], full[:-1], full + [command],
            [command], [command, "--help"], [command, "-h", "x"], [command, "-o"],
            [command, "--", "x"], [command, "--wir", "1"], abbreviated])

    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: sandwich [-h]")
        for name, (_, help_text, _) in _COMMANDS.items():
            assert help_text in out and name in out

    def test_main_builds_only_the_named_command(self, work, capsys, monkeypatch, fresh_parsers):
        built = []

        class Spy(sandwich.cli._Parser):
            def __init__(self, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(**kwargs)

        monkeypatch.setattr(sandwich.cli, "_Parser", Spy)
        assert run(capsys, "germ", "--graph", work / "e3.plumb")[0] == 0
        assert built == ["sandwich germ"]
        # kept for the process: a second call builds nothing
        assert run(capsys, "germ", "--graph", work / "e3.plumb")[0] == 0
        assert built == ["sandwich germ"]
        built.clear()
        assert run(capsys, "auts", "--graph", work / "e3.plumb")[0] == 0
        assert built == ["sandwich auts"]
        for argv in (["frobnicate"], []):
            built.clear()
            assert run(capsys, *argv)[0] == 2
            # the full parser, never kept: its own, then one per command from add_parser
            assert built == ["sandwich"] + [f"sandwich {name}" for name in _COMMANDS]

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_a_kept_parser_answers_like_a_fresh_one(self, capsys, monkeypatch, fresh_parsers, command):
        # one parser serves every call of a command: no parse leaves state
        # on it that changes the next one's output or exit code
        usage_error = [command, "--bogus"]
        assert_main_parses_like_all(capsys, monkeypatch, command,
                                    [usage_error, [command, "--help"], valid_argv(command), usage_error])
        info = sandwich.cli._parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


# ---------------------------------------------------------------------------
# module-wiring cases


class TestValidate:
    def test_figure_needs_its_free_point(self, work, capsys):
        code, *_ = run(capsys, "validate", "--wire", work / "fig.wire",
                       "--germ", work / "twocusp.germ")
        assert code == 1
        code, *_ = run(capsys, "validate", "--wire", work / "figfull.wire",
                       "--germ", work / "twocusp.germ")
        assert code == 0

    def test_structural_only(self, work, capsys):
        code, out, _ = run(capsys, "validate", "--wire", work / "fig.wire")
        assert code == 0
        assert json.loads(out)["problems"] == []

    SPLIT = "strands 3\ncomponents A=1 B=2 C=3\nseq: 1, T(1), 1, F(3), 1\n"

    def test_a_split_tangency_is_judged_by_validate_alone(self, work, capsys):
        # the tangency joins components A and B: validate answers "no", and
        # every other reader computes on the labels as given
        (work / "split.wire").write_text(self.SPLIT)
        code, out, err = run(capsys, "validate", "--wire", work / "split.wire")
        assert (code, err) == (1, "")
        assert json.loads(out)["problems"] == [
            {"code": "tangency-component", "message": "tangency at 1 joins components A and B"}]
        for argv in (("incidence",), ("compare", "--wire", work / "split.wire"),
                     ("inside-out", "--hole", 3), ("vanishing",), ("render",)):
            code, out, err = run(capsys, argv[0], "--wire", work / "split.wire", *argv[1:])
            assert (code, err) == (0, ""), argv
            assert out

    # per-component entries of a germ check whose labels are the branch names
    AB = ("branch A B\npoint r parent root\npoint a1 parent r\npoint b1 parent r\n"
          "mult r A=1 B=1\nmult a1 A=1\nmult b1 B=1\n")

    @pytest.mark.parametrize("germ, wire, problems", [
        (AB, "strands 2\ncomponents A=1 B=2\nseq: 1, I(1..2), 1, I(1..2), 1, F(1), 1, F(2), 1\n", [
            ("weight", "component A: row sum 3 != weight 2"),
            ("weight", "component B: row sum 3 != weight 2"),
            ("cross", "components A,B: cross count 2 != pairwise 1"),
        ]),
        (AB, "strands 2\ncomponents A=1 B=2\nseq: 1, F(1), 1, F(1), 1, F(2), 1, F(2), 1\n", [
            ("cross", "components A,B: cross count 0 != pairwise 1"),
        ]),
        ("branch A\npoint r parent root\npoint q parent r\nmult r A=2\nmult q A=1\n",
         "strands 2\ncomponents A=1,2\nseq: T(1), 1, F(1), 1, F(2), 1, F(1)\n", [
             ("self", "component A: self count 0 != delta 1"),
         ]),
        # the strand totals agree (3 and 2 + 1), the components' counts do not
        (AB.replace("r A=1", "r A=2"),
         "strands 3\ncomponents A=1 B=2,3\nseq: 1, T(2), 1, I(1..3), 1, F(1), 1, F(2), 1\n", [
             ("strand-count", "component A: 1 strands != d 2"),
             ("weight", "component A: row sum 2 != weight 3"),
             ("self", "component A: self count 0 != delta 1"),
             ("strand-count", "component B: 2 strands != d 1"),
             ("weight", "component B: row sum 3 != weight 2"),
             ("self", "component B: self count 1 != delta 0"),
         ]),
        # a tangency across components is the one entry, germ or not
        (AB, "strands 2\ncomponents A=1 B=2\nseq: 1, T(1), 1\n", [
            ("tangency-component", "tangency at 1 joins components A and B"),
        ]),
        ("branch A\npoint r parent root\nmult r A=1\n",
         "strands 2\ncomponents A=1 B=2\nseq: 1, F(1), 1, F(2), 1\n", [
             ("strand-count", "2 strands != sum of branch multiplicities 1"),
             ("component-count", "2 components != 1 branches"),
         ]),
    ])
    def test_germ_entries_per_component(self, work, capsys, germ, wire, problems):
        (work / "g.germ").write_text(germ)
        (work / "w.wire").write_text(wire)
        code, out, err = run(capsys, "validate", "--wire", work / "w.wire", "--germ", work / "g.germ")
        assert (code, err) == (1, "")
        assert [(p["code"], p["message"]) for p in json.loads(out)["problems"]] == problems


class TestCompare:
    def test_reflexive(self, work, capsys):
        code, out, _ = run(capsys, "compare", "--wire", work / "fig.wire",
                           "--wire", work / "fig.wire")
        assert code == 0
        assert json.loads(out)["equivalent"]

    def test_figure_vs_cluster_layout(self, work, capsys):
        run(capsys, "scott", "--germ", work / "twocusp.germ", "-o", work / "tc.wire")
        code, *_ = run(capsys, "compare", "--wire", work / "figfull.wire",
                       "--wire", work / "tc.wire")
        assert code == 1
        code, *_ = run(capsys, "compare", "--wire", work / "figfull.wire",
                       "--wire", work / "tc.wire", "--unlabeled")
        assert code == 1

    def test_unlabeled_flag_wides_the_match(self, work, capsys):
        (work / "a.wire").write_text("strands 2\ncomponents A=1 B=2\nseq: 1, F(1), 1\n")
        (work / "b.wire").write_text("strands 2\ncomponents A=1 B=2\nseq: 1, F(2), 1\n")
        code, *_ = run(capsys, "compare", "--wire", work / "a.wire", "--wire", work / "b.wire")
        assert code == 1
        code, *_ = run(capsys, "compare", "--wire", work / "a.wire", "--wire", work / "b.wire",
                       "--unlabeled")
        assert code == 0

    def test_needs_two_inputs(self, work, capsys):
        wire = ("--wire", work / "fig.wire")
        for argv in (wire, wire * 3):
            code, out, err = run(capsys, "compare", *argv)
            assert code == 2 and out == ""
            assert json.loads(err) == {"code": "usage", "location": None,
                                       "message": "compare needs exactly two --wire inputs"}


class TestRoundtrips:
    def test_vanishing_wire_roundtrip(self, work, capsys):
        _, out, _ = run(capsys, "vanishing", "--wire", work / "figfull.wire")
        fact = json.loads(out)
        (work / "f.json").write_text(json.dumps(fact))
        _, wire_text, _ = run(capsys, "wire-from-vanishing", "--fact", work / "f.json")
        (work / "re.wire").write_text(wire_text)
        _, out2, _ = run(capsys, "vanishing", "--wire", work / "re.wire")
        assert json.loads(out2) == fact

    def test_emitted_wire_reparses(self, work, capsys):
        _, out, _ = run(capsys, "scott", "--germ", work / "twocusp.germ")
        assert serialize_wire(parse_wire(out)) == out

    def test_emitted_plumb_reparses(self, work, capsys):
        _, out, _ = run(capsys, "extend", "--graph", work / "e3.plumb", "--chains", "c=3,d=4")
        g, aug, chains = parse_plumb(out)
        assert dict(g.vertices)["d.4"] == -2
        assert aug.arrows == (("c", "c.3"), ("d", "d.4"))
        assert chains == {}

    def test_graph_of_cluster_reparses(self, work, capsys):
        code, out, _ = run(capsys, "graph", "--germ", work / "twocusp.germ")
        assert code == 0
        g, aug, _ = parse_plumb(out)
        assert dict(g.vertices)["s1"] == -3
        assert set(aug.curvettas()) == {"A", "B"}


class TestInsideOut:
    def test_transforms_enclosures(self, work, capsys):
        (work / "w.wire").write_text(
            "strands 3\ncomponents a=1 b=2 c=3\nseq: 1, I(1..3), 1, F(1), 1\n"
        )
        code, out, _ = run(capsys, "inside-out", "--wire", work / "w.wire", "--hole", 3)
        assert code == 0
        data = json.loads(out)
        assert data["components"] == ["a", "b", "c"]
        kinds = [(item["kind"], tuple(item["holes"])) for item in data["items"]]
        # the full cycle collapsed onto the chosen hole, the point cycle widened
        assert ("cycle", (3,)) in kinds
        assert ("cycle", (1, 2, 3)) in kinds


class TestUnexpected:
    def test_line_pair_example(self, work, capsys, monkeypatch):
        monkeypatch.chdir(work)
        code, out, _ = run(capsys, "unexpected", "--graph", work / "e3.plumb",
                           "-N", 1, "--wmax", 3, "-o", work / "K")
        assert code == 0
        data = json.loads(out)
        assert {b["weight"] for b in data["germ"]["branches"]} == {13}
        g, aug, _ = parse_plumb((work / "K.plumb").read_text())
        assert dict(g.vertices)["vstar"] == -9
        assert sum(1 for a, b in g.edges if "vstar" in (a, b)) == 8
        code, *_ = run(capsys, "validate", "--wire", work / "K.wire")
        assert code == 0

    @pytest.mark.parametrize("text", ["", "vertex a -1\n"])
    def test_graph_without_curvetta_is_two(self, work, capsys, text):
        (work / "bare.plumb").write_text(text)
        code, out, err = run(capsys, "unexpected", "--graph", work / "bare.plumb",
                             "-N", 1, "--wmax", 3, "-o", work / "K")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"code": "range", "location": None,
                                   "message": "the star construction needs a curvetta: the graph has none"}
        assert not (work / "K.plumb").exists()


class TestGermTrace:
    def test_trace_file(self, work, capsys):
        _, plain, _ = run(capsys, "germ", "--graph", work / "twocusp.plumb")
        code, out, err = run(capsys, "germ", "--graph", work / "twocusp.plumb",
                             "--trace", work / "trace.json")
        assert code == 0 and err == "" and out == plain
        trace = json.loads((work / "trace.json").read_text())
        assert trace["formatVersion"] == 1 and trace["curvettas"] == ["A", "B"]
        assert trace["lastVertex"] == json.loads(out)["rootVertex"] == "s1"
        # replay the euler numbers: every step here meets each proximate
        # curve once, and the smallest-named (-1) curve goes first
        g, aug, _ = parse_plumb(TWO_CUSP_PLUMB)
        euler = dict(g.vertices) | {"@" + c: -1 for c in aug.curvettas()}
        for step in trace["steps"]:
            assert step["curve"] == min(v for v, e in euler.items() if e == -1)
            del euler[step["curve"]]
            for v in step["proximateTo"]:
                euler[v] += 1
        assert not euler
        weights = [b["weight"] for b in json.loads(out)["branches"]]
        assert [sum(s["multiplicities"][i] for s in trace["steps"]) for i in range(2)] == weights
        assert weights == [8, 8]

    def test_no_trace_file_on_error(self, work, capsys):
        (work / "bad.plumb").write_text("vertex E -3\ncurvetta c on E\n")
        code, _, err = run(capsys, "germ", "--graph", work / "bad.plumb",
                           "--trace", work / "trace.json")
        assert code == 2 and json.loads(err)["code"] == "not-sandwiched"
        assert not (work / "trace.json").exists()


class TestAuts:
    def test_line_pair_graph(self, work, capsys):
        code, out, _ = run(capsys, "auts", "--graph", work / "e3.plumb")
        assert code == 0
        assert json.loads(out)["automorphisms"] == [{"E": "E"}]

    def test_chains_line_is_applied(self, work, capsys):
        # the chain on E's arrow breaks the E <-> F swap, as in the graph extend writes
        (work / "ef.plumb").write_text(
            "vertex E -3\nvertex F -3\nedge E F\ncurvetta c on E\ncurvetta d on F\nchains c=1\n"
        )
        assert run(capsys, "extend", "--graph", work / "ef.plumb", "--chains", "c=0",
                   "-o", work / "extended.plumb")[0] == 0
        maps = [json.loads(run(capsys, "auts", "--graph", work / name)[1])["automorphisms"]
                for name in ("ef.plumb", "extended.plumb")]
        assert maps[0] == maps[1] == [{"E": "E", "F": "F", "c.1": "c.1"}]

    @pytest.mark.parametrize("text, maps", [
        ("", [{}]),
        ("vertex a -2\n", [{"a": "a"}]),
    ])
    def test_empty_and_one_vertex_graphs(self, work, capsys, text, maps):
        (work / "small.plumb").write_text(text)
        code, out, err = run(capsys, "auts", "--graph", work / "small.plumb")
        assert (code, err) == (0, "")
        assert json.loads(out)["automorphisms"] == maps

    @pytest.mark.parametrize("text", [
        # n - 1 edges, but a triangle beside an isolated vertex
        "vertex a -2\nvertex b -2\nvertex c -2\nvertex d -2\nedge a b\nedge b c\nedge a c\n",
        # two vertices and no edge
        "vertex a -2\nvertex b -2\n",
    ])
    def test_graph_that_is_no_tree_is_two(self, work, capsys, text):
        (work / "forest.plumb").write_text(text)
        code, out, err = run(capsys, "auts", "--graph", work / "forest.plumb")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "range", "location": None,
                                   "message": "automorphisms requires a tree"}


# ---------------------------------------------------------------------------
# rendering


class TestRender:
    def test_empty_diagram_is_horizontal_lines(self):
        w = parse_wire("strands 3\ncomponents X=1,2,3\nseq: 1\n")
        svg = render(w, 1)
        assert svg.count("M ") == 3
        assert svg.count('class="tangency"') == 0

    def test_single_tangency(self):
        w = parse_wire("strands 2\ncomponents X=1,2\nseq: 1, T(1), 1\n")
        svg = render(w, 1)
        assert svg.count('class="tangency"') == 1

    def test_figure_marker_counts(self):
        svg = render(parse_wire(FIG), 1)
        assert svg.count('class="tangency"') == 2
        assert svg.count('class="intersection"') == 7
        assert svg.count('class="free"') == 0

    def test_free_points_are_open_circles(self):
        w = parse_wire(FIG_FULL)
        svg = render(w, 1)
        assert svg.count('class="free"') == 1

    def test_understrand_breaks(self):
        # one crossing: three strand segments replace two straight lines
        w = parse_wire("strands 2\ncomponents X=1 Y=2\nseq: s1\n")
        svg = render(w, 1)
        assert svg.count("M ") == 3

    def test_deterministic_output(self, work, capsys):
        _, a, _ = run(capsys, "render", "--wire", work / "figfull.wire")
        _, b, _ = run(capsys, "render", "--wire", work / "figfull.wire")
        assert a == b
        assert a.startswith("<svg ")

    def test_output_file(self, work, capsys):
        code, *_ = run(capsys, "render", "--wire", work / "fig.wire",
                       "-o", work / "fig.svg")
        assert code == 0
        assert (work / "fig.svg").read_text().endswith("</svg>\n")


class TestEntryPoint:
    def test_module_invocation(self, work):
        # the child imports the package the tests import
        path = [str(Path(sandwich.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-m", "sandwich", "germ", "--graph", str(work / "e3.plumb")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rootVertex"] == "E"
