"""Every output of the benchmark ops, byte for byte: ``tools/op_hashes.py``
run on this tree prints the lines of ``tests/golden/op_hashes.txt``.

The hashes cover reprs and error messages, which can change between Python
minor releases, so the golden file's first line names the minor release it
was written on (``python 3.11``), and on any other the test fails saying
so; any patch release of it hashes and names the ops that moved.  A change
that moves an output on purpose rewrites the file in the same commit, and
the diff names the ops that moved:

    (python3 -c 'import sys; print("python %d.%d" % sys.version_info[:2])'
     python3 -B tools/op_hashes.py .) > tests/golden/op_hashes.txt
"""

import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "op_hashes.txt"


def moved_ops(want: list[str], got: list[str]) -> list[str]:
    """One line per op whose line differs: the op that moved, or the two
    ops that stand on one line when the lists of ops differ."""
    out = []
    for i, (w, g) in enumerate(zip_longest(want, got, fillvalue="(no line)\t")):
        if w != g:
            w_op, g_op = (line.rpartition("\t")[0].replace("\t", " ") for line in (w, g))
            out.append(f"line {i + 2}: {w_op} moved" if w_op == g_op
                       else f"line {i + 2}: expected {w_op!r}, got {g_op!r}")
    return out


def test_moved_ops_are_named():
    want = ["a\tx\t1", "a\ty\t2", "b\tz\t3"]
    assert moved_ops(want, want) == []
    assert moved_ops(want, ["a\tx\t1", "a\ty\t9", "b\tz\t3"]) == ["line 3: a y moved"]
    assert moved_ops(want, want[:2]) == ["line 4: expected 'b z', got '(no line)'"]


def test_every_op_output_is_unchanged():
    version, *want = GOLDEN.read_text().splitlines()
    here = "python %d.%d" % sys.version_info[:2]
    assert version == here, (
        f"{GOLDEN.relative_to(ROOT)} was written on {version} and this is {here}; reprs and "
        "messages may differ between versions, so rewrite the file on this version from a "
        "checkout known to be right and compare it with the committed one")
    done = subprocess.run([sys.executable, "-B", str(ROOT / "tools" / "op_hashes.py"), str(ROOT)],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    moved = moved_ops(want, done.stdout.splitlines())
    assert not moved, f"{len(moved)} op output(s) moved:\n" + "\n".join(moved)
