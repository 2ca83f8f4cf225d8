"""Each tool under ``tools/`` takes at most one argument, a checkout.  Given
two, it prints its docstring and returns 2 before it times, runs or imports
anything; two checkouts are compared with alternating ``perfbench/run.py``
pairs.  The tools are imported with no bytecode written beside them."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(TOOLS))
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


# each tool, and the function that does its work
@pytest.mark.parametrize("name, work", [
    ("scaling", "ledger"),
    ("import_time", "median_ms"),
    ("op_hashes", "op_digest"),
    ("src_size", "measure"),
])
def test_two_checkouts_are_refused(name, work, monkeypatch, capsys):
    tool = _tool(name)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} went on with two checkouts")

    monkeypatch.setattr(tool, work, refuse)
    monkeypatch.setattr(subprocess, "run", refuse)
    modules, path = set(sys.modules), list(sys.path)
    checkout = str(TOOLS.parent)
    assert tool.main([checkout, checkout]) == 2
    assert capsys.readouterr().err.strip() == tool.__doc__.strip()
    assert set(sys.modules) == modules and sys.path == path
