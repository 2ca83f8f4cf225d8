"""The names the benchmark reaches in the package are still there: every
function ``perfbench/tracing.py`` wraps, and every ``api.<layer>.<name>`` that
``perfbench/workloads.py`` calls.  Both files are parsed as text, not
imported, so nothing is written under ``perfbench/``.  And the scaling
ledger, ``tools/scaling.py``, has a row for every wrapped function, and
every row runs on the first rung of its ladder; that check imports the
ledger and ``perfbench/workloads.py`` with no bytecode written beside them."""

import importlib
import re
import sys
from types import SimpleNamespace

from fixtures import PERFBENCH, _literal


def _unbound(pairs) -> list[str]:
    return [f"sandwich.{layer}.{name}" for layer, name in pairs
            if not callable(getattr(importlib.import_module(f"sandwich.{layer}"), name, None))]


def test_every_traced_name_is_bound_in_its_layer():
    traced = _literal(PERFBENCH / "tracing.py", "TRACED")
    pairs = [(layer, name) for layer, names in traced.items() for name in names]
    assert len(pairs) > 40
    assert _unbound(pairs) == []


def test_every_api_name_of_the_workloads_resolves():
    layers = _literal(PERFBENCH / "workloads.py", "LAYERS")
    text = (PERFBENCH / "workloads.py").read_text()
    pairs = sorted(set(re.findall(rf"\bapi\.({'|'.join(layers)})\.(\w+)", text)))
    assert ("mcg", "braid_equal") in pairs
    assert _unbound(pairs) == []


def _ledger():
    """The modules ``tools/scaling.py`` and ``perfbench/workloads.py``."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(PERFBENCH.parent / "tools"), str(PERFBENCH)]
    try:
        return importlib.import_module("scaling"), importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def test_every_traced_name_has_a_ledger_row():
    scaling, _ = _ledger()
    traced = _literal(PERFBENCH / "tracing.py", "TRACED")
    names = {f"{layer}.{name}" for layer, names in traced.items() for name in names}
    names |= {"cli.render", "plumbing.automorphisms"}
    assert names - {row.name.split()[0] for row in scaling.rows()} == set()


def test_every_ledger_row_runs_on_its_first_rung(tmp_path):
    scaling, workloads = _ledger()
    api = SimpleNamespace(**{layer: importlib.import_module(f"sandwich.{layer}") for layer in workloads.LAYERS})
    first = {name: build(api, workloads, tmp_path, values[0])
             for name, (build, values, *_) in scaling.LADDERS.items()}
    for row in scaling.rows():
        scaling.call(api, row, first[row.ladder])
