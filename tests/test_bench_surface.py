"""The names the benchmark reaches in the package are still there: every
function ``perfbench/tracing.py`` wraps, and every ``api.<layer>.<name>`` that
``perfbench/workloads.py`` calls.  Both files are parsed as text, not
imported, so nothing is written under ``perfbench/``."""

import importlib
import re

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
