"""Spans around the public functions of the sandwich modules, recorded from
outside the package.

``Tracer.install`` swaps a wrapper in for each function listed in TRACED,
in every ``sandwich.*`` module that binds it, so calls from other modules
(``from .plumbing import check_cluster``) and calls inside the defining
module are both caught.  Each call appends one span (name, parent span,
start, end) to in-memory arrays; counters read sizes off the arguments and
results.  Nothing is written until the run ends.

A layer is a module.  A span's self time is its duration minus the time
covered by its child spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

TRACED = {
    "plumbing": (
        "parse_plumb", "parse_germ", "serialize_plumb", "serialize_germ", "germ_json",
        "blow_down", "germ_from_augmentation", "check_cluster", "branch_chain",
        "graph_from_cluster", "germ_from_cluster", "cluster_from_trace", "subcluster",
        "extend_chains", "build_unexpected", "automorphisms",
    ),
    "mcg": (
        "artin_act", "braid_equal", "braid_permutation", "canonical_curve", "mc_compose",
        "mc_from_braid", "mc_of_item",
    ),
    "wiring": (
        "parse_wire", "serialize_wire", "validate_wiring", "event_strands", "strand_components",
        "incidence", "incidence_json", "scott", "combine", "vanishing_data",
        "wiring_from_vanishing", "boundary_braid", "factorization_json",
        "factorization_from_json", "enclosure_from_wiring", "inside_out",
    ),
    "fillings": (
        "compatible", "factorization_product", "incidence_canonical", "incidence_equiv",
        "unexpected_arrangement", "combine_germs",
    ),
    "cli": ("main", "render"),
}


def _check_cluster(counts, args, result):
    counts["plumbing.check_cluster_calls"] += 1
    counts["plumbing.cluster_points"] += len(args[0].points)


def _blow_down(counts, args, result):
    counts["plumbing.blow_down_steps"] += len(result.steps)


def _artin_act(counts, args, result):
    counts["mcg.artin_act_calls"] += 1
    counts["mcg.artin_letters_out"] += len(result)
    counts["mcg.max_word_len"] = max(counts["mcg.max_word_len"], len(result))


def _calls(metric):
    def hook(counts, args, result):
        counts[metric] += 1
    return hook


HOOKS = {
    "plumbing.check_cluster": _check_cluster,
    "plumbing.blow_down": _blow_down,
    "mcg.artin_act": _artin_act,
    "mcg.braid_permutation": _calls("mcg.braid_permutation_calls"),
    "wiring.event_strands": _calls("wiring.event_strands_calls"),
    "fillings.incidence_canonical": _calls("fillings.incidence_canonical_calls"),
}

# per-layer metrics, in BENCHMARK.json order: (name, unit, how)
#   ("self", layer)    self time of the layer's spans
#   ("total", fns)     time of the outermost calls of these functions
#   ("fn_self", fn)    self time of one function
#   ("count", key)     counter from HOOKS or from the harness
PER_LAYER = [
    ("plumbing.self_ms", "ms", ("self", "plumbing")),
    ("mcg.self_ms", "ms", ("self", "mcg")),
    ("wiring.self_ms", "ms", ("self", "wiring")),
    ("fillings.self_ms", "ms", ("self", "fillings")),
    ("cli.self_ms", "ms", ("self", "cli")),
    ("plumbing.check_cluster_ms", "ms", ("total", ("plumbing.check_cluster",))),
    ("plumbing.check_cluster_calls", "count", ("count", "plumbing.check_cluster_calls")),
    ("plumbing.cluster_points", "count", ("count", "plumbing.cluster_points")),
    ("plumbing.germ_from_cluster_ms", "ms", ("total", ("plumbing.germ_from_cluster",))),
    ("plumbing.branch_chain_ms", "ms", ("total", ("plumbing.branch_chain",))),
    ("plumbing.graph_from_cluster_ms", "ms", ("total", ("plumbing.graph_from_cluster",))),
    ("wiring.scott_ms", "ms", ("total", ("wiring.scott",))),
    ("fillings.unexpected_arrangement_ms", "ms", ("total", ("fillings.unexpected_arrangement",))),
    ("plumbing.blow_down_ms", "ms", ("total", ("plumbing.blow_down",))),
    ("plumbing.blow_down_steps", "count", ("count", "plumbing.blow_down_steps")),
    ("plumbing.germ_from_augmentation_ms", "ms", ("total", ("plumbing.germ_from_augmentation",))),
    ("plumbing.parse_ms", "ms", ("total", ("plumbing.parse_plumb", "plumbing.parse_germ"))),
    ("mcg.artin_act_ms", "ms", ("total", ("mcg.artin_act",))),
    ("mcg.artin_act_calls", "count", ("count", "mcg.artin_act_calls")),
    ("mcg.artin_letters_out", "count", ("count", "mcg.artin_letters_out")),
    ("mcg.max_word_len", "count", ("count", "mcg.max_word_len")),
    ("mcg.braid_equal_ms", "ms", ("total", ("mcg.braid_equal",))),
    ("mcg.canonical_curve_ms", "ms", ("total", ("mcg.canonical_curve",))),
    ("mcg.mc_compose_ms", "ms", ("total", ("mcg.mc_compose",))),
    ("fillings.compatible_ms", "ms", ("total", ("fillings.compatible",))),
    ("fillings.factorization_product_ms", "ms", ("total", ("fillings.factorization_product",))),
    ("wiring.vanishing_data_ms", "ms", ("total", ("wiring.vanishing_data",))),
    ("wiring.parse_wire_ms", "ms", ("total", ("wiring.parse_wire",))),
    ("wiring.validate_wiring_ms", "ms", ("total", ("wiring.validate_wiring",))),
    ("wiring.event_strands_ms", "ms", ("total", ("wiring.event_strands",))),
    ("wiring.event_strands_calls", "count", ("count", "wiring.event_strands_calls")),
    ("wiring.incidence_ms", "ms", ("total", ("wiring.incidence",))),
    ("mcg.braid_permutation_calls", "count", ("count", "mcg.braid_permutation_calls")),
    ("fillings.incidence_equiv_ms", "ms", ("total", ("fillings.incidence_equiv",))),
    ("fillings.incidence_canonical_calls", "count", ("count", "fillings.incidence_canonical_calls")),
    ("wiring.combine_ms", "ms", ("total", ("wiring.combine",))),
    ("wiring.serialize_wire_ms", "ms", ("total", ("wiring.serialize_wire",))),
    ("cli.main_ms", "ms", ("fn_self", "cli.main")),
    ("cli.render_ms", "ms", ("total", ("cli.render",))),
    ("cli.out_bytes", "count", ("count", "cli.out_bytes")),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name id -> "layer.function"
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.passes: list[tuple[int, int, Counter]] = []  # (first span, end span, counts)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every TRACED function in every module that binds it."""
        for layer, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(modules[layer], fn_name)
                qual = f"{layer}.{fn_name}"
                if qual not in self.names:
                    self.names.append(qual)
                wrapper = self._wrap(self.names.index(qual), original, HOOKS.get(qual))
                for module in modules.values():
                    if getattr(module, fn_name, None) is original:
                        self._patched.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def _wrap(self, nid: int, fn, hook):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    # -- passes -------------------------------------------------------------

    def begin_pass(self) -> None:
        self.counts.clear()
        self._pass_start = len(self.name)

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.name), Counter(self.counts)))

    def pass_metrics(self, lo: int, hi: int, counts: Counter) -> dict[str, float]:
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p - lo] += self.end[i] - self.start[i]
        layer_self: Counter = Counter()
        fn_self: Counter = Counter()
        fn_total: Counter = Counter()
        for i in range(lo, hi):
            qual = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            own = duration - child[i - lo]
            layer_self[qual.split(".", 1)[0]] += own
            fn_self[qual] += own
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:  # outermost call of this function
                fn_total[qual] += duration
        out = {}
        for metric, _unit, (how, key) in PER_LAYER:
            if how == "self":
                out[metric] = layer_self[key] * 1000
            elif how == "total":
                out[metric] = sum(fn_total[k] for k in key) * 1000
            elif how == "fn_self":
                out[metric] = fn_self[key] * 1000
            else:
                out[metric] = counts[key]
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as gzipped TSV: index, parent, name, start, end (s)."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
