"""``records.frozen`` against ``dataclasses.dataclass(frozen=True)``.

Every class the package builds with ``frozen`` (found by its ``_fields``)
gets a dataclass twin with the same annotations, defaults, methods and
``__post_init__``.  Instances harvested from a run of the whole chain must
behave the same under both: construction, ``repr``, ``==``, ``hash``,
``__post_init__`` errors, frozenness and ``cached_property``.
"""

import dataclasses
import functools
import importlib
import itertools
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sandwich
from sandwich.fillings import (
    factorization_product,
    filling_summary,
    spinal_open_book,
    unexpected_arrangement,
)
from sandwich.mcg import Item, mc_from_braid
from sandwich.plumbing import (
    ClusterPoint,
    DecoratedGerm,
    ValidationReport,
    blow_down,
    cluster_from_trace,
    germ_from_trace,
    parse_plumb,
)
from sandwich.records import frozen
from sandwich.wiring import (
    Event,
    enclosure_from_wiring,
    incidence,
    parse_wire,
    scott,
    validate_wiring,
    vanishing_data,
)

from fixtures import E3_PLUMB, FIG, FIG_A
from hurwitz import conjugate_item, hurwitz_move, replace

PER_CLASS = 6

MODULES = [importlib.import_module(f"sandwich.{m.name}")
           for m in pkgutil.iter_modules(sandwich.__path__) if not m.name.startswith("_")]
RECORDS = sorted(
    {obj for mod in MODULES for obj in vars(mod).values()
     if isinstance(obj, type) and "_fields" in obj.__dict__ and obj.__module__ == mod.__name__},
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
_MADE = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
         "_fields", "__dict__", "__weakref__"}


def dataclass_twin(cls):
    """``cls`` as ``dataclass(frozen=True)`` would have built it."""
    ns = {k: v for k, v in cls.__dict__.items() if k not in _MADE}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


TWINS = {cls: dataclass_twin(cls) for cls in RECORDS}

# each record class is one case; an Event or an Item is one case per
# kind, named after the constructor that builds that kind
KINDS = {Event: (("T", "Tangency"), ("I", "Intersection"), ("F", "FreePoint")),
         Item: (("cycle", "HoleCurve"), ("arc", "HoleArc"))}
CASES = [pytest.param(cls, None, id=cls.__qualname__) for cls in RECORDS if cls not in KINDS] + [
    pytest.param(cls, kind, id=name) for cls, kinds in KINDS.items() for kind, name in kinds
]


def _walk(x, seen, out):
    if id(x) in seen:
        return
    seen.add(id(x))
    if type(x) in TWINS:
        out.setdefault(type(x), []).append(x)
        children = [getattr(x, f) for f in x._fields]
    elif isinstance(x, dict):
        children = [*x.keys(), *x.values()]
    elif isinstance(x, (tuple, list, frozenset, set)):
        children = x
    else:
        return
    for child in children:
        _walk(child, seen, out)


def _group(x):
    return (type(x), x.kind) if type(x) in KINDS else type(x)


@functools.cache
def harvest():
    """Up to PER_CLASS distinct instances of each record class (of each
    kind, for an Event or an Item), from one run of the chain: graph,
    blow-down, germ, cluster, diagrams, vanishing factorization, mapping
    classes and filling data."""
    g, _ = parse_plumb(E3_PLUMB)
    trace = blow_down(g)
    germ = germ_from_trace(trace, g)
    c = cluster_from_trace(trace)
    fig = parse_wire(FIG)
    fact = vanishing_data(fig)
    moved = hurwitz_move(fact, 2)
    arr = unexpected_arrangement(g, 1, 2)
    roots = [
        g, ValidationReport(), trace, germ, c, c.indexed, scott(c), fig, fact, moved,
        parse_wire(FIG_A), incidence(fig), validate_wiring(fig, germ=germ),
        enclosure_from_wiring(fig), factorization_product(fact), mc_from_braid((1, -2, 3), 4),
        conjugate_item((1, 2), (1, 0, 0, 0, -1), fact.items[3]), arr,
        filling_summary(arr.wiring), spinal_open_book(arr.germ),
    ]
    found: dict[type, list] = {}
    _walk(roots, set(), found)
    distinct = {repr(o): o for objs in found.values() for o in objs}
    picked: dict[type, list] = {}
    taken = Counter()
    for x in sorted(distinct.values(), key=lambda o: len(repr(o))):
        taken[_group(x)] += 1
        if taken[_group(x)] <= PER_CLASS:
            picked.setdefault(type(x), []).append(x)
    return picked


def of_case(cls, kind):
    xs = [x for x in harvest()[cls] if kind is None or x.kind == kind]
    assert xs
    return xs


def twin_of(x):
    return TWINS[type(x)](*(getattr(x, f) for f in x._fields))


def outcome(make):
    try:
        obj = make()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return "ok", repr(obj)


def instances():
    return [x for objs in harvest().values() for x in objs]


def test_every_record_is_found_and_harvested():
    modules = {cls.__module__.rpartition(".")[2] for cls in RECORDS}
    assert {"fillings", "mcg", "plumbing", "wiring"} <= modules
    assert set(harvest()) == set(RECORDS)


@pytest.mark.parametrize("cls, kind", CASES)
def test_construction_and_repr_match_the_dataclass(cls, kind):
    twin = TWINS[cls]
    for x in of_case(cls, kind):
        values = [getattr(x, f) for f in cls._fields]
        kw = dict(zip(cls._fields, values))
        t = twin(*values)
        assert repr(x) == repr(t) == repr(cls(*values)) == repr(cls(**kw)) == repr(twin(**kw))
        assert x == cls(*values) == cls(**kw)
        assert not x != cls(**kw)
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(t))
        for make in (lambda k: k(), lambda k: k(*values, 0), lambda k: k(**kw, zz=0),
                     lambda k: k(**dict(list(kw.items())[1:]))):
            assert outcome(lambda: make(cls)) == outcome(lambda: make(twin))
        f, v = cls._fields[0], values[0]
        assert repr(replace(x, **{f: v})) == repr(dataclasses.replace(t, **{f: v}))


def _variants(v):
    """Nearby and wrong values for a field, to provoke ``__post_init__``."""
    out = [None, "x"]
    if isinstance(v, bool) or v is None:
        out.append(0)
    elif isinstance(v, int):
        out += [v + 1, v - 1, 0, -1]
    elif isinstance(v, (tuple, str)):
        out += [v[:0], v[:-1], v[1:], v + v[:1], v[::-1]]
    elif isinstance(v, dict):
        out.append({})
    return out


@pytest.mark.parametrize("cls, kind", CASES)
def test_post_init_outcomes_match_the_dataclass(cls, kind):
    twin = TWINS[cls]
    for x in of_case(cls, kind):
        values = [getattr(x, f) for f in cls._fields]
        for i, v in enumerate(values):
            for w in _variants(v):
                args = values[:i] + [w] + values[i + 1:]
                assert outcome(lambda: cls(*args)) == outcome(lambda: twin(*args))


def test_equality_matches_the_dataclass_across_classes():
    xs = instances()
    ts = [twin_of(x) for x in xs]
    for (a, ta), (b, tb) in itertools.product(zip(xs, ts), repeat=2):
        assert (a == b, a != b) == (ta == tb, ta != tb)
    # two classes with equal field tuples
    p, d = ClusterPoint("q", "p", ()), DecoratedGerm("q", "p", ())
    assert p != d and p == ClusterPoint("q", "p", ())
    assert p.__eq__(d) is NotImplemented


def test_assignment_and_deletion_raise():
    for x in instances():
        t = twin_of(x)
        for name in (*x._fields, "zz"):
            for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
                with pytest.raises(AttributeError) as mine:
                    act(x)
                with pytest.raises(AttributeError) as theirs:
                    act(t)
                assert str(mine.value) == str(theirs.value)


def test_cached_properties_still_cache():
    checked = 0
    for cls in RECORDS:
        props = [k for k, v in cls.__dict__.items() if isinstance(v, functools.cached_property)]
        for x, name in itertools.product(harvest()[cls], props):
            x.__dict__.pop(name, None)
            value = getattr(x, name)
            assert x.__dict__[name] is value and getattr(x, name) is value
            assert getattr(twin_of(x), name) == value
            checked += 1
    assert checked


def test_a_required_field_after_a_default_is_refused():
    class Bad:
        a: int = 0
        b: int

    with pytest.raises(SyntaxError):
        frozen(Bad)


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(sandwich.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sandwich.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
