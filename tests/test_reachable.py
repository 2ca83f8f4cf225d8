"""Every top-level name in ``src/sandwich`` serves the chain: an AST walk
from ``cli.main`` and from every function ``perfbench/tracing.py`` wraps
reaches it.  A name is reached when a reached definition (or a module's
top-level code, which runs at import) mentions it, in its own module or
through ``from .module import name``.  Likewise every optional parameter of
a top-level function is set by some call in ``src/`` or in
``perfbench/workloads.py``.  The sources are parsed, not imported;
``TRACED`` is read as text, so nothing is written under ``perfbench/``."""

import ast
from pathlib import Path

from test_bench_surface import PERFBENCH, _literal

SRC = Path(__file__).resolve().parent.parent / "src" / "sandwich"

# Not reached yet, on purpose: the filling-level names get their caller from
# a ``sandwich filling`` command (ROADMAP item 7), and ``__version__`` is
# package metadata.
EXEMPT = (
    "fillings.SpinalOpenBook", "fillings.spinal_open_book", "fillings.exotic_count",
    "fillings.FillingSummary", "fillings.filling_summary", "fillings.filling_json",
    "__init__.__version__",
)

# Optional parameters no call sets yet: ``filling_summary``'s cluster gets
# its caller from ``sandwich filling --germ`` (ROADMAP item 7).
EXEMPT_PARAMS = ("fillings.filling_summary.c",)


def _modules():
    """For each module: its top-level definitions (name -> node), the names
    it imports from sibling modules (alias -> (module, name)), and its other
    top-level statements."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        defs, imports, code = {}, {}, []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imports.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                code.append(node)
        out[path.stem] = defs, imports, code
    return out


def _reached(modules, roots) -> set[tuple[str, str]]:
    reached: set[tuple[str, str]] = set()
    todo = [(m, None, node) for m, (_, _, code) in modules.items() for node in code]
    todo += [(m, name, modules[m][0][name]) for m, name in roots]
    while todo:
        module, name, node = todo.pop()
        if name is not None:
            if (module, name) in reached:
                continue
            reached.add((module, name))
        defs, imports, _ = modules[module]
        for ident in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
            target = (module, ident) if ident in defs else imports.get(ident)
            if target:
                todo.append((*target, modules[target[0]][0][target[1]]))
    return reached


def test_every_top_level_name_is_reached_from_the_cli_or_the_benchmark():
    modules = _modules()
    traced = _literal(PERFBENCH / "tracing.py", "TRACED")
    roots = [("cli", "main")] + [(layer, name) for layer, names in traced.items() for name in names]
    reached = {f"{m}.{name}" for m, name in _reached(modules, roots)}
    names = {f"{m}.{name}" for m, (defs, _, _) in modules.items() for name in defs}
    unreached = sorted(names - reached - set(EXEMPT))
    assert not unreached, f"reached by nothing: {', '.join(unreached)}"
    stale = sorted(set(EXEMPT) - (names - reached))
    assert not stale, f"exempt, but reached or gone: {', '.join(stale)}"


def _optional(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; keyword-only
    ones have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter: by its keyword, or by enough
    positional arguments before any ``*args``.  A starred argument sets no
    optional parameter, since how many values it holds is not in the
    source; nor does ``**kwargs``."""
    if any(k.arg == name for k in call.keywords):
        return True
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return position is not None and min(starred, default=len(call.args)) > position


def test_every_optional_parameter_is_set_by_some_call():
    # top-level function names are unique across modules, so a call is
    # matched to its function by the name it calls, bare or as an attribute
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                assert node.name not in functions, f"two top-level functions named {node.name}"
                functions[node.name] = path.stem, node
    calls = {}
    for path in [*sorted(SRC.glob("*.py")), PERFBENCH / "workloads.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    params = {f"{module}.{fn.name}.{name}": (fn.name, name, position)
              for module, fn in functions.values() for name, position in _optional(fn)}
    unset = sorted(key for key, (fn, name, position) in params.items()
                   if not any(_sets(call, name, position) for call in calls.get(fn, ())))
    missing = sorted(set(unset) - set(EXEMPT_PARAMS))
    assert not missing, f"set by no call: {', '.join(missing)}"
    stale = sorted(set(EXEMPT_PARAMS) - set(unset))
    assert not stale, f"exempt, but set by a call or gone: {', '.join(stale)}"
