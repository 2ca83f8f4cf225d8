"""Every top-level name in ``src/sandwich`` serves the chain: an AST walk
from ``cli.main`` and from every function ``perfbench/tracing.py`` wraps
reaches it.  A name is reached when a reached definition (or a module's
top-level code, which runs at import) mentions it, in its own module or
through ``from .module import name``.  Likewise every optional parameter of
a top-level function is set by some call in ``src/`` or in
``perfbench/workloads.py``, and its default is relied on by some call in
``src/``, ``tests/``, ``tools/`` or ``perfbench/workloads.py``.  The sources
are parsed, not imported; ``TRACED`` is read as text, so nothing is written
under ``perfbench/``."""

import ast
from pathlib import Path

from fixtures import PERFBENCH, _literal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sandwich"

# Not reached yet, on purpose: the filling-level names get their caller from
# a ``sandwich filling`` command (ROADMAP item 7), and ``__version__`` is
# package metadata.
EXEMPT = (
    "fillings.SpinalOpenBook", "fillings.spinal_open_book", "fillings.exotic_count",
    "fillings.FillingSummary", "fillings.filling_summary", "fillings.filling_json",
    "__init__.__version__",
)


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


def _relies(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` leaves the parameter to its default: no keyword
    names it, there is no ``**kwargs``, and its positional arguments stop
    short of it with no ``*args`` among them, since how many values a
    starred argument holds is not in the source."""
    if any(k.arg in (name, None) for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return False
    return position is None or len(call.args) <= position


def _optional_params() -> dict[str, tuple[str, str, int | None]]:
    """``module.function.parameter`` -> (function, parameter, position) for
    each parameter with a default of a top-level function in ``src/``."""
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                assert node.name not in functions, f"two top-level functions named {node.name}"
                functions[node.name] = path.stem, node
    return {f"{module}.{fn.name}.{name}": (fn.name, name, position)
            for module, fn in functions.values() for name, position in _optional(fn)}


def _calls(paths) -> dict[str, list[ast.Call]]:
    """The calls in ``paths`` by the name they call, bare or as an
    attribute: top-level function names are unique across modules, so that
    name matches a call to its function."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_optional_parameter_is_set_by_some_call():
    calls = _calls([*sorted(SRC.glob("*.py")), PERFBENCH / "workloads.py"])
    unset = sorted(key for key, (fn, name, position) in _optional_params().items()
                   if not any(_sets(call, name, position) for call in calls.get(fn, ())))
    assert not unset, f"set by no call: {', '.join(unset)}"


def test_every_default_is_relied_on_by_some_call():
    calls = _calls([*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
                    *sorted((ROOT / "tools").glob("*.py")), PERFBENCH / "workloads.py"])
    passed = sorted(key for key, (fn, name, position) in _optional_params().items()
                    if not any(_relies(call, name, position) for call in calls.get(fn, ())))
    assert not passed, f"every call passes: {', '.join(passed)}"
