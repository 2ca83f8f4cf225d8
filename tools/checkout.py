"""How a tool loads the one checkout it is given; not a tool itself."""

import sys
from pathlib import Path


def load_checkout(argv, doc: str):
    """The ``perfbench/workloads.py`` module of the checkout that ``argv``
    names (``sys.argv[1:]`` if None) and a ``workloads.Api`` of its
    package, imported with its ``src/`` and ``perfbench/`` first on
    ``sys.path`` and no bytecode written, so nothing is written inside it.
    None, after a message on stderr, if ``argv`` is not one path (the
    message is ``doc``), if the path has no ``src/sandwich``, or if
    ``sandwich`` was imported from somewhere else."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(doc, file=sys.stderr)
        return None
    checkout = Path(argv[0]).resolve()
    if not (checkout / "src" / "sandwich" / "__init__.py").is_file():
        print(f"no src/sandwich in {checkout}", file=sys.stderr)
        return None
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    api = workloads.Api()
    if checkout not in Path(api.cli.__file__).resolve().parents:
        print(f"sandwich imported from {api.cli.__file__}, not {checkout}", file=sys.stderr)
        return None
    return workloads, api
