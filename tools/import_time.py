"""What importing the package costs: compile, fresh import, new process.

    python3 tools/import_time.py CHECKOUT

Copies CHECKOUT/src/sandwich (no ``__pycache__``) into a temporary
directory and measures that copy, so no bytecode cache is ever written
inside the checkout.  Prints, in milliseconds:

- ``compile``: each module's ``compile()`` of its source, median of
  REPEATS;
- ``fresh import``: ``import sandwich.cli`` with every ``sandwich`` module
  dropped from ``sys.modules`` first and no bytecode cache, median of
  REPEATS in this process (the standard library stays imported, so this is
  the package's own cost: compile plus module bodies);
- ``new process``: the wall time of ``python -I -c 'import sandwich.cli'``
  minus that of ``python -I -c pass``, medians of REPEATS alternating runs,
  once with no bytecode cache (``-B``, none written) and once after
  ``compileall`` has written one into the copy.
"""

import compileall
import importlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 20


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def fresh_import() -> None:
    for name in [m for m in sys.modules if m == "sandwich" or m.startswith("sandwich.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("sandwich.cli")


def process_ms(src: Path, flags: list[str]) -> float:
    """Median wall time of ``import sandwich.cli`` in a new interpreter,
    less a bare one, each run alternating with the other."""
    load = f"import sys; sys.path.insert(0, {str(src)!r}); import sandwich.cli"
    gaps = []
    for _ in range(REPEATS):
        walls = []
        for code in (load, "pass"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-I", *flags, "-c", code], check=True)
            walls.append(time.perf_counter() - t0)
        gaps.append(walls[0] - walls[1])
    return 1000 * statistics.median(gaps)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    package = Path(argv[0]).resolve() / "src" / "sandwich"
    if not (package / "__init__.py").is_file():
        print(f"no src/sandwich in {argv[0]}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(package, src / "sandwich", ignore=shutil.ignore_patterns("__pycache__"))
        for path in sorted((src / "sandwich").glob("*.py")):
            text = path.read_text()
            ms = median_ms(lambda: compile(text, str(path), "exec"))
            print(f"compile\t{ms:.2f}\t{path.name}")
        sys.path.insert(0, str(src))
        try:
            print(f"fresh import\t{median_ms(fresh_import):.2f}\tsandwich.cli")
        finally:
            sys.path.remove(str(src))
        print(f"new process\t{process_ms(src, ['-B']):.2f}\tno bytecode cache")
        compileall.compile_dir(src / "sandwich", quiet=1)
        print(f"new process\t{process_ms(src, []):.2f}\twith bytecode cache")
    return 0


if __name__ == "__main__":
    sys.exit(main())
