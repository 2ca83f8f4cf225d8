"""Every module under ``src/sandwich`` stays below 8,192 parser tokens, as
``tools/src_size.py`` counts them.  Past that, compiling the module doubles
the parser's token array, and with no bytecode cache every fresh import pays
about 0.47 MB more peak memory.  A module that needs more is split; the
bound does not move."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 8192


def _src_size():
    spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_module_is_below_the_token_step():
    measure = _src_size().measure
    paths = sorted((ROOT / "src" / "sandwich").glob("*.py"))
    assert len(paths) > 5
    sizes = {path.name: measure(path)[1] for path in paths}
    assert {name: n for name, n in sizes.items() if n >= LIMIT} == {}
