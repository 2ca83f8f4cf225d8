"""Source size of each module under ``src/``: code lines and tokens.

    python3 tools/src_size.py [CHECKOUT]

For every ``.py`` file under CHECKOUT/src (default: this checkout) prints
``lines<TAB>tokens<TAB>path``: the lines that hold code (neither blank nor
only a comment), and the tokens Python's tokenizer yields, less ``COMMENT``,
``NL`` and ``ENCODING``, which the compiler's parser never sees.  A final
line gives the totals.

CPython's parser keeps a module's tokens in an array that doubles when it
fills, so compiling a module a few tokens past a power of two costs a
step in peak memory (about 0.47 MB at 8,192 tokens on Python 3.11).  Where
no bytecode cache is written, every import pays it.  A module within
``MARGIN`` tokens of a power of two from 1,024 up is flagged with ``!`` and
the power it is near.
"""

import io
import sys
import tokenize
from pathlib import Path

MARGIN = 64
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def measure(path: Path) -> tuple[int, int]:
    """(code lines, parser tokens) of one source file."""
    text = path.read_text()
    lines = sum(1 for line in text.splitlines() if line.strip() and not line.strip().startswith("#"))
    tokens = sum(1 for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type not in SKIP)
    return lines, tokens


def near_power(tokens: int) -> int | None:
    """The power of two from 1,024 up within MARGIN tokens, if any."""
    power = 1024
    while power <= tokens + MARGIN:
        if abs(tokens - power) <= MARGIN:
            return power
        power *= 2
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    files = sorted((root / "src").rglob("*.py"))
    if not files:
        print(f"no python files under {root / 'src'}", file=sys.stderr)
        return 2
    total_lines = total_tokens = 0
    for path in files:
        lines, tokens = measure(path)
        total_lines += lines
        total_tokens += tokens
        power = near_power(tokens)
        flag = f"\t! within {MARGIN} of {power}" if power else ""
        print(f"{lines}\t{tokens}\t{path.relative_to(root)}{flag}")
    print(f"{total_lines}\t{total_tokens}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
