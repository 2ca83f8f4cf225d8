r"""Statements and names of the line formats ``.plumb``, ``.germ`` and ``.wire``.

A statement is a line's text before any ``#`` (in ``.wire`` also ``;``), stripped, if not blank.
A line ends at ``"\n"`` only: other characters that ``str.splitlines`` breaks at, such as ``\f``,
``\v`` or ``\u2028``, stay inside the line (and so inside a comment), and ``.strip()`` drops the
``\r`` of a ``\r\n`` ending.
A key ``define``d twice is ``duplicate <key>`` at the second, raised as it is read; a name ``use``d
and never defined is ``<keyword> for unknown <kind> <name>`` at its first use, raised by ``check``
after the last line, keywords in ``Ledger`` order.  Each is a ``FormatError`` at ``where``."""

from .errors import FormatError


class Ledger:
    def __init__(self, *keywords, where="line {}"):
        # where: the location of an error, "{}" standing for its line number
        # used: for each keyword, {(kind, name): line of first use}
        self.where, self.line, self.defined, self.used = where, 0, set(), {k: {} for k in keywords}

    def error(self, message, line=None):
        return FormatError(message, location=self.where.format(line or self.line))

    def statements(self, text, sep=None):
        # each statement with ``line`` set to its line number, then ``check``
        for self.line, raw in enumerate(text.split("\n"), 1):
            line = raw.partition("#")[0]
            if sep:
                yield from filter(None, map(str.strip, line.split(sep)))
            elif line := line.strip():
                yield line
        self.check()

    def define(self, *key):
        if key in self.defined:
            raise self.error(f"duplicate {' '.join(key)}")
        self.defined.add(key)

    def use(self, keyword, kind, name):
        if (kind, name) not in self.defined:
            self.used[keyword].setdefault((kind, name), self.line)

    def pairs(self, parts, into, keyword, kind, *key):
        """Read ``name=int`` parts into ``into`` (else ``ValueError``), each name
        defined as ``(*key, name)`` and used as a ``kind``."""
        # define and use inline: a call per name made parse_germ about 8% slower
        for part in parts:
            name, eq, value = part.partition("=")
            if not eq or not (name := name.strip()):
                raise ValueError(part)
            if (k := (*key, name)) in self.defined:
                raise self.error(f"duplicate {' '.join(k)}")
            self.defined.add(k)
            into[name] = int(value)
            self.used[keyword].setdefault((kind, name), self.line)

    def check(self):
        for keyword, uses in self.used.items():
            for key, line in uses.items():
                if key not in self.defined:
                    raise self.error(f"{keyword} for unknown {' '.join(key)}", line)
