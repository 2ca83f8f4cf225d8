"""Machine speed, measured beside the ops.

On a shared virtual machine a CPU's speed drifts by a quarter or more
within minutes as other tenants come and go: the same op took 0.8 s in one
run and 1.5 s in the next, and a plain loop varied as much.  A fixed chunk
of interpreter work, timed before every op, tracks that drift.  Times are
reported at a nominal speed, the speed at which one chunk takes
NOMINAL_CHUNK_S:

    reported = raw * NOMINAL_CHUNK_S / (median chunk time around the op)

Raw wall times are kept in the run's record beside the scaled ones.  The
chunk is benchmark code, the same for every version of the package, so a
change in the package moves the scaled times and a change in machine speed
does not.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_CHUNK_S = 0.002
WINDOW = 5  # chunks on each side of an op that set its speed


def chunk() -> int:
    """Fixed interpreter work of the three kinds the package does most:
    integer arithmetic with small tuples, list push/pop and an integer-keyed
    dict; growing and freely reducing integer words; formatting and
    splitting strings.  Integer and per-chunk string keys keep the work
    independent of the process's hash seed."""
    table: dict[int, int] = {}
    stack: list[int] = []
    acc = 0
    for i in range(3000):
        word = (i % 7 + 1, -(i % 5 + 1), i % 3)
        key = i % 61
        table[key] = table.get(key, 0) + word[0]
        if stack and stack[-1] == -word[1]:
            stack.pop()
        else:
            stack.append(word[1])
        acc += key * word[2]
    w: tuple[int, ...] = (1,)
    for _ in range(9):
        out: list[int] = []
        for a in w:
            for x in ((a, a + 1, -a) if a > 0 else (1 - a,)):
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
        w = tuple(out)
    text = ",".join(f"v{i}={i * 3}" for i in range(400))
    fields = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        fields[name] = int(value)
    return acc + len(stack) + len(table) + len(w) + len(sorted(fields))


def time_chunk() -> float:
    t0 = perf_counter()
    chunk()
    return perf_counter() - t0


def scales(chunks: list[float]) -> list[float]:
    """Scale factor for each gap between consecutive chunks: the nominal
    chunk time over the median of the nearby chunks."""
    out = []
    for i in range(len(chunks) - 1):
        near = chunks[max(0, i - WINDOW): i + 2 + WINDOW]
        out.append(NOMINAL_CHUNK_S / statistics.median(near))
    return out
