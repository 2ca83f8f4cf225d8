"""Incidence matrices written row by row, as the tests write them."""

from sandwich.wiring import IncidenceMatrix


def from_rows(components, rows, kinds):
    """The matrix whose row for ``components[i]`` is ``rows[i]``, one entry
    per column; rows of unequal length are refused."""
    return IncidenceMatrix(components, tuple(zip(*rows, strict=True)) or ((),) * len(kinds), kinds)
