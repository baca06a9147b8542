"""Helpers shared by the test modules."""
from __future__ import annotations


def _consts(m):
    """The entries of a constant polynomial matrix as Fraction rows."""
    rows = []
    for i in range(m.rows):
        row = []
        for p in m.row_list(i):
            assert p.total_degree <= 0, f"not a constant: {p}"
            row.append(p.coeff(0, 0))
        rows.append(row)
    return rows
