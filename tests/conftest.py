"""Helpers shared by the test modules."""
from __future__ import annotations

import weakref
from fractions import Fraction

from copoly2d import basisops, orthosys
from copoly2d.matpoly import const_matrix


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


def l_mat(n, which):
    """The shift table L(n, which) as a constant (n+1) x (n+2) matrix.

    Reads basisops.l_rows at call time, so a test that patches it
    reaches every oracle built on this.
    """
    return const_matrix(basisops.l_rows(n, which), n + 2)


def n_mat(n, which):
    """The derivative band N(n, which) as a constant n x (n+1) matrix (0 x 1 at n = 0).

    Reads basisops.n_rows at call time, as l_mat reads l_rows.
    """
    return const_matrix(basisops.n_rows(n, which), n + 1)


def count_table_builds(monkeypatch):
    """The stride of every moment table built from now on, in build order.

    Patches orthosys._TABLES with an empty stand-in that records each
    table stored in it, so the families start with no table kept.
    """
    builds = []

    class Counting(weakref.WeakKeyDictionary):
        def __setitem__(self, key, value):
            builds.append(value[2])
            super().__setitem__(key, value)

    monkeypatch.setattr(orthosys, "_TABLES", Counting())
    return builds


# wrong shift and derivative tables, patched in for basisops.l_rows or
# n_rows; l_mat and n_mat are built from the tables, so a patch reaches
# the library and every oracle
_REAL_L, _REAL_N = basisops.l_rows, basisops.n_rows


def _l_swapped_at_1(n, which):
    return _REAL_L(n, 3 - which if n == 1 else which)


def _l_swapped_at_2(n, which):
    return _REAL_L(n, 3 - which if n == 2 else which)


def _l_half_at_3(n, which):
    rows = _REAL_L(n, which)
    if n == 3 and which == 2:
        rows[0][1] = Fraction(1, 2)
    return rows


def _n_swapped_at_2(n, which):
    return _REAL_N(n, 3 - which if n == 2 else which)


def _n_half_at_3(n, which):
    rows = _REAL_N(n, which)
    if n == 3 and which == 1:
        rows[1][1] = Fraction(1, 2)
    return rows
