from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (
    _l_half_at_3,
    _l_swapped_at_1,
    _l_swapped_at_2,
    _n_half_at_3,
    _n_swapped_at_2,
    l_mat,
    n_mat,
)

from copoly2d import basisops
from copoly2d.basisops import (
    IDENTITY_KEYS,
    basis_identity_check,
    identity_suite,
    n_rows,
    x_vec,
)
from copoly2d.matpoly import PolyMatrix, const_matrix, int_matmul, kron, vstack
from copoly2d.polycore import BivariatePoly as P, parse_poly


def random_rational_matrix(rows, cols, rng):
    """Seeded draw with entries p/q, |p| <= 9, 1 <= q <= 4."""
    draw = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)]
    return const_matrix(draw, cols)


def test_x_vec_values():
    assert x_vec(0) == PolyMatrix.column([1])
    assert x_vec(1) == PolyMatrix.column([parse_poly("x"), parse_poly("y")])
    v3 = x_vec(3)
    assert v3.shape == (4, 1)
    assert v3[0, 0] == parse_poly("x^3")
    assert v3[1, 0] == parse_poly("x^2*y")
    assert v3[3, 0] == parse_poly("y^3")


def test_l_mat_values_and_action():
    assert l_mat(0, 1) == const_matrix([[1, 0]])
    assert l_mat(0, 2) == const_matrix([[0, 1]])
    assert l_mat(1, 2) == const_matrix([[0, 1, 0], [0, 0, 1]])
    for n in range(5):
        assert x_vec(n).scale(P.x()) == l_mat(n, 1) @ x_vec(n + 1)
        assert x_vec(n).scale(P.y()) == l_mat(n, 2) @ x_vec(n + 1)


def test_n_mat_values_and_action():
    assert n_mat(2, 1) == const_matrix([[2, 0, 0], [0, 1, 0]])
    assert n_mat(2, 2) == const_matrix([[0, 1, 0], [0, 0, 2]])
    assert n_mat(0, 1).shape == (0, 1)
    for n in range(1, 6):
        assert x_vec(n).dx() == n_mat(n, 1).transpose() @ x_vec(n - 1)
        assert x_vec(n).dy() == n_mat(n, 2).transpose() @ x_vec(n - 1)


def test_derivative_band_commutation():
    # dropping two degrees in either order lands on the same matrix
    for n in range(2, 7):
        assert n_mat(n - 1, 1) @ n_mat(n, 2) == n_mat(n - 1, 2) @ n_mat(n, 1)
    # the same on the int rows, dx dy = dy dx on X_(k+1): the reason
    # orthosys.g_lead_rows keeps one leading block per popcount class
    # instead of all 2^m row blocks
    for k in range(21):
        cols = k + 2
        assert int_matmul(n_rows(k, 1), n_rows(k + 1, 2), cols) == \
            int_matmul(n_rows(k, 2), n_rows(k + 1, 1), cols), k


def test_identity_suite_spot_checks():
    for n in range(5):
        res = identity_suite(n)
        assert res, n
        assert all(res.values()), (n, res)


def test_identity_min_degrees_enforced():
    with pytest.raises(ValueError):
        basis_identity_check(0, "deriv1")
    with pytest.raises(ValueError):
        basis_identity_check(1, "deriv_xy")
    with pytest.raises(ValueError):
        basis_identity_check(2, "nonsense")
    assert basisops._MIN_N["deriv_xx"] == 2
    assert set(IDENTITY_KEYS) == {
        "shift1", "shift_xx", "shift_xy", "shift_yy", "linear_sandwich",
        "deriv1", "deriv_xx", "deriv_xy", "deriv_yy",
    }


# ---------------------------------------------------------------------------
# reference: the identities as lifted polynomial matrices


def unit_matrices(rows, cols):
    """Every rows x cols matrix with a single entry 1 and zeros elsewhere."""
    for r in range(rows):
        for c in range(cols):
            yield const_matrix([[int((i, j) == (r, c)) for j in range(cols)]
                                for i in range(rows)], cols)


def lifted_identity_check(n, m, which):
    """Both sides of one identity formed as I_{2^m} (x) (...) polynomial matrices.

    Reads l_mat and n_mat (conftest), built from basisops.l_rows and
    n_rows at call time, so a monkeypatched table reaches it as it
    reaches identity_suite.  linear_sandwich is linear in its (2^{m+1}) x (2^m) matrix A, so it is
    checked on every unit matrix A, which decides it for every A.
    """
    def lift(a):
        return kron(PolyMatrix.identity(2 ** m), a)

    lm, nm = l_mat, n_mat
    xr = lift(x_vec(n).transpose())
    x, y = P.x(), P.y()
    if which == "shift1":
        up = lift(x_vec(n + 1).transpose())
        return (xr.scale(x) == up @ lift(lm(n, 1).transpose())
                and xr.scale(y) == up @ lift(lm(n, 2).transpose()))
    if which.startswith("shift_"):
        s, first, second = {"shift_xx": (x * x, 1, 1), "shift_xy": (x * y, 1, 2),
                            "shift_yy": (y * y, 2, 2)}[which]
        up2 = lift(x_vec(n + 2).transpose())
        return xr.scale(s) == up2 @ lift((lm(n, second) @ lm(n + 1, first)).transpose())
    if which == "linear_sandwich":
        left = lift(x_vec(1).transpose())
        right = (lift(x_vec(n + 1).transpose())
                 @ lift(vstack(lm(n, 1), lm(n, 2)).transpose()))
        eye = PolyMatrix.identity(n + 1)
        return all(left @ a @ xr == right @ kron(a, eye)
                   for a in unit_matrices(2 ** (m + 1), 2 ** m))
    if which == "deriv1":
        down = lift(x_vec(n - 1).transpose())
        return xr.dx() == down @ lift(nm(n, 1)) and xr.dy() == down @ lift(nm(n, 2))
    d, first, second = {"deriv_xx": (xr.dx().dx(), 1, 1), "deriv_xy": (xr.dx().dy(), 1, 2),
                        "deriv_yy": (xr.dy().dy(), 2, 2)}[which]
    return d == lift(x_vec(n - 2).transpose()) @ lift(nm(n - 1, second) @ nm(n, first))


def lifted_suite(n, m):
    return {key: lifted_identity_check(n, m, key)
            for key in IDENTITY_KEYS if n >= basisops._MIN_N[key]}


# the table each wrong form is patched in for (the wrong tables are in conftest)
_ROWS_OF = {"l_mat": "l_rows", "n_mat": "n_rows"}


# the degrees n at which each wrong matrix breaks linear_sandwich
_SANDWICH_BREAKS = {"_l_swapped_at_2": {2}, "_l_half_at_3": {3}}


@pytest.mark.parametrize("name, wrong", [
    (None, None),
    ("l_mat", _l_swapped_at_2),
    ("l_mat", _l_half_at_3),
    ("n_mat", _n_swapped_at_2),
])
def test_identity_suite_matches_lifted_form(monkeypatch, name, wrong):
    if name is not None:
        monkeypatch.setattr(basisops, _ROWS_OF[name], wrong)
    flagged = set()
    for n in range(4):
        got = identity_suite(n)
        # the level-0 verdicts hold at every level m
        for m in range(4):
            assert lifted_suite(n, m) == got, (n, m)
        flagged |= {(key, n) for key, ok in got.items() if not ok}
    # every wrong matrix is caught somewhere on the grid
    assert bool(flagged) == (name is not None), flagged
    # a sandwich check that always held would fail here
    assert {n for key, n in flagged if key == "linear_sandwich"} == \
        _SANDWICH_BREAKS.get(getattr(wrong, "__name__", None), set())


# ---------------------------------------------------------------------------
# reference: each identity at level 0 as polynomial matrices


def polymatrix_identity_check(n, which):
    """basis_identity_check formed as PolyMatrix products of X_n^t and the tables.

    The left side multiplies or differentiates x_vec(n)^t; the right
    side composes l_mat and n_mat (conftest), so a patched
    basisops.l_rows or n_rows reaches it.  linear_sandwich is checked on
    the two unit columns a, through the stacked shift [L(n,1); L(n,2)]
    and a (x) I_{n+1}.
    """
    xr = x_vec(n).transpose()
    x, y = P.x(), P.y()
    if which == "linear_sandwich":
        up = x_vec(n + 1).transpose()
        lt = vstack(l_mat(n, 1), l_mat(n, 2)).transpose()
        eye = PolyMatrix.identity(n + 1)
        return all(x_vec(1).transpose() @ a @ xr == up @ lt @ kron(a, eye)
                   for a in (const_matrix([[1], [0]]), const_matrix([[0], [1]])))
    if which == "shift1":
        up = x_vec(n + 1).transpose()
        return (xr.scale(x) == up @ l_mat(n, 1).transpose()
                and xr.scale(y) == up @ l_mat(n, 2).transpose())
    if which.startswith("shift_"):
        s, first, second = {"shift_xx": (x * x, 1, 1), "shift_xy": (x * y, 1, 2),
                            "shift_yy": (y * y, 2, 2)}[which]
        up2 = x_vec(n + 2).transpose()
        return xr.scale(s) == up2 @ (l_mat(n, second) @ l_mat(n + 1, first)).transpose()
    if which == "deriv1":
        down = x_vec(n - 1).transpose()
        return xr.dx() == down @ n_mat(n, 1) and xr.dy() == down @ n_mat(n, 2)
    d, first, second = {"deriv_xx": (xr.dx().dx(), 1, 1), "deriv_xy": (xr.dx().dy(), 1, 2),
                        "deriv_yy": (xr.dy().dy(), 2, 2)}[which]
    return d == x_vec(n - 2).transpose() @ (n_mat(n - 1, second) @ n_mat(n, first))


@pytest.mark.parametrize("name, wrong", [
    (None, None),
    ("l_rows", _l_swapped_at_1),
    ("l_rows", _l_swapped_at_2),
    ("l_rows", _l_half_at_3),
    ("n_rows", _n_swapped_at_2),
    ("n_rows", _n_half_at_3),
])
def test_identity_suite_matches_the_polymatrix_form(monkeypatch, name, wrong):
    # the int-table suite decides every (n, key) as the polynomial
    # matrices do, with the real tables and under each wrong one
    if name is not None:
        monkeypatch.setattr(basisops, name, wrong)
    flagged = set()
    for n in range(13):
        want = {key: polymatrix_identity_check(n, key)
                for key in IDENTITY_KEYS if n >= basisops._MIN_N[key]}
        got = identity_suite(n)
        assert got == want, n
        flagged |= {(key, n) for key, ok in got.items() if not ok}
    assert bool(flagged) == (name is not None), flagged
