"""Monomial column vectors and their shift and derivative tables.

X_n is the column of the n + 1 degree-n monomials ordered by falling x
power: (x^n, x^(n-1) y, ..., y^n)^t.  Multiplication by x or y shifts
X_n into X_{n+1} through constant selection matrices L, and the partial
derivatives drop X_n onto X_{n-1} through banded matrices N:

    x * X_n = L(n, 1) X_{n+1}        d/dx X_n = N(n, 1)^t X_{n-1}
    y * X_n = L(n, 2) X_{n+1}        d/dy X_n = N(n, 2)^t X_{n-1}

L and N are kept as int rows (l_rows, n_rows), the only form any
reader takes.

The identity suite at the bottom checks that these relations, lifted by
Kronecker products with an identity block of width 2^m, stay consistent
with matrix multiplication from either side.  No lifted matrix is
formed: each identity is decided at level 0, for every m at once.
Eight of the nine read I_{2^m} (x) A = I_{2^m} (x) B once the mixed
product (I (x) A)(I (x) B) = I (x) AB is applied, and that holds iff
A = B.  The ninth, linear_sandwich, holds for every (2^{m+1}) x (2^m)
matrix A iff it holds for the two 2 x 1 unit columns at level 0:
block (i, c) of either side is one linear map of the column
(A[2i, c], A[2i+1, c]), the same at every block and every m.  Each
level-0 side is a row of forms of one degree, compared as exponent ->
coefficient dicts: exponent arithmetic on X_n against int products of
the tables (basis_identity_check).
"""

from __future__ import annotations

from math import perm

from .matpoly import PolyMatrix, int_matmul
from .polycore import BivariatePoly


def x_vec(n: int) -> PolyMatrix:
    """Column of the degree-n monomials, x powers falling."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return PolyMatrix.column([BivariatePoly.monomial(n - k, k) for k in range(n + 1)])


def _check_shift(n: int, which: int) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if which not in (1, 2):
        raise ValueError("which must be 1 (x) or 2 (y)")


def l_rows(n: int, which: int) -> list:
    """The (n+1) x (n+2) selection L(n, which), with x X_n = L(n, 1) X_{n+1}, as int rows.

    Row k has a 1 in column k (x, which = 1) or k + 1 (y, which = 2).
    """
    _check_shift(n, which)
    off = 0 if which == 1 else 1
    return [[int(j == k + off) for j in range(n + 2)] for k in range(n + 1)]


def n_rows(n: int, which: int) -> list:
    """The n x (n+1) band N(n, which), with d/dx X_n = N(n, 1)^t X_{n-1}, as int rows.

    Row k has n - k in column k (x, which = 1) or k + 1 in column k + 1
    (y, which = 2).  n = 0 gives no rows, matching the vanishing
    derivative of the constant monomial vector.
    """
    _check_shift(n, which)
    if which == 1:
        return [[n - k if j == k else 0 for j in range(n + 1)] for k in range(n)]
    return [[k + 1 if j == k + 1 else 0 for j in range(n + 1)] for k in range(n)]


# ---------------------------------------------------------------------------
# identity suite


IDENTITY_KEYS = (
    "shift1",          # multiply by x and by y
    "shift_xx",        # multiply by x^2
    "shift_xy",
    "shift_yy",
    "linear_sandwich",  # (I (x) X_1^t) A (I (x) X_n^t) pushed to degree n+1
    "deriv1",          # d/dx and d/dy
    "deriv_xx",        # second derivatives
    "deriv_xy",
    "deriv_yy",
)

_MIN_N = {
    "shift1": 0, "shift_xx": 0, "shift_xy": 0, "shift_yy": 0,
    "linear_sandwich": 0,
    "deriv1": 1, "deriv_xx": 2, "deriv_xy": 2, "deriv_yy": 2,
}


# the (first, second) shift or derivative directions of the two-step identities
_PAIRS = {"xx": (1, 1), "xy": (1, 2), "yy": (2, 2)}


def _forms(deg: int, rows) -> list:
    """X_deg^t r^t for each row r of deg + 1 entries, as exponent -> coefficient dicts."""
    return [{(deg - k, k): v for k, v in enumerate(row) if v} for row in rows]


def _shifted(n: int, a: int, b: int) -> list:
    """x^a y^b X_n^t as exponent -> coefficient dicts."""
    return [{(n - j + a, j + b): 1} for j in range(n + 1)]


def _derived(n: int, a: int, b: int) -> list:
    """dx^a dy^b X_n^t as exponent -> coefficient dicts, a vanishing entry empty."""
    out = []
    for j in range(n + 1):
        c = perm(n - j, a) * perm(j, b)
        out.append({(n - j - a, j - b): c} if c else {})
    return out


def basis_identity_check(n: int, which: str) -> bool:
    """Exact check of one lifted monomial-basis identity at degree n, every level m.

    The eight identities other than linear_sandwich read
    I_{2^m} (x) A == I_{2^m} (x) B at level m: multiplying by a scalar
    and differentiating act entrywise on I (x) X_n^t, and the mixed
    product (I (x) A)(I (x) B) = I (x) AB folds the lifted selection
    matrices.  Since I (x) A = I (x) B iff A = B, each is checked at
    level 0, by building both sides independently and comparing them.

    linear_sandwich states (I (x) X_1^t) A (I (x) X_n^t) =
    (I (x) X_{n+1}^t)(I (x) L_n^t)(A (x) I_{n+1}) for every
    (2^{m+1}) x (2^m) matrix A.  Block (i, c) of the left side is
    (x A[2i, c] + y A[2i+1, c]) X_n^t, and the same block of the right
    side is X_{n+1}^t (L(n,1)^t A[2i, c] + L(n,2)^t A[2i+1, c]).  Both are
    the level-0 sides X_1^t a X_n^t and X_{n+1}^t L_n^t (a (x) I_{n+1}) at
    the column a = (A[2i, c], A[2i+1, c])^t, and both are linear in a.  So
    the identity holds for every A, at every m, iff it holds at level 0
    for a = e_1 and a = e_2, on L_n = [L(n,1); L(n,2)].  At a = e_h,
    a (x) I_{n+1} selects column block h of L_n^t, which is L(n,h)^t, so
    the two equations read x_h X_n^t = X_{n+1}^t L(n,h)^t, h = 1, 2.
    Unlike a random draw of A, which misses a fault wherever it draws
    zeros, this decides the identity.

    Every side is a row of forms of one degree, kept as a list of
    exponent -> coefficient dicts, so no polynomial is formed.  The left
    side is exponent arithmetic on X_n^t: a shift adds to the exponents,
    a derivative subtracts from them and scales by a falling factorial.
    The right side is X_k^t M, M a product of the tables l_rows or
    n_rows (read at call time; transposed for a shift), whose entry j is
    the sum over i of M[i][j] x^(k-i) y^i (_forms).
    """
    if which not in _MIN_N:
        raise ValueError(f"unknown identity {which!r}")
    if n < _MIN_N[which]:
        raise ValueError(f"{which} needs n >= {_MIN_N[which]}")
    if which in ("shift1", "linear_sandwich"):
        return all(_shifted(n, 2 - h, h - 1) == _forms(n + 1, l_rows(n, h)) for h in (1, 2))
    if which == "deriv1":
        return all(_derived(n, 2 - h, h - 1) == _forms(n - 1, zip(*n_rows(n, h)))
                   for h in (1, 2))
    first, second = _PAIRS[which[-2:]]
    a, b = (first, second).count(1), (first, second).count(2)
    if which.startswith("shift"):
        return _shifted(n, a, b) == _forms(
            n + 2, int_matmul(l_rows(n, second), l_rows(n + 1, first), n + 3))
    return _derived(n, a, b) == _forms(
        n - 2, zip(*int_matmul(n_rows(n - 1, second), n_rows(n, first), n + 1)))


def identity_suite(n: int) -> dict:
    """Run every identity valid at degree n; returns {key: bool}.

    Each verdict holds at every level m (basis_identity_check).
    """
    return {key: basis_identity_check(n, key)
            for key in IDENTITY_KEYS if n >= _MIN_N[key]}
