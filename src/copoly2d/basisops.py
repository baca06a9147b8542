"""Monomial column vectors and their shift and derivative matrices.

X_n is the column of the n + 1 degree-n monomials ordered by falling x
power: (x^n, x^(n-1) y, ..., y^n)^t.  Multiplication by x or y shifts
X_n into X_{n+1} through constant selection matrices L, and the partial
derivatives drop X_n onto X_{n-1} through banded matrices N:

    x * X_n = L(n, 1) X_{n+1}        d/dx X_n = N(n, 1)^t X_{n-1}
    y * X_n = L(n, 2) X_{n+1}        d/dy X_n = N(n, 2)^t X_{n-1}

The identity suite at the bottom checks that these relations, lifted by
Kronecker products with an identity block of width 2^m, stay consistent
with matrix multiplication from either side.  No lifted matrix is
formed: each identity is decided at level 0, for every m at once.
Eight of the nine read I_{2^m} (x) A = I_{2^m} (x) B once the mixed
product (I (x) A)(I (x) B) = I (x) AB is applied, and that holds iff
A = B.  The ninth, linear_sandwich, holds for every (2^{m+1}) x (2^m)
matrix A iff it holds for the two 2 x 1 unit columns at level 0:
block (i, c) of either side is one linear map of the column
(A[2i, c], A[2i+1, c]), the same at every block and every m.
"""

from __future__ import annotations

from .matpoly import PolyMatrix, const_matrix, kron, vstack
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
    """The int rows of l_mat(n, which): row k has a 1 in column k (x) or k + 1 (y)."""
    _check_shift(n, which)
    off = 0 if which == 1 else 1
    return [[int(j == k + off) for j in range(n + 2)] for k in range(n + 1)]


def n_rows(n: int, which: int) -> list:
    """The int rows of n_mat(n, which): row k has n - k in column k (x) or k + 1 in column k + 1 (y)."""
    _check_shift(n, which)
    if which == 1:
        return [[n - k if j == k else 0 for j in range(n + 1)] for k in range(n)]
    return [[k + 1 if j == k + 1 else 0 for j in range(n + 1)] for k in range(n)]


def l_mat(n: int, which: int) -> PolyMatrix:
    """Constant (n+1) x (n+2) selection with x*X_n = l_mat(n,1) @ X_{n+1}."""
    return const_matrix(l_rows(n, which), n + 2)


def n_mat(n: int, which: int) -> PolyMatrix:
    """Constant n x (n+1) band with d/dx X_n = n_mat(n,1)^t @ X_{n-1}.

    n = 0 gives the empty 0 x 1 matrix, matching the vanishing
    derivative of the constant monomial vector.
    """
    return const_matrix(n_rows(n, which), n + 1)


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


def basis_identity_check(n: int, which: str) -> bool:
    """Exact check of one lifted monomial-basis identity at degree n, every level m.

    The eight identities other than linear_sandwich read
    I_{2^m} (x) A == I_{2^m} (x) B at level m: multiplying by a scalar
    and differentiating act entrywise on I (x) X_n^t, and the mixed
    product (I (x) A)(I (x) B) = I (x) AB folds the lifted selection
    matrices.  Since I (x) A = I (x) B iff A = B, each is checked at
    level 0, by building both sides independently (the left by
    multiplication or differentiation of X_n^t, the right by composing
    the selection matrices) and comparing the polynomial matrices.

    linear_sandwich states (I (x) X_1^t) A (I (x) X_n^t) =
    (I (x) X_{n+1}^t)(I (x) L_n^t)(A (x) I_{n+1}) for every
    (2^{m+1}) x (2^m) matrix A.  Block (i, c) of the left side is
    (x A[2i, c] + y A[2i+1, c]) X_n^t, and the same block of the right
    side is X_{n+1}^t (L(n,1)^t A[2i, c] + L(n,2)^t A[2i+1, c]).  Both are
    the level-0 sides X_1^t a X_n^t and X_{n+1}^t L_n^t (a (x) I_{n+1}) at
    the column a = (A[2i, c], A[2i+1, c])^t, and both are linear in a.  So
    the identity holds for every A, at every m, iff it holds at level 0
    for a = e_1 and a = e_2, the two polynomial matrix equations checked
    here on L_n = [L(n,1); L(n,2)].  Unlike a random draw of A, which
    misses a fault wherever it draws zeros, this decides the identity.
    """
    if which not in _MIN_N:
        raise ValueError(f"unknown identity {which!r}")
    if n < _MIN_N[which]:
        raise ValueError(f"{which} needs n >= {_MIN_N[which]}")

    xr = x_vec(n).transpose()
    if which == "linear_sandwich":
        up = x_vec(n + 1).transpose()
        lt = vstack(l_mat(n, 1), l_mat(n, 2)).transpose()
        eye = PolyMatrix.identity(n + 1)
        return all(x_vec(1).transpose() @ a @ xr == up @ lt @ kron(a, eye)
                   for a in (const_matrix([[1], [0]]), const_matrix([[0], [1]])))

    x = BivariatePoly.x()
    y = BivariatePoly.y()
    if which == "shift1":
        up = x_vec(n + 1).transpose()
        okx = xr.scale(x) == up @ l_mat(n, 1).transpose()
        oky = xr.scale(y) == up @ l_mat(n, 2).transpose()
        return okx and oky

    if which in ("shift_xx", "shift_xy", "shift_yy"):
        up2 = x_vec(n + 2).transpose()
        if which == "shift_xx":
            s, first, second = x * x, 1, 1
        elif which == "shift_xy":
            s, first, second = x * y, 1, 2
        else:
            s, first, second = y * y, 2, 2
        rhs = up2 @ (l_mat(n, second) @ l_mat(n + 1, first)).transpose()
        return xr.scale(s) == rhs

    down = x_vec(n - 1).transpose()
    if which == "deriv1":
        okx = xr.dx() == down @ n_mat(n, 1)
        oky = xr.dy() == down @ n_mat(n, 2)
        return okx and oky

    down2 = x_vec(n - 2).transpose()
    if which == "deriv_xx":
        d, first, second = xr.dx().dx(), 1, 1
    elif which == "deriv_xy":
        d, first, second = xr.dx().dy(), 1, 2
    else:
        d, first, second = xr.dy().dy(), 2, 2
    rhs = down2 @ (n_mat(n - 1, second) @ n_mat(n, first))
    return d == rhs


def identity_suite(n: int) -> dict:
    """Run every identity valid at degree n; returns {key: bool}.

    Each verdict holds at every level m (basis_identity_check).
    """
    return {key: basis_identity_check(n, key)
            for key in IDENTITY_KEYS if n >= _MIN_N[key]}
