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
formed.  Eight of the nine identities read I_{2^m} (x) A = I_{2^m} (x) B
once the mixed product (I (x) A)(I (x) B) = I (x) AB is applied, and
that holds iff A = B, so they are checked at level 0 as exact polynomial
matrix equations.  The ninth, linear_sandwich, involves a random
(2^{m+1}) x (2^m) matrix; both of its sides are written on the basis
I_{2^m} (x) X_{n+1}^t and their integer coefficient matrices compared.
"""

from __future__ import annotations

import random
from math import lcm
from typing import NamedTuple

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


class StackedPair(NamedTuple):
    L: PolyMatrix
    N: PolyMatrix


def stacked(n: int) -> StackedPair:
    """Vertical stacks L_n = [L(n,1); L(n,2)] and N_n = [N(n,1); N(n,2)]."""
    return StackedPair(
        vstack(l_mat(n, 1), l_mat(n, 2)),
        vstack(n_mat(n, 1), n_mat(n, 2)),
    )


def starred(n: int, m: int) -> StackedPair:
    """Three-block second order stacks used by the eigenvalue formula.

    The L member stacks I_{2^m} (x) L(n-1,1)L(n,1), I (x) L(n-1,2)L(n,1)
    and I (x) L(n-1,2)L(n,2); the N member is the same pattern with
    N(n-1,i)N(n,j).  For n = 0 (L) or n <= 1 (N) the corresponding
    blocks are empty, which downstream products treat as zero.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    eye = PolyMatrix.identity(2 ** m)
    if n == 0:
        lstar = PolyMatrix.zeros(0, 2 ** m * (n + 2))
    else:
        lstar = vstack(
            kron(eye, l_mat(n - 1, 1) @ l_mat(n, 1)),
            kron(eye, l_mat(n - 1, 2) @ l_mat(n, 1)),
            kron(eye, l_mat(n - 1, 2) @ l_mat(n, 2)),
        )
    if n <= 1:
        nstar = PolyMatrix.zeros(0, 2 ** m * (n + 1))
    else:
        nstar = vstack(
            kron(eye, n_mat(n - 1, 1) @ n_mat(n, 1)),
            kron(eye, n_mat(n - 1, 2) @ n_mat(n, 1)),
            kron(eye, n_mat(n - 1, 2) @ n_mat(n, 2)),
        )
    return StackedPair(lstar, nstar)


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


def _random_fractions(rows: int, cols: int, rng: random.Random):
    """A random rows x cols matrix of fractions a / b as (int rows, d).

    Per entry, in row-major order, a = randint(-9, 9) then b =
    randint(1, 4); d is the LCM of the drawn b and the int rows are the
    matrix times d.
    """
    draws = [[(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
    d = lcm(*(b for row in draws for _, b in row))
    return [[a * (d // b) for a, b in row] for row in draws], d


def _sandwich_holds(n: int, m: int, a: list) -> bool:
    """(I (x) X_1^t) A (I (x) X_n^t) == (I (x) X_{n+1}^t)(I (x) L_n^t)(A (x) I_{n+1}).

    A is a (2^{m+1}) x (2^m) matrix given as int rows (a rational draw
    times its denominator: both sides are linear in A).  Both sides are
    (I_{2^m} (x) X_{n+1}^t) C for a constant C with rows i(n+2) + k and
    columns c(n+1) + t, and the monomials are independent, so the sides
    agree iff their C agree.  Left: entry (i, c(n+1) + t) is
    A[2i, c] x * x^(n-t) y^t + A[2i+1, c] y * x^(n-t) y^t, which lands on
    monomials t and t + 1 of X_{n+1}.  Right: (I (x) L_n^t)(A (x) I_{n+1})
    has entry L(n,1)[t, k] A[2i, c] + L(n,2)[t, k] A[2i+1, c] there, read
    from the int rows of the shift matrices (l_rows).
    """
    size = 2 ** m
    lhs = [[0] * (size * (n + 1)) for _ in range(size * (n + 2))]
    rhs = [[0] * (size * (n + 1)) for _ in range(size * (n + 2))]
    for i in range(size):
        for c in range(size):
            ax, ay = a[2 * i][c], a[2 * i + 1][c]
            for t in range(n + 1):
                lhs[i * (n + 2) + t][c * (n + 1) + t] += ax
                lhs[i * (n + 2) + t + 1][c * (n + 1) + t] += ay
    for half in (0, 1):
        for t, row in enumerate(l_rows(n, half + 1)):
            for k, v in enumerate(row):
                if not v:
                    continue
                for i in range(size):
                    for c in range(size):
                        rhs[i * (n + 2) + k][c * (n + 1) + t] += v * a[2 * i + half][c]
    return lhs == rhs


def basis_identity_check(n: int, m: int, which: str, rng: random.Random | None = None) -> bool:
    """Exact check of one lifted monomial-basis identity at (n, m).

    The eight identities other than linear_sandwich read
    I_{2^m} (x) A == I_{2^m} (x) B at level m: multiplying by a scalar
    and differentiating act entrywise on I (x) X_n^t, and the mixed
    product (I (x) A)(I (x) B) = I (x) AB folds the lifted selection
    matrices.  Since I (x) A = I (x) B iff A = B, each is checked at
    level 0, by building both sides independently (the left by
    multiplication or differentiation of X_n^t, the right by composing
    the selection matrices) and comparing the polynomial matrices.
    linear_sandwich draws a random (2^{m+1}) x (2^m) rational matrix (pass
    a seeded rng for reproducibility) and compares the coefficient
    matrices of its two sides at level m.
    """
    if which not in _MIN_N:
        raise ValueError(f"unknown identity {which!r}")
    if n < _MIN_N[which]:
        raise ValueError(f"{which} needs n >= {_MIN_N[which]}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if which == "linear_sandwich":
        if rng is None:
            rng = random.Random(0)
        return _sandwich_holds(n, m, _random_fractions(2 ** (m + 1), 2 ** m, rng)[0])

    xr = x_vec(n).transpose()
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


def identity_suite(n: int, m: int, rng: random.Random | None = None,
                   sandwich_draws: int = 1, keys=IDENTITY_KEYS) -> dict:
    """Run every identity among keys valid at (n, m); returns {key: bool}.

    All sandwich draws come from one generator, random.Random(0) when
    rng is None; no other identity draws from it.
    """
    if rng is None:
        rng = random.Random(0)
    out = {}
    for key in IDENTITY_KEYS:
        if key not in keys or n < _MIN_N[key]:
            continue
        if key == "linear_sandwich":
            ok = all(
                basis_identity_check(n, m, key, rng) for _ in range(sandwich_draws)
            )
        else:
            ok = basis_identity_check(n, m, key)
        out[key] = ok
    return out
