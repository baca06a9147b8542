"""Constant matrices that implement calculus on monomial vectors.

The degree-n monomial vector X_n = (x^n, x^(n-1) y, ..., y^n)^t turns
multiplication by x or y and partial differentiation into constant
matrix products.  Stacked variants of those matrices drive every
eigenvalue formula later on, so this demo shows the raw identities.
"""
from copoly2d.basisops import IDENTITY_KEYS, identity_suite, l_rows, n_rows, x_vec
from copoly2d.matpoly import const_matrix, vstack


def l_mat(n, which):
    """The shift table L(n, which) as a constant (n+1) x (n+2) matrix."""
    return const_matrix(l_rows(n, which), n + 2)


def n_mat(n, which):
    """The derivative band N(n, which) as a constant n x (n+1) matrix."""
    return const_matrix(n_rows(n, which), n + 1)


def main():
    n = 3
    xs = x_vec(n)
    print("X_3 entries:", [p.to_text() for p in (xs[i, 0] for i in range(n + 1))])

    lx = l_mat(n, 1)
    print("shift matrix for x has shape", lx.shape)
    shifted = lx @ x_vec(n + 1)
    print("L X_4 rows:", [shifted[i, 0].to_text() for i in range(n + 1)],
          " (this is x * X_3)")

    dx = n_mat(n, 1)
    print("derivative matrix for x has shape", dx.shape)
    derived = dx.transpose() @ x_vec(n - 1)
    print("N^t X_2 rows:", [derived[i, 0].to_text() for i in range(n + 1)],
          " (this is d/dx X_3)")

    stacked_l = vstack(l_mat(n, 1), l_mat(n, 2))
    stacked_n = vstack(n_mat(n, 1), n_mat(n, 2))
    print("stacked shift shape:", stacked_l.shape, " stacked derivative shape:", stacked_n.shape)

    # the identity suite ties all of these together at every level m: each
    # identity is an exact polynomial matrix equality checked at level 0,
    # since lifting both sides by I_{2^m} (x) (.) cannot change it, and
    # linear_sandwich, linear in its matrix, is checked on the two unit columns
    results = identity_suite(4)
    width = max(len(k) for k in IDENTITY_KEYS)
    for key in IDENTITY_KEYS:
        if key in results:
            print(f"{key:<{width}s} : {'ok' if results[key] else 'BROKEN'}")


if __name__ == "__main__":
    main()
