"""Monic vector orthogonal systems and their gradient stacks.

P_n is a column of n+1 monic degree-n polynomials orthogonal to all
lower degrees.  Stacking m-fold gradients of P_{n+m} gives the matrix
Q_{n,m}, and a classical weight keeps those stacks orthogonal for the
Kronecker-power weight phi^(x)m.  Everything here is exact.
"""
from fractions import Fraction

from copoly2d.orthosys import build_monic, g_lead_rows, inner
from copoly2d.weights import builtin


def main():
    f = builtin("product_jacobi(0,0,0,0)")
    sys = build_monic(f, 5)

    p2 = sys.p(2)
    print("P_2 entries:")
    for i in range(3):
        print("  ", p2[i, 0].to_text())

    # the exact Gram block is kept as int rows over one denominator
    rec = sys.gram_record(2, 0)
    print("block Gram matrix of P_2 is diagonal with entries:",
          [str(Fraction(rec.rows[i][i], rec.den)) for i in range(3)])

    # cross inner products with every lower degree vanish identically
    away = inner(sys.q(0, 0), sys.q(2, 0), 0, f)
    print("inner(P_0, P_2) is zero:", away.is_zero)

    # gradient stacks: Q_{1,1} stacks the two partials of P_2
    q11 = sys.q(1, 1)
    print("Q_{1,1} shape:", q11.shape)
    cross = inner(sys.q(0, 1), q11, 1, f)
    print("level-1 stacks of different degree are orthogonal:", cross.is_zero)
    # the exact Gram block's record carries its determinant and inverse
    print("level-1 Gram determinant nonzero:", sys.gram_record(1, 1).det != 0)

    # mixed partials commute, so a stack's rows repeat by popcount
    print("Q_{0,2} has", sys.q(0, 2).rows, "rows,", sys.q_rows(0, 2).rows, "of them distinct")

    # the leading coefficients of dx P_2^t and dy P_2^t, one block per
    # popcount class of the stack's rows
    print("leading blocks of Q_{1,1}:", g_lead_rows(1, 1))


if __name__ == "__main__":
    main()
