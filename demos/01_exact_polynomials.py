"""Exact bivariate polynomial arithmetic.

A polynomial is a sparse dictionary of int numerators over one
denominator, read back as Fractions through coeff and terms, so every
identity later in the tour is checked with zero rounding, not with
tolerances.
"""
from fractions import Fraction

from copoly2d.polycore import BivariatePoly, RationalFn, parse_poly


def main():
    p = parse_poly("3/2*x^2*y - x + 1")
    q = parse_poly("x + y")
    print("p           =", p.to_text())
    print("q           =", q.to_text())
    print("p * q       =", (p * q).to_text())
    print("p + q^2     =", (p + q * q).to_text())
    print("dp/dx       =", p.dx().to_text())
    print("dp/dy       =", p.dy().to_text())
    print("coeff of x^2 y in p =", p.coeff(2, 1))
    # the exact Fraction coefficients, summed at an exact point
    x0, y0 = Fraction(1, 3), Fraction(2)
    print("p(1/3, 2)   =", sum(c * x0**i * y0**j for (i, j), c in p.terms.items()))

    # rational functions keep numerator and denominator as polynomials;
    # equality cross-multiplies, so no factoring is ever needed
    r = RationalFn(p.dx(), p)
    s = RationalFn(p.dx() * q, p * q)
    print("dp/dx / p equals its padded form:", r == s)

    # the parser and printer round-trip, which the family file format
    # relies on
    again = parse_poly(p.to_text())
    print("parse(print(p)) == p:", again == p)


if __name__ == "__main__":
    main()
