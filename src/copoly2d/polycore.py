"""Exact arithmetic for sparse bivariate polynomials.

A polynomial ``sum c_ij * x^i * y^j`` is stored as int numerators over
one denominator: ``num`` maps exponent pairs (i, j) to nonzero ints and
``den`` is a positive int with gcd(den, *num.values()) = 1.  That form
is canonical, so equality is a dict and int comparison, and every
exact kernel reads its operands directly: the product kernel `_mul_into`
runs on the stored dicts, a sum works over lcm(den_a, den_b), and
derivatives and scalar multiples stay in ints.  from_numerators is the
one normalising constructor (drop zeros, divide out the gcd).  A stored
num dict is never mutated.  Fraction appears only at the edges:
``coeff``, ``terms`` (a {(i, j): Fraction} view in stored key order,
built on each access) and text.  Float evaluation on
quadrature nodes lives in orthosys.eval_entries, which reads each
coefficient as c / den and sums the terms in stored order.  A rational
function is only a value: an unreduced numerator/denominator pair that
weight families store as their logarithmic gradient and compare by
cross multiplication, which avoids bivariate gcd computations entirely.
It has no arithmetic; identities involving it are cleared to polynomial
statements by the caller (weights.cleared_divergence).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

NEG_INF = float("-inf")

_TERM_SPLIT = re.compile(r"(?=[+-])")
_NUM_RE = re.compile(r"^[+-]?(\d+(/\d+)?|\d*\.\d+)$")
_VAR_RE = re.compile(r"^([xy])(?:\^(\d+))?$")


class ZeroDenominatorError(ZeroDivisionError):
    """Raised when a rational function is built over the zero polynomial."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class BivariatePoly:
    """Immutable sparse bivariate polynomial with rational coefficients.

    Stored as ``num``, a dict from exponent pair to nonzero int, over
    ``den``, a positive int coprime to the numerators.  Instances should
    be built through the classmethods or module helpers; the constructor
    trusts its input to be canonical and keeps num without copying it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: int = 1):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_terms(cls, mapping) -> "BivariatePoly":
        """Build from any {(i, j): coeff} mapping, dropping zero entries."""
        terms = {}
        for (i, j), c in dict(mapping).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            terms[(int(i), int(j))] = _as_fraction(c)
        d = lcm(*(c.denominator for c in terms.values()))
        return from_numerators({e: c.numerator * (d // c.denominator)
                                for e, c in terms.items()}, d)

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls({})

    @classmethod
    def one(cls) -> "BivariatePoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c) -> "BivariatePoly":
        return cls.monomial(0, 0, c)

    @classmethod
    def x(cls) -> "BivariatePoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BivariatePoly":
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivariatePoly":
        if not isinstance(c, int):
            c = _as_fraction(c)
        if i < 0 or j < 0:
            raise ValueError("negative exponent")
        return cls({(i, j): c.numerator}, c.denominator) if c else cls({})

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{(i, j): Fraction} in stored key order; a new dict on each access."""
        d = self.den
        return {e: Fraction(c, d) for e, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def total_degree(self):
        """max(i + j) over stored terms; -inf sentinel for the zero polynomial."""
        if not self.num:
            return NEG_INF
        return max(i + j for (i, j) in self.num)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self.num.get((i, j), 0), self.den)

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other: "BivariatePoly", sign: int) -> "BivariatePoly":
        # self + sign * other over lcm(den_a, den_b); other's new keys follow
        # self's in other's order, and sums that cancel are dropped
        da, db = self.den, other.den
        d = lcm(da, db)
        sa, sb = d // da, sign * (d // db)
        out = {e: c * sa for e, c in self.num.items()} if sa != 1 else dict(self.num)
        for e, c in other.num.items():
            s = out.get(e)
            out[e] = c * sb if s is None else s + c * sb
        return from_numerators(out, d)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other):
        if isinstance(other, BivariatePoly):
            out: dict = {}
            _mul_into(out, self.num, other.num)
            return from_numerators(out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            p, q = c.numerator, c.denominator
            return from_numerators({e: v * p for e, v in self.num.items()},
                                   self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = BivariatePoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    __hash__ = None

    # -- calculus ------------------------------------------------------

    def dx(self) -> "BivariatePoly":
        return from_numerators({(i - 1, j): c * i for (i, j), c in self.num.items()
                                if i > 0}, self.den)

    def dy(self) -> "BivariatePoly":
        return from_numerators({(i, j - 1): c * j for (i, j), c in self.num.items()
                                if j > 0}, self.den)

    # -- text ----------------------------------------------------------

    def to_text(self) -> str:
        """Render as a sum of c*x^i*y^j terms parseable by parse_poly."""
        if not self.num:
            return "0"
        terms = self.terms
        parts = []
        for (i, j) in sorted(terms, key=lambda e: (-(e[0] + e[1]), -e[0])):
            c = terms[(i, j)]
            factors = []
            if i == 1:
                factors.append("x")
            elif i > 1:
                factors.append(f"x^{i}")
            if j == 1:
                factors.append("y")
            elif j > 1:
                factors.append(f"y^{j}")
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(c) + "*" + "*".join(factors)
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"BivariatePoly({self.to_text()!r})"


def _coerce(v):
    if isinstance(v, BivariatePoly):
        return v
    if isinstance(v, (int, Fraction)):
        return BivariatePoly.const(v)
    return NotImplemented


def from_numerators(acc: dict, d: int) -> BivariatePoly:
    """The polynomial acc / d in canonical form, for ints acc and d > 0.

    Drops the numerators that are zero and divides the rest and d by
    their common gcd.  Keys keep acc's order.  The result may keep acc
    itself as its num, so the caller must not change acc afterwards.
    """
    if 0 in acc.values():
        acc = {e: c for e, c in acc.items() if c}
    if d != 1:
        g = gcd(d, *acc.values())
        if g != 1:
            acc = {e: c // g for e, c in acc.items()}
            d //= g
    return BivariatePoly(acc, d)


def _mul_into(acc: dict, ta: dict, tb: dict) -> None:
    # hot path shared with the matrix layer: accumulate ta*tb into acc.
    # ta and tb are int numerator dicts (a polynomial's num, or one
    # rescaled to a shared denominator), so every term product and sum
    # is a Python int operation.
    for (ia, ja), ca in ta.items():
        for (ib, jb), cb in tb.items():
            e = (ia + ib, ja + jb)
            s = acc.get(e)
            acc[e] = ca * cb if s is None else s + ca * cb


ZERO = BivariatePoly.zero()
ONE = BivariatePoly.one()
X = BivariatePoly.x()
Y = BivariatePoly.y()


# ---------------------------------------------------------------------------
# parsing


def parse_poly(text: str) -> BivariatePoly:
    """Parse a sum of ``c*x^i*y^j`` terms.

    The coefficient is an optional integer, fraction (``-3/2``) or decimal
    (``0.5``); variable factors are ``x``, ``y``, ``x^k`` or ``y^k`` joined
    by ``*``.  Whitespace is ignored.  Examples: ``"x^2*y - 3/2"``,
    ``"-x*y + 2*y^2"``, ``"1"``.  Anything but a string is a TypeError,
    and a zero denominator a ValueError.
    """
    if not isinstance(text, str):
        raise TypeError(f"polynomial text must be a string, not {text!r}")
    s = "".join(text.split()).replace("**", "^")
    if not s:
        raise ValueError("empty polynomial text")
    total: dict = {}
    for raw in _TERM_SPLIT.split(s):
        if not raw or raw in "+-":
            if raw:
                raise ValueError(f"dangling sign in {text!r}")
            continue
        sign = Fraction(1)
        body = raw
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign = Fraction(-1)
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        i = j = 0
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in term {raw!r}")
            if _NUM_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {text!r}") from None
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            k = int(m.group(2)) if m.group(2) is not None else 1
            if m.group(1) == "x":
                i += k
            else:
                j += k
        e = (i, j)
        prev = total.get(e)
        total[e] = coeff if prev is None else prev + coeff
    return BivariatePoly.from_terms(total)


# ---------------------------------------------------------------------------
# rational functions


class RationalFn:
    """Quotient of two BivariatePoly values, held unreduced.

    An immutable value with no arithmetic: readers use num and den
    directly.  Equality is tested by cross multiplication, so
    representatives never need a gcd pass.  The denominator must be a
    nonzero polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BivariatePoly, den: BivariatePoly = ONE):
        num = _coerce(num)
        den = _coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFn needs polynomial or scalar parts")
        if den.is_zero:
            raise ZeroDenominatorError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __repr__(self):
        if self.den == ONE:
            return f"RationalFn({self.num.to_text()!r})"
        return f"RationalFn({self.num.to_text()!r}, {self.den.to_text()!r})"

