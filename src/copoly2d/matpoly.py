"""Matrices of bivariate polynomials with Kronecker products.

Matrices are stored dense and row major, but all products skip zero
entries, which matters because the structured matrices used downstream
(selection blocks, Kronecker lifts) are mostly zero.  Every entry is a
polynomial stored as int numerators over its own denominator, so a
product reads the stored dicts: it brings each operand matrix to one
denominator, the LCM of its entries' ones, rescales only the entries
whose denominator differs, and runs the polynomial product kernel on
Python ints.  A constant factor held as int rows over one denominator
goes through the same kernel (matmul_const_rows), each int a one-term
dict.  Exact linear algebra on constant matrices goes through one
routine, `_echelon`: it takes int rows (each constant row scaled by the
LCM of its denominators) and runs fraction-free (Bareiss) elimination
with exact integer division.  Determinant, rank, the square solve, the
overdetermined consistency solve and the inverse of a Gram block
(orthosys) all read that echelon form; only the determinant is
returned as a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polycore import NEG_INF, ZERO, BivariatePoly, _mul_into, from_numerators


class ShapeError(ValueError):
    """Operands whose shapes do not compose."""


class SingularMatrixError(ValueError):
    """Exact elimination met a structurally singular system."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column  # the first column without a pivot


class InconsistentSystemError(ValueError):
    """An overdetermined exact system admits no solution."""


def _entry(v) -> BivariatePoly:
    if isinstance(v, BivariatePoly):
        return v
    if isinstance(v, (int, Fraction)):
        return BivariatePoly.const(v)
    raise TypeError(f"not a polynomial entry: {v!r}")


class PolyMatrix:
    """Immutable dense matrix of BivariatePoly entries.

    Zero-row or zero-column shapes are legal and behave like the empty
    factors they are: products with them produce zero matrices of the
    composed shape.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimension")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    # -- construction --------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        e = [ZERO] * (n * n)
        one = BivariatePoly.one()
        for i in range(n):
            e[i * n + i] = one
        return cls(n, n, e)

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "PolyMatrix":
        """Matrix from nested rows; without rows, cols must be given."""
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ShapeError("no rows to take the column count from")
            cols = len(rows[0])
        for row in rows:
            if len(row) != cols:
                raise ShapeError("ragged rows")
        return cls(len(rows), cols, [_entry(v) for row in rows for v in row])

    @classmethod
    def column(cls, entries) -> "PolyMatrix":
        entries = [_entry(v) for v in entries]
        return cls(len(entries), 1, entries)

    @classmethod
    def row(cls, entries) -> "PolyMatrix":
        entries = [_entry(v) for v in entries]
        return cls(1, len(entries), entries)

    # -- access ---------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._e[i * self.cols + j]

    def row_list(self, i: int):
        return self._e[i * self.cols:(i + 1) * self.cols]

    def nonzeros(self):
        """Yield (i, j, entry) over nonzero entries."""
        c = self.cols
        for idx, p in enumerate(self._e):
            if p.num:
                yield idx // c, idx % c, p

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return all(not p.num for p in self._e)

    @property
    def degree(self):
        """Max entry total degree, -inf for a zero or empty matrix."""
        d = NEG_INF
        for p in self._e:
            if p.num:
                pd = p.total_degree
                if pd > d:
                    d = pd
        return d

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    __hash__ = None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"add {self.shape} vs {other.shape}")
        return PolyMatrix(self.rows, self.cols,
                          [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"sub {self.shape} vs {other.shape}")
        return PolyMatrix(self.rows, self.cols,
                          [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self):
        return PolyMatrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, s) -> "PolyMatrix":
        """Multiply every entry by a polynomial or exact scalar."""
        s = _entry(s)
        if s.is_zero:
            return PolyMatrix.zeros(self.rows, self.cols)
        return PolyMatrix(self.rows, self.cols, [p * s for p in self._e])

    def __mul__(self, s):
        if isinstance(s, (int, Fraction, BivariatePoly)):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        acc, dab = matmul_numerators(self, other)
        return PolyMatrix(self.rows, other.cols,
                          [ZERO if d is None else from_numerators(d, dab) for d in acc])

    def transpose(self) -> "PolyMatrix":
        e = [ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                e[j * self.rows + i] = self._e[i * self.cols + j]
        return PolyMatrix(self.cols, self.rows, e)

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [fn(p) for p in self._e])

    # -- calculus ---------------------------------------------------------

    def dx(self) -> "PolyMatrix":
        return self.map_entries(lambda p: p.dx())

    def dy(self) -> "PolyMatrix":
        return self.map_entries(lambda p: p.dy())

    # -- block structure ----------------------------------------------------

    def top_half(self) -> "PolyMatrix":
        if self.rows % 2:
            raise ShapeError("odd row count has no halves")
        h = self.rows // 2
        return PolyMatrix(h, self.cols, self._e[: h * self.cols])

    def bottom_half(self) -> "PolyMatrix":
        if self.rows % 2:
            raise ShapeError("odd row count has no halves")
        h = self.rows // 2
        return PolyMatrix(h, self.cols, self._e[h * self.cols:])

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"PolyMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            ", ".join(p.to_text() for p in self.row_list(i)) for i in range(self.rows)
        )
        return f"PolyMatrix({self.rows}x{self.cols}: {body})"


def _rescaled(p: BivariatePoly, d: int) -> dict:
    """p's numerators over the multiple d of p.den; p.num itself when d is p.den."""
    if p.den == d:
        return p.num
    s = d // p.den
    return {e: c * s for e, c in p.num.items()}


def matmul_numerators(a: PolyMatrix, b: PolyMatrix):
    """The entries of a @ b as int numerators over one denominator.

    Returns (acc, d): acc[r * b.cols + c] maps each exponent to an int
    numerator, entry (r, c) of a @ b being those ints over d, or is None
    where no nonzero pair of entries meets.  Sums that cancelled to
    zero stay in the dict; terms keep the order in which the products
    first reach them.
    Each operand is read over the LCM of its entries' denominators;
    entries already over it pass their stored dicts, so every term
    product and sum is an int operation on the stored numerators.
    `@` normalises this (from_numerators), and numeric evaluation reads
    it as floats c / d directly.
    """
    if a.cols != b.rows:
        raise ShapeError(f"matmul {a.shape} @ {b.shape}")
    db = lcm(*{p.den for p in b._e})
    # gather the nonzero entries of b by row once, over db
    b_rows = [[] for _ in range(b.rows)]
    for k, j, p in b.nonzeros():
        b_rows[k].append((j, _rescaled(p, db)))
    acc, da = _matmul_rows(a, b_rows, b.cols)
    return acc, da * db


def matmul_const_rows(a: PolyMatrix, rows: list, d: int, cols: int):
    """matmul_numerators(a, b) for the constant b given as int rows over d.

    b has cols columns.  Each nonzero int is the one-term dict {(0, 0):
    v}, so the product runs through the same kernel and no entry of b
    is built as a polynomial.
    """
    if a.cols != len(rows):
        raise ShapeError(f"matmul {a.shape} @ ({len(rows)}, {cols})")
    acc, da = _matmul_rows(a, [[(j, {(0, 0): v}) for j, v in enumerate(row) if v]
                               for row in rows], cols)
    return acc, da * d


def _matmul_rows(a: PolyMatrix, b_rows: list, cols: int):
    """The product kernel: a over the LCM da of its denominators times b.

    b_rows[k] lists the nonzero entries (j, numerator dict) of row k of
    b, all over one denominator.  Returns (acc, da) as matmul_numerators
    describes acc.
    """
    rows, mid = a.rows, a.cols
    da = lcm(*{p.den for p in a._e})
    acc = [None] * (rows * cols)
    for i in range(rows):
        base = i * mid
        obase = i * cols
        for k in range(mid):
            pa = a._e[base + k]
            if not pa.num or not b_rows[k]:
                continue
            ta = _rescaled(pa, da)
            for j, tb in b_rows[k]:
                d = acc[obase + j]
                if d is None:
                    d = acc[obase + j] = {}
                _mul_into(d, ta, tb)
    return acc, da


def same_numerators(a, da: int, b, db: int) -> bool:
    """Whether the entries of two products acc / d (matmul_numerators) are equal.

    Compared by cross multiplication, dropping the sums that cancelled,
    so neither side is normalised.
    """
    return all({e: c * db for e, c in (ta or {}).items() if c}
               == {e: c * da for e, c in (tb or {}).items() if c}
               for ta, tb in zip(a, b))


def const_matrix(rows, cols: int | None = None) -> PolyMatrix:
    """Build a constant matrix from nested Fractions/ints (see from_rows)."""
    return PolyMatrix.from_rows(rows, cols)


def hstack(*mats: PolyMatrix) -> PolyMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ShapeError("nothing to stack")
    r = mats[0].rows
    if any(m.rows != r for m in mats):
        raise ShapeError("hstack needs equal row counts")
    entries = []
    for i in range(r):
        for m in mats:
            entries.extend(m.row_list(i))
    return PolyMatrix(r, sum(m.cols for m in mats), entries)


def vstack(*mats: PolyMatrix) -> PolyMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ShapeError("nothing to stack")
    c = mats[0].cols
    if any(m.cols != c for m in mats):
        raise ShapeError("vstack needs equal column counts")
    entries = []
    for m in mats:
        entries.extend(m._e)
    return PolyMatrix(sum(m.rows for m in mats), c, entries)


# ---------------------------------------------------------------------------
# Kronecker products


def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product: block (i, j) of the result is a[i, j] * b."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    e = [ZERO] * (rows * cols)
    for i, j, pa in a.nonzeros():
        for k, l, pb in b.nonzeros():
            e[(i * b.rows + k) * cols + (j * b.cols + l)] = pa * pb
    return PolyMatrix(rows, cols, e)


def kron_power(a: PolyMatrix, m: int) -> PolyMatrix:
    """m-fold Kronecker power; m = 0 gives the 1x1 identity."""
    if m < 0:
        raise ValueError("negative Kronecker power")
    out = PolyMatrix.identity(1)
    for _ in range(m):
        out = kron(a, out)
    return out


# ---------------------------------------------------------------------------
# exact linear algebra (constant matrices)


def _shape(m) -> tuple:
    """Shape of a PolyMatrix or of a list of rows."""
    if isinstance(m, PolyMatrix):
        return m.shape
    return len(m), len(m[0]) if m else 0


def _ratio_rows(m) -> list:
    """A constant matrix as rows of (numerator, denominator) int pairs.

    m is a constant PolyMatrix, read from its stored numerators, or a
    list of rows of ints or Fractions.
    """
    if not isinstance(m, PolyMatrix):
        return [[(v.numerator, v.denominator) for v in row] for row in m]
    out = []
    for i in range(m.rows):
        row = []
        for p in m.row_list(i):
            c = p.num.get((0, 0), 0)
            if len(p.num) > (c != 0):
                raise ValueError("exact linear algebra needs a constant matrix")
            row.append((c, p.den))
        out.append(row)
    return out


def _int_rows(*parts):
    """Row i of every part side by side, scaled to ints: (rows, scale).

    Each part is a constant matrix as _ratio_rows reads it, all with
    the same row count.  Row i is multiplied by the LCM of its
    denominators, and scale is the product of those LCMs.
    """
    rows, scale = [], 1
    for pieces in zip(*map(_ratio_rows, parts)):
        row = [v for piece in pieces for v in piece]
        s = lcm(*(q for _, q in row))
        rows.append([c * (s // q) for c, q in row])
        scale *= s
    return rows, scale


def reduce_rows(rows: list, d: int):
    """Int rows over d > 0 with d and every entry divided by their gcd: (rows, d)."""
    g = gcd(d, *(v for row in rows for v in row))
    if g == 1:
        return rows, d
    return [[v // g for v in row] for row in rows], d // g


def int_matmul(a, b, cols: int) -> list:
    """a @ b for matrices given as int rows, b with cols columns.

    Zero entries of a are skipped, which suits the selection and band
    matrices of the shift/derivative calculus.
    """
    out = []
    for row in a:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                acc = [x + v * y for x, y in zip(acc, b[k])]
        out.append(acc)
    return out


def _echelon(w, ncols: int):
    """Fraction-free row echelon form of int rows, in place.

    Bareiss elimination on Python ints, pivoting in the first ncols
    columns only on the first nonzero row.  Every division is exact:
    after step k the entries below the pivots are (k+1)-minors of w, so
    the last pivot of a full-rank square matrix is the determinant of
    the row-permuted w.  Returns the rows, the pivot columns and the
    permutation sign.
    """
    sign, prev, pivots = 1, 1, []
    for col in range(ncols):
        k = len(pivots)
        r = next((r for r in range(k, len(w)) if w[r][col]), None)
        if r is None:
            continue
        if r != k:
            w[k], w[r] = w[r], w[k]
            sign = -sign
        tail = w[k][col:]
        pk = tail[0]
        for q in w[k + 1:]:
            qk = q[col]
            q[col:] = [(x * pk - qk * y) // prev for x, y in zip(q[col:], tail)]
        prev = pk
        pivots.append(col)
    return w, pivots, sign


def _free_column(pivots: list) -> int:
    """The first column without a pivot, from _echelon's pivot columns."""
    return next((c for c, p in enumerate(pivots) if c != p), len(pivots))


def det_exact(a: PolyMatrix) -> Fraction:
    """Determinant of a constant square matrix."""
    if a.rows != a.cols:
        raise ShapeError("determinant of a non-square matrix")
    if a.rows == 0:
        return Fraction(1)
    rows, scale = _int_rows(a)
    w, pivots, sign = _echelon(rows, a.cols)
    if len(pivots) < a.rows:
        return Fraction(0)
    return Fraction(sign * w[-1][-1], scale)


def rank_exact(a: PolyMatrix) -> int:
    """Rank of a constant matrix."""
    return len(_echelon(_int_rows(a)[0], a.cols)[1])


def _solve(a, b, no_pivot: str) -> PolyMatrix:
    """The x with a @ x = b for a of full column rank.

    a and b are constant matrices (see _ratio_rows) with equal row
    counts; each row of [a | b] is scaled to ints by its own LCM.
    no_pivot formats the SingularMatrixError text with the first column
    of a that has no pivot, which the error also carries.  Each entry
    of x is stored from the ints of _back_substitute.
    """
    n, bcols = _shape(a)[1], _shape(b)[1]
    w, pivots, _ = _echelon(_int_rows(a, b)[0], n)
    if len(pivots) < n:
        col = _free_column(pivots)
        raise SingularMatrixError(no_pivot.format(col), col)
    if any(any(row) for row in w[n:]):
        raise InconsistentSystemError("no constant solution matches every row")
    ys, d = _back_substitute(w, n, bcols)
    sd = -1 if d < 0 else 1
    return PolyMatrix(n, bcols, [from_numerators({(0, 0): sd * y}, sd * d) if y else ZERO
                                 for yr in ys for y in yr])


def _back_substitute(w, n: int, bcols: int):
    """d x as int rows, and d, for the echelon form w of [a | b] (_echelon).

    a has n columns and full column rank, b has bcols, and d is the
    last pivot, which is det(a) up to sign for square a.  Back
    substitution stays in integers: d x is integral by Cramer's rule.
    """
    d = w[n - 1][n - 1] if n else 1
    ys = [None] * n
    for i in range(n - 1, -1, -1):
        row = w[i]
        ys[i] = [(d * row[n + c] - sum(row[j] * ys[j][c] for j in range(i + 1, n)))
                 // row[i] for c in range(bcols)]
    return ys, d


def rat_solve(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Solve a @ x = b exactly for square constant a.

    Raises SingularMatrixError when a has no inverse.
    """
    if a.rows != a.cols:
        raise ShapeError("rat_solve needs a square matrix")
    if a.rows != b.rows:
        raise ShapeError(f"rat_solve shapes {a.shape} vs {b.shape}")
    return _solve(a, b, "singular pivot at column {}")


def solve_columns(a, b) -> PolyMatrix:
    """Solve the possibly overdetermined exact system a @ x = b.

    a and b are constant PolyMatrix values or lists of int (or
    Fraction) rows.  a must have full column rank (else
    SingularMatrixError); every equation is checked against the
    solution, and InconsistentSystemError is raised if any fails.  Used to extract
    constant right factors from polynomial coefficient systems.
    """
    sa, sb = _shape(a), _shape(b)
    if sa[0] != sb[0]:
        raise ShapeError(f"solve_columns shapes {sa} vs {sb}")
    return _solve(a, b, "column {} has no pivot")
