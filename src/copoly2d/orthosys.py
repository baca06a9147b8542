"""Monic vector orthogonal systems and their gradient stacks.

P_n is the column of n + 1 monic polynomials of degree n (leading block
the identity: entry k is x^(n-k) y^k plus lower degree) orthogonal to
every lower monomial vector: integral(X_j P_n^t rho) = 0 for j < n.
build_monic grows it by the three-term relation, driven by the family's
normalized moment oracle.  Z = (x P_n[0], .., x P_n[n], y P_n[n]) is
monic of degree n + 1, and integral(Z p rho) moves x or y onto p, so Z
is orthogonal to every p of degree below n - 1: P_(n+1) is Z minus its
projections on P_n and P_(n-1) only.  One moment block of P_n against
[X_n | X_(n+1)] gives both, through the coefficient block M_n of the
degree-n part of Z and the Gram block gram(n, 0) = integral(P_n X_n^t
rho), eliminated once into its gram_record; the P_(n-1) projection is
read off that block, because x P_(n-1) and y P_(n-1) are blocks of X_n
plus lower degree.  The entries of [X_n | X_(n+1)] are monomials, so
the block is P_n's numerators times rows of the family's int moment
table (hankel_table), read once per construction, and the step runs on
int rows: each entry of P_(n+1) is one int dict over one denominator,
with no polynomial matrix formed.

The level-m gradient stack of the system is
Q(n, m) = grad Q(n+1, m-1) with Q(n, 0) = P_n^t, a 2^m by (n+m+1)
polynomial matrix of degree n whose rows interleave all m-fold partial
derivatives of the entries of P_{n+m}.  Row r takes dy at the set bits
of r and dx at the others; mixed partials commute, so it depends only
on popcount(r), and Q(n, m) holds m + 1 distinct rows, S(n, m) (q_rows):
row s is dx^(m-s) dy^s P_(n+m)^t.  phi^(x)m is unchanged when the same
permutation of the m tensor slots acts on its rows and its columns, so
the sum of row r of phi^(x)m over the columns of popcount t depends
only on s = popcount(r): it is W_m[s, t] (phi_rows), the z^t
coefficient of (phi11 + phi12 z)^(m-s) (phi21 + phi22 z)^s.  Row r of
the weighted stack phi^(x)m Q(n, m) is therefore row popcount(r) of
R(n, m) = W_m S(n, m) (weighted_rows), and a sum over the 2^m rows is a
sum over the m + 1 distinct ones counted C(m, s) times:
integral(Q^t phi^(x)m Q rho) = integral(S^t B_m R rho) with B_m =
diag(C(m, s)).  So the exact Gram blocks, (b) cross terms, (d)
divergence identities and (e) projections and reconstruction read S,
B_m S (counted_rows) and R, not phi^(x)m or the 2^m-row stacks.  Their
rows are the full stacks' rows, so the integrals read the same moments
and give the same rationals.  The (c) and (d) eigenvalue systems are
checked or solved on S too (characterize.lambda_via_operator), so an
exact run forms q(n, m) at level 0 only, and no Kronecker power of
phi: only numeric mode reads phi_power, weighted and q(n, m) gathered
from S.  The leading coefficients of S (g_lead_rows), built on m + 1
blocks, never 2^m, are what the by-parts operator (byparts) reads for
(b) and (e), and what the paper's symbol route, which decides (c) on
every constructed system (characterize.lambda_via_formula), solves on.

Exact weighted integrals integral(a^t w rho) / mu_00 of two polynomial
matrices are bilinear forms on the moment numerators: with H[alpha,
beta] = mu_(alpha+beta) the moment (Hankel) matrix of the functional,
integral(p q rho) = coef(p)^t H coef(q), so no exact integral forms
the product a^t w.  inner, the level Gram blocks and the check layer's
integrals all go through one kernel, integrate_rows (build_monic, whose
w is the monomial basis, reads the same table directly): several left
factors against one w, each distinct entry of w contracted with the
moments once, each block returned as int rows over one denominator.
It reads each polynomial's stored int numerators and denominator
directly, so no Fraction is built on the way.  The table depends only
on the family, so hankel_table keeps the deepest one built for it, as
characterize.psi_tower keeps the drift tower: the construction, every
contraction and the functional Pearson check
(characterize._functional_pearson) read that one table, each coding
its polynomials with the stride the table comes with, and an exact run
(characterize.verify_all) builds it once, before any work, to every
degree the run reads: a missing moment stops the run there.
inner wraps its one block as a constant matrix; integrate_matrix, which
integrates a formed matrix entrywise, stays as the plain reference.  The
construction and the exact (b) and (e) checks stay on the int rows: an
exact Gram block's one exact form is its gram_record (gram(n, m) is a
view of it), its int rows with their determinant and inverse from one
elimination (matpoly._echelon), so a block read by build_monic, (b)
and three (e) cells is eliminated once.  Above level 0 a block, and (b)'s
cross terms, need no contraction where integration by parts reads them
off level 0 (byparts): gram(n, m) is gram(n + m, 0) times the top layer
T_n of an operator applied m times, and the cross terms are zero.

Numeric mode evaluates polynomial matrices on a quadrature rule's nodes
through one kernel, a whole matrix per call (eval_entries(m, rule),
with the rule's node power tables, QuadRule.powers), reading
each coefficient as the float c / den of its stored numerator and
denominator; eval_product evaluates a product a @ b from the int sums
of the product kernel without forming it.  The values are bit-identical
to summing each entry's terms one at a time in their stored order, so
numeric reports do not depend on how the evaluation is organised.
These numeric functions import numpy where they run; nothing on the
exact path does, so an exact run never loads it.

An OrthoSystem owns one memo for everything derived from it: the
stacks q(n, m) and their distinct, counted and weighted rows, W_m, the
Kronecker powers of the weight matrix and the weighted stacks
phi_power(m) @ q(n, m) (numeric mode only), the exact Gram blocks'
gram_record (a singular block is a record too) and the level Gram
blocks gram(n, m) (the exact view of the record, and per quadrature
rule in numeric mode), the node values of the stacks and of
phi_power(m) per quadrature rule (values, read by the numeric Gram
blocks and cross terms through inner_on), and whatever the checkers
store through cached(key, make) (eigenvalue matrices, the lifted
Pearson verdict per level, the by-parts operator's leading blocks and
top layers).  Each entry is computed on first use and
shared by every check that reads it; exceptions are not stored, so a
failing computation is retried and raises again.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import chain
from math import comb, lcm
from typing import TYPE_CHECKING, NamedTuple

from .basisops import n_rows
from .matpoly import (
    PolyMatrix,
    ShapeError,
    _back_substitute,
    _echelon,
    _free_column,
    _rescaled,
    const_matrix,
    int_matmul,
    kron,
    kron_power,
    matmul_numerators,
    reduce_rows,
    vstack,
)
from .polycore import ZERO, BivariatePoly, from_numerators
from .weights import QuadRule, WeightFamily

if TYPE_CHECKING:
    import numpy as np


class SingularGramError(RuntimeError):
    """The block moment Gram matrix of some degree is singular."""


# ---------------------------------------------------------------------------
# integration


def integrate_poly(p: BivariatePoly, f: WeightFamily) -> Fraction:
    """Exact integral(p rho) / mu_00 through the moment oracle.

    The sum runs on ints: p's stored numerators times each moment's
    numerator, over the LCM of the moment denominators met so far.  One
    Fraction is built at the end, over that LCM times p's denominator.
    """
    num, den = 0, 1
    for (i, j), c in p.num.items():
        mu = f.moment(i, j)
        md = mu.denominator
        if den % md:
            g = lcm(den, md)
            num *= g // den
            den = g
        num += c * mu.numerator * (den // md)
    return Fraction(num, den * p.den)


def integrate_matrix(m: PolyMatrix, f: WeightFamily) -> PolyMatrix:
    """Entrywise exact integration; returns a constant matrix of m's shape."""
    return const_matrix([[integrate_poly(m[i, j], f) for j in range(m.cols)]
                         for i in range(m.rows)], m.cols)


def _block_matrix(rows: list, d: int, cols: int) -> PolyMatrix:
    """The constant matrix of int rows over d, each entry in canonical form."""
    return PolyMatrix(len(rows), cols, [from_numerators({(0, 0): v}, d) if v else ZERO
                                        for row in rows for v in row])


def integrate_rows(mats, w: PolyMatrix, f: WeightFamily) -> list:
    """integral(a^t w rho) / mu_00 for each a in mats, as int rows over one denominator.

    Returns [(rows, d)]: rows[c][j] / d is entry (c, j) of the integral
    of a, reduced by the gcd of d and every entry (reduce_rows), so a
    zero block is all zeros over 1.  Each distinct entry of w (by
    identity; hstack and row_halves pass entries through) is contracted
    with the moments once, over the union of the monomials of the rows
    of the left factors that it meets; each factor's integral is then
    int dot products with those vectors.  The moments come from the
    family's table (hankel_table), asked for to degree deg + 1, deg the
    largest total degree of a product the rows meet, and each
    polynomial is coded with the stride it comes with; a family whose
    kept table is that deep already has no moment read.  Each factor and
    w are read over the LCM of their entries' denominators, straight
    from the stored numerators.
    """
    mats = list(mats)
    for a in mats:
        if a.rows != w.rows:
            raise ShapeError(f"integrate_rows shapes {a.shape} vs {w.shape}")
    das = [lcm(*{p.den for _, _, p in a.nonzeros()}) for a in mats]
    dw = lcm(*{p.den for _, _, p in w.nonzeros()})
    rows = []
    deg = -1
    for r in range(w.rows):
        wr = [(d, p) for d, p in enumerate(w.row_list(r)) if p.num]
        ars = [[(c, p) for c, p in enumerate(a.row_list(r)) if p.num] for a in mats]
        if wr and any(ars):
            rows.append((wr, ars))
            deg = max(deg, max(p.total_degree for ar in ars for _, p in ar)
                      + max(p.total_degree for _, p in wr))
    hank, dm, s = hankel_table(f, deg + 1)
    # id(entry of w) -> [entry, the monomials of every left row it meets]
    need = {}
    coded = []
    for wr, ars in rows:
        ans = [[(c, _coded(p, da, s)) for c, p in ar] for ar, da in zip(ars, das)]
        alphas = {e for an in ans for _, t in an for e, _ in t}
        for _, p in wr:
            got = need.get(id(p))
            if got is None:
                need[id(p)] = [p, alphas]
            elif not alphas <= got[1]:
                got[1] = got[1] | alphas
        coded.append((wr, ans))
    vs = {}
    for key, (p, alphas) in need.items():
        wn = _coded(p, dw, s)
        vs[key] = {e: sum(x * hank[e + b] for b, x in wn) for e in alphas}
    cols = w.cols
    outs = [[0] * (a.cols * cols) for a in mats]
    for wr, ans in coded:
        for d, p in wr:
            v = vs[id(p)]
            for an, out in zip(ans, outs):
                for c, t in an:
                    out[c * cols + d] += sum(x * v[e] for e, x in t)
    return [reduce_rows([out[c * cols:(c + 1) * cols] for c in range(a.cols)], da * dw * dm)
            for a, da, out in zip(mats, das, outs)]


# family -> the deepest int moment table built for it; a family is compared by identity
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def hankel_table(f: WeightFamily, s: int):
    """The family's int moment table, of degree < stride for some stride >= s.

    Returns (hank, dm, stride): hank[i*stride + j] / dm is mu_(i,j) /
    mu_00 for i + j < stride and 0 elsewhere, dm the LCM of the moment
    denominators, so with p and q coded over the stride (_coded)
    integral(p q rho) / mu_00 reads hank[e + b] / dm for the term codes e
    of p and b of q, as long as deg p + deg q < stride.  The table
    depends only on the family, so the deepest one built is kept for it
    and returned to every caller that asks for no deeper one; a caller
    codes its polynomials with the stride returned in the same call,
    never with s.  A deeper request builds the table at stride s,
    reading the moments by ascending total degree, then ascending x
    power (s = 0 reads none); a build that raises keeps the old table.
    """
    known = _TABLES.get(f)
    if known is not None and known[2] >= s:
        return known
    mus = {i * s + t - i: f.moment(i, t - i) for t in range(s) for i in range(t + 1)}
    dm = lcm(*(mu.denominator for mu in mus.values()))
    hank = [0] * (s * s)
    for code, mu in mus.items():
        hank[code] = mu.numerator * (dm // mu.denominator)
    table = _TABLES[f] = (tuple(hank), dm, s)
    return table


def _coded(p: BivariatePoly, d: int, s: int) -> list:
    """p's terms as (i*s + j, numerator over d) pairs; d is a multiple of p.den."""
    return [(i * s + j, c) for (i, j), c in _rescaled(p, d).items()]


# floats per scratch array of _eval_terms: rows are evaluated in blocks
# of about this size, so its temporaries stay small on large matrices
_EVAL_BLOCK = 1 << 14


def _eval_terms(terms, rule: QuadRule) -> np.ndarray:
    """Float values of term-dict polynomials on the rule's nodes, shaped (len(terms), nodes).

    terms[r] maps (i, j) to a coefficient that float() reads exactly
    as the evaluation should (a Fraction, or a float already rounded).
    Each nonempty row is bit-identical to the per-term loop
    ``total = 0.0 * (x + y); total = total + float(c) * x**i * y**j``
    over its terms in dict order, and an empty row is +0.0.  Both the
    order and the start are part of the output: float addition is not
    associative, so another order moves the last bits of a residual,
    and 0.0 * (x + y) is -0.0 where x + y < 0, so at a node where every
    term is -0.0 the value takes the start's sign.  The loop runs over
    the term slot k instead of over terms: step k multiplies every
    row's k-th coefficient by x**i, then by y**j, and adds the result
    only to the rows that have a k-th term (a masked add; padding with
    zero terms would turn -0.0 into +0.0).  The node powers are the
    rule's tables (QuadRule.powers).
    """
    import numpy as np

    q = len(rule.nodes_x)
    out = np.zeros((len(terms), q))
    start = 0.0 * (rule.nodes_x + rule.nodes_y)
    step = max(1, _EVAL_BLOCK // max(q, 1))
    for r0 in range(0, len(terms), step):
        block = terms[r0:r0 + step]
        lens = np.fromiter(map(len, block), np.intp, len(block))
        total = int(lens.sum())
        if not total:
            continue
        exps = np.fromiter(chain.from_iterable(chain.from_iterable(block)),
                           np.intp, 2 * total).reshape(total, 2)
        # term t of the flat list is slot t - start(row) of its row
        owner = np.repeat(np.arange(len(block)), lens)
        slot = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        cs = np.zeros((int(lens.max()), len(block)))
        cs[slot, owner] = np.fromiter(
            map(float, chain.from_iterable(map(dict.values, block))), float, total)
        ii = np.zeros(cs.shape, np.intp)
        ii[slot, owner] = exps[:, 0]
        jj = np.zeros(cs.shape, np.intp)
        jj[slot, owner] = exps[:, 1]
        xpow, ypow = rule.powers(int(exps.max()))
        acc = out[r0:r0 + step]
        acc[lens > 0] = start
        t = np.empty_like(acc)
        u = np.empty_like(acc)
        for k in range(len(cs)):
            np.take(xpow, ii[k], axis=0, out=t)
            t *= cs[k][:, None]
            np.take(ypow, jj[k], axis=0, out=u)
            t *= u
            np.add(acc, t, out=acc, where=(lens > k)[:, None])
    return out


def eval_entries(m: PolyMatrix, rule: QuadRule) -> np.ndarray:
    """Float evaluation on the rule's nodes, shaped (rows, cols, nodes).

    A zero entry is +0.0.  A nonzero one is the sum of its terms
    c * x**i * y**j in the entry's dict order, started from
    0.0 * (x + y): the order and the start are part of the output and
    the kernel keeps both (see _eval_terms).  Each coefficient is read
    as the float c / den of its stored numerator and denominator: int
    true division is correctly rounded, so that is float(Fraction(c,
    den)), and no Fraction is built.
    """
    vals = _eval_terms([_floats(p.num, p.den) for i in range(m.rows)
                        for p in m.row_list(i)], rule)
    return vals.reshape(m.rows, m.cols, len(rule.nodes_x))


def eval_product(a: PolyMatrix, b: PolyMatrix, rule: QuadRule) -> np.ndarray:
    """eval_entries(a @ b, rule) without forming a @ b.

    Runs the product kernel (matmul_numerators) and reads each int sum c
    over the denominator d as the float c / d, dropping the sums that
    cancelled and keeping the kernel's term order, which is the order
    of a @ b.  Int true division is correctly rounded, so c / d is
    float(Fraction(c, d)) and the values are bit-identical to
    evaluating a @ b; no Fraction is built.
    """
    acc, d = matmul_numerators(a, b)
    terms = [_floats(t, d) if t else {} for t in acc]
    return _eval_terms(terms, rule).reshape(a.rows, b.cols, len(rule.nodes_x))


def _floats(num: dict, d: int) -> dict:
    """{e: c / d} over the nonzero int numerators c of num, in num's order."""
    return {e: c / d for e, c in num.items() if c}


def integrate_matrix_numeric(m: PolyMatrix, f: WeightFamily, rule: QuadRule) -> np.ndarray:
    """Entrywise quadrature of a formed matrix on the rule; a float array of m's shape."""
    import numpy as np

    me = eval_entries(m, rule)
    return np.einsum("rcq,q->rc", me, rule.weights)


def _quad_form(ae, pe, be, weights) -> np.ndarray:
    """sum_q a(q)^t phi(q) b(q) w_q from node values: the numeric inner product."""
    import numpy as np

    return np.einsum("rcq,rsq,sdq,q->cd", ae, pe, be, weights)


# ---------------------------------------------------------------------------
# construction


class OrthoSystem:
    """Monic orthogonal columns P_0 .. P_nmax plus memoised derived data."""

    def __init__(self, family: WeightFamily, pvecs):
        self.family = family
        self._p = list(pvecs)
        self._memo = {}
        # True once build_monic has built the columns from the family's moments
        self.constructed = False

    @property
    def nmax(self) -> int:
        return len(self._p) - 1

    def cached(self, key, make):
        """The memo entry under key, computed by make() on first use."""
        got = self._memo.get(key)
        if got is None:
            got = make()
            self._memo[key] = got
        return got

    def p(self, n: int) -> PolyMatrix:
        """The degree-n monic column, shape (n+1, 1)."""
        if not 0 <= n <= self.nmax:
            raise ValueError(f"P_{n} is outside 0..nmax {self.nmax}")
        return self._p[n]

    def _check_stack(self, n: int, m: int) -> None:
        if n < 0 or m < 0:
            raise ValueError("indices must be nonnegative")
        if n + m > self.nmax:
            raise ValueError(f"q({n},{m}) needs degree {n + m} > nmax {self.nmax}")

    def q(self, n: int, m: int) -> PolyMatrix:
        """Level-m gradient stack of degree n, shape (2^m, n+m+1).

        Row r is row popcount(r) of q_rows(n, m); above level 0 only numeric mode reads it.
        """
        self._check_stack(n, m)

        def make():
            if m == 0:
                return self._p[n].transpose()
            s = self.q_rows(n, m)
            return PolyMatrix.from_rows([s.row_list(r) for r in _popcounts(m)], s.cols)
        return self.cached(("q", n, m), make)

    def phi_power(self, m: int) -> PolyMatrix:
        """kron_power(phi, m), built as kron(phi, phi_power(m - 1)).

        The same iteration as kron_power, so the entries and their term
        order are the same, but each lower power comes from the memo.
        """
        def make():
            if m < 0:
                raise ValueError("negative Kronecker power")
            if m == 0:
                return PolyMatrix.identity(1)
            return kron(self.family.phi, self.phi_power(m - 1))
        return self.cached(("phi_power", m), make)

    def weighted(self, n: int, m: int) -> PolyMatrix:
        """phi_power(m) @ q(n, m): the stack under the level-m weight matrix.

        Only numeric (e) reads it; the exact path reads weighted_rows.
        """
        return self.cached(("weighted", n, m), lambda: self.phi_power(m) @ self.q(n, m))

    def q_rows(self, n: int, m: int) -> PolyMatrix:
        """S(n, m), the m + 1 distinct rows of q(n, m), shape (m+1, n+m+1).

        Row s is dx^(m-s) dy^s P_(n+m)^t, and row r of q(n, m) is row
        popcount(r): dx of every row of S(n+1, m-1), then dy of its last.
        """
        self._check_stack(n, m)
        if m == 0:
            return self.q(n, 0)

        def make():
            prev = self.q_rows(n + 1, m - 1)
            return vstack(prev.dx(), PolyMatrix.row(prev.row_list(m - 1)).dy())
        return self.cached(("q_rows", n, m), make)

    def phi_rows(self, m: int) -> PolyMatrix:
        """W_m, phi_power(m) summed over the columns of each popcount.

        W_m[s, t] is the z^t coefficient of (phi11 + phi12 z)^(m-s)
        (phi21 + phi22 z)^s: the row of phi_power(m) for an index with s
        y slots, summed over the columns with t y slots.  Built from
        W_(m-1) by one more factor per row, never forming phi_power(m).
        """
        def make():
            if m < 0:
                raise ValueError("negative Kronecker power")
            if m == 0:
                return PolyMatrix.identity(1)
            prev = self.phi_rows(m - 1)
            (a, b), (c, d) = (self.family.phi.row_list(i) for i in (0, 1))
            rows = [_times_linear(prev.row_list(s), a, b) for s in range(m)]
            return PolyMatrix.from_rows(rows + [_times_linear(prev.row_list(m - 1), c, d)])
        return self.cached(("phi_rows", m), make)

    def weighted_rows(self, n: int, m: int) -> PolyMatrix:
        """R(n, m) = phi_rows(m) @ q_rows(n, m): row r of weighted(n, m) is row popcount(r)."""
        return self.cached(("weighted_rows", n, m),
                           lambda: self.phi_rows(m) @ self.q_rows(n, m))

    def counted_rows(self, n: int, m: int) -> PolyMatrix:
        """B_m q_rows(n, m): row s times C(m, s), the number of rows of q(n, m) it stands for."""
        def make():
            s = self.q_rows(n, m)
            return PolyMatrix(s.rows, s.cols, [p * comb(m, r) for r in range(s.rows)
                                               for p in s.row_list(r)])
        return self.cached(("counted_rows", n, m), make)

    def values(self, n: int | None, m: int, rule: QuadRule) -> np.ndarray:
        """q(n, m), or phi_power(m) when n is None, evaluated on the rule's nodes.

        The read-only eval_entries array, kept under the rule object; a
        stack's values are those of q_rows(n, m), gathered by popcount.
        """
        def make():
            mat = self.phi_power(m) if n is None else self.q_rows(n, m)
            got = eval_entries(mat, rule)
            got = got if n is None else got[_popcounts(m)]
            got.setflags(write=False)
            return got
        return self.cached(("values", n, m, rule), make)

    def inner_on(self, k: int, n: int, m: int, rule: QuadRule) -> np.ndarray:
        """inner(q(k, m), q(n, m), m, family, "numeric", rule) from memoised values.

        The same einsum over the same node values as inner, so the
        block is bit-identical, but phi_power(m) and each stack are
        evaluated once per rule.
        """
        return _quad_form(self.values(k, m, rule), self.values(None, m, rule),
                          self.values(n, m, rule), rule.weights)

    def gram(self, n: int, m: int, rule: QuadRule | None = None):
        """inner(q(n, m), q(n, m)): the level-m Gram block of degree n.

        Exact without a rule: the constant matrix of the block's
        gram_record, its one exact form.  With a rule, the read-only
        float block on that rule, kept under the rule object itself, so
        another rule never hits.
        At level 0 this is integral(P_n P_n^t rho) / mu_00, which equals
        integral(X_n P_n^t rho) / mu_00 because P_n - X_n has lower degree.
        """
        if rule is None:
            def make():
                rec = self.gram_record(n, m)
                return _block_matrix(rec.rows, rec.den, len(rec.rows))
            return self.cached(("gram", n, m), make)

        def make():
            got = self.inner_on(n, n, m, rule)
            got.setflags(write=False)
            return got
        return self.cached(("gram", n, m, rule), make)

    def gram_record(self, n: int, m: int) -> GramRecord:
        """The exact gram(n, m) as int rows, with its determinant and inverse.

        The block's one exact form, from one elimination (_gram_record)
        of its int rows: build_monic stores the level-0 blocks below
        nmax.  Above level 0, where the by-parts guard holds (_by_parts),
        the block is read off level 0 with no moment contraction:

            gram(n, m) = (-1)^m gram(n + m, 0) T_n,

        T_n the top layer of the by-parts operator D applied m times to
        q(n, m) (byparts._t_block, which proves it).  gram(N, 0), N =
        nmax, which (e)'s by-parts route reads at its corner where deg
        phi = 2, is read off the moment table as build_monic reads its
        blocks (_moment_rows).
        Any other block is integrated here, one moment contraction, unless
        cross_rows already integrated it.  Every exact reader, gram included, reads this
        record, so no block is eliminated twice; a singular block is a
        record with inv None.  A level-m record is built only when read:
        by exact gram(n, m), check_e's contraction, (e)'s by-parts corner
        where deg phi < 2 (gram(n + 1, m), n + m + 1 = N, integrated here)
        or check_b where the guard fails; where it holds check_b reads T_n
        (det gram(n, m) != 0 iff T_n is nonsingular) and (e)'s by-parts
        route reads T_k.
        """
        def make():
            if self._by_parts(n, m):
                from .byparts import _t_block  # byparts imports this module
                t, dt, _ = _t_block(self, n, m)
                low = self.gram_record(n + m, 0)
                sign = (-1) ** m
                return _gram_record(*reduce_rows(
                    int_matmul(low.rows, [[sign * v for v in row] for row in t], len(t)),
                    low.den * dt))
            if not m and self.constructed:
                # P_n is orthogonal to every lower degree, so gram(n, 0) =
                # integral(P_n X_n^t rho), read off the table as build_monic does
                col = self._p[n]
                return _gram_record(*_moment_rows([col[i, 0] for i in range(n + 1)], (n,),
                                                  hankel_table(self.family, 2 * n + 1)))
            [(rows, d)] = integrate_rows([self.counted_rows(n, m)],
                                         self.weighted_rows(n, m), self.family)
            return _gram_record(rows, d)
        return self.cached(("gram record", n, m), make)

    def cross_rows(self, n: int, m: int) -> list:
        """integrate_rows(counted_rows(k, m), weighted_rows(n, m)) for k < n.

        The (b) cross terms of level m.  Where gram_record's guard holds
        (_by_parts) they are zero blocks, with no contraction: moving the
        m derivatives off q(n, m) pairs P_(n+m) with D^m q(k, m), of
        degree k + m < n + m (byparts._t_block).
        Elsewhere, while the memo has no gram_record of gram(n, m), the
        same call integrates it as the block k = n, one moment contraction
        for both, and keeps its record.
        """
        if self._by_parts(n, m):
            return [([[0] * (n + m + 1) for _ in range(k + m + 1)], 1) for k in range(n)]
        with_gram = ("gram record", n, m) not in self._memo
        blocks = integrate_rows([self.counted_rows(k, m) for k in range(n + with_gram)],
                                self.weighted_rows(n, m), self.family)
        if with_gram:
            self._memo[("gram record", n, m)] = _gram_record(*blocks.pop())
        return blocks

    def _by_parts(self, n: int, m: int) -> bool:
        """Whether gram(n, m) and its cross terms are read off level 0.

        m >= 1, n + m <= N - 1 and the by-parts guard (byparts._by_parts)
        for m steps onto P_(n+m).
        """
        if not (m and n + m < self.nmax):
            return False
        from .byparts import _by_parts  # byparts imports this module
        return _by_parts(self, n + m, m)


class GramRecord(NamedTuple):
    """An exact Gram block rows / den, det its determinant.

    inv holds the int rows of its inverse over inv_den > 0.  A singular
    block has inv None, and free is then its first column without a
    pivot (matpoly._free_column).
    """

    rows: list
    den: int
    det: Fraction
    inv: list | None
    inv_den: int
    free: int | None = None


def _gram_record(rows: list, d: int) -> GramRecord:
    """The GramRecord of the square block rows / d, from one _echelon of [rows | I].

    With p the last pivot, p times the inverse of rows is integral
    (_back_substitute) and det(rows) = sign p, so the block rows / d has
    determinant sign p / d^k and inverse d (p rows^-1) / p, stored with
    the gcd of its entries and denominator divided out.
    """
    k = len(rows)
    w, pivots, sign = _echelon([row + [int(i == j) for j in range(k)]
                                for i, row in enumerate(rows)], k)
    if len(pivots) < k:
        return GramRecord(rows, d, Fraction(0), None, 1, _free_column(pivots))
    x, p = _back_substitute(w, k, k)
    sp = -1 if p < 0 else 1
    return GramRecord(rows, d, Fraction(sign * p, d ** k),
                      *reduce_rows([[sp * d * v for v in row] for row in x], sp * p))


def _popcounts(m: int) -> list:
    """popcount(r) for each row r of a level-m stack: the q_rows row it repeats."""
    return [bin(r).count("1") for r in range(2 ** m)]


def _times_linear(coeffs, a: BivariatePoly, b: BivariatePoly) -> list:
    """The z coefficients of (a + b z) * sum_t coeffs[t] z^t."""
    lo, hi = [ZERO, *coeffs], [*coeffs, ZERO]
    return [a * h + b * l for l, h in zip(lo, hi)]


def row_halves(s: PolyMatrix):
    """The distinct rows of a stack's top and bottom halves, from the stack's own s.

    Row r of a level-j stack is s[popcount r]; the top half's rows have
    the leading bit clear and the bottom half's have it set, so their
    distinct rows are s[0 .. j-1] and s[1 .. j].
    """
    rows = [s.row_list(r) for r in range(s.rows)]
    return (PolyMatrix.from_rows(rows[:-1], s.cols), PolyMatrix.from_rows(rows[1:], s.cols))


def _moment_rows(polys: list, degrees, table):
    """integral(p X_k^t rho) / mu_00 for each p in polys, the degrees k side by side.

    Int rows over one denominator (reduce_rows).  The entries of X_k are
    monomials, so entry (c, beta) is sum_e p_e H[e + beta], p the
    numerators of polys[c] over their LCM, read off table, a
    hankel_table result (hank, dm, stride) deep enough for every product.
    """
    hank, dm, s = table
    da = lcm(*(p.den for p in polys))
    betas = [(k - c) * s + c for k in degrees for c in range(k + 1)]
    return reduce_rows([[sum(x * hank[e + b] for e, x in t) for b in betas]
                        for t in (_coded(p, da, s) for p in polys)], da * dm)


def build_monic(f: WeightFamily, nmax: int) -> OrthoSystem:
    """Construct P_0 .. P_nmax exactly by the three-term relation.

    Z = (x P_n[0], .., x P_n[n], y P_n[n]) is monic with leading block
    X_(n+1), and integral(Z p rho) = integral(P_n (x p or y p) rho) = 0
    for deg p < n - 1, so of the projections of Z on P_0 .. P_n only
    those on P_n and P_(n-1) survive:

        P_(n+1)^t = Z^t - q(n, 0) B_n - q(n-1, 0) B_(n-1),
        B_n = G_n^-1 integral(P_n Z^t rho),
        B_(n-1) = G_(n-1)^-1 integral(P_(n-1) Z^t rho).

    One moment block per degree gives the int rows of G_n =
    integral(P_n X_n^t rho) and S_n = integral(P_n X_(n+1)^t rho).  The
    entries of [X_n | X_(n+1)] are single monomials x^a y^b, and
    integral(p x^a y^b rho) / mu_00 = sum_e p_e mu_(e + (a, b)): with w the
    monomial basis the contraction is a row of the moment (Hankel)
    matrix, so entry (c, beta) of the block is sum_e p_e H[e + beta], p
    the numerators of P_n[c] over the LCM of P_n's denominators, read
    off the family's int moment table (hankel_table), fetched once,
    before the first degree, to degree 2 nmax, with every P_n coded in
    the stride it comes with; no per-entry contraction of w is needed.
    G_n is the level Gram block gram(n, 0) = integral(P_n P_n^t rho),
    since P_n - X_n has lower degree; its one elimination is the
    gram_record kept in the memo.  Writing the degree-n part of Z^t as X_n^t M_n, M_n read off
    P_n's degree-(n - 1) numerators, integral(P_n Z^t rho) = S_n + G_n
    M_n, so B_n = G_n^-1 S_n + M_n.  integral(P_(n-1) Z^t rho) needs no
    integral: x P_(n-1)[i] and y P_(n-1)[i] are X_n[i] and X_n[i+1] plus
    lower degree, so its columns j <= n are rows 0 .. n-1 of G_n
    (symmetric) and its column n + 1 is G_n[1 .. n, n].  Both solves are
    int products with the inverses in the records of G_n and G_(n-1),
    and B_n and B_(n-1) stay int rows.  Each entry of P_(n+1) is then
    one int dict over one denominator, Z's numerators minus those of
    P_n B_n and P_(n-1) B_(n-1), normalised once (from_numerators); no
    polynomial matrix is multiplied.  The moments read are those of
    degree <= 2 nmax - 1, each once, and none where the family already
    holds a table that deep.  The moment matrix has det M_(n-1) = prod
    det G_k, so SingularGramError, naming the first column of M_n
    without a pivot, is the exact signal that the moment data is not a
    quasi-definite functional.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    sys = OrthoSystem(f, [PolyMatrix.column([1])])
    pn = [sys.p(0)[0, 0]]
    hank, dm, s = hankel_table(f, 2 * nmax)
    for n in range(nmax):
        k = n + 1
        da = lcm(*(p.den for p in pn))
        nums = [_rescaled(p, da) for p in pn]
        block, d = _moment_rows(pn, (n, k), (hank, dm, s))  # [G_n | S_n] over d
        rec = _gram_record(*reduce_rows([row[:k] for row in block], d))
        if rec.inv is None:
            col = n * k // 2 + rec.free  # the columns of G_0 .. G_(n-1) come first
            raise SingularGramError(f"degree {k}: singular pivot at column {col}")
        sys._memo[("gram record", n, 0)] = rec
        sol = int_matmul(rec.inv, [row[k:] for row in block], k + 1)
        ds = rec.inv_den * d
        db = lcm(ds, da)
        # B_n over db; M_n[r, j] is the coefficient of X_n[r] in Z[j]
        mn = [[p.get((n - r - 1, r), 0) for p in nums] + [nums[n].get((n - r, r - 1), 0)]
              for r in range(k)]
        bn = [[u * (db // ds) + v * (db // da) for u, v in zip(srow, mrow)]
              for srow, mrow in zip(sol, mn)]
        # (numerators of P_j over their LCM, int rows of B_j, denominator of their product)
        parts = [(nums, bn, da * db)]
        if n:
            lnums, dl, lrec = low
            g = rec.rows
            parts.append((lnums, int_matmul(lrec.inv, [g[r][:k] + [g[r + 1][n]] for r in range(n)],
                                            k + 1), dl * lrec.inv_den * rec.den))
        den = lcm(*(pd for _, _, pd in parts))
        # exponent -> the k + 1 numerators over den of P_(n+1)^t at it
        terms = {}
        for ps, bs, pd in parts:
            sc = den // pd
            for p, brow in zip(ps, bs):
                brow = [-sc * v for v in brow]
                for e, x in p.items():
                    row = terms.get(e)
                    terms[e] = ([x * v for v in brow] if row is None
                                else [u + x * v for u, v in zip(row, brow)])
        sc = den // da
        for j, p in enumerate(nums + [nums[n]]):  # Z[j] is x P_n[j], and y P_n[n] at j = k
            dx = int(j < k)
            for (i, h), x in p.items():
                terms.setdefault((i + dx, h + 1 - dx), [0] * (k + 1))[j] += x * sc
        # leading monomial first, then the lower terms by ascending degree
        # and falling x power: numeric mode sums terms in this order
        order = sorted(terms, key=lambda e: (sum(e) < k, sum(e), e[1]))
        low = nums, da, rec  # P_(n-1)'s numerators, their LCM and G_(n-1) at the next degree
        pn = [from_numerators({e: terms[e][j] for e in order if terms[e][j]}, den)
              for j in range(k + 1)]
        sys._p.append(PolyMatrix.column(pn))
    sys.constructed = True
    return sys


# ---------------------------------------------------------------------------
# leading coefficients


def g_lead_rows(n: int, m: int) -> list:
    """The leading blocks of S(n, m) (q_rows), as (m + 1)(n + 1) int rows.

    Block s (rows s(n + 1) .. s(n + 1) + n) is the constant matrix G_s
    with dx^(m-s) dy^s P_(n+m)^t = X_n^t G_s + lower degree: monicity
    gives the identity at m = 0, and a derivative band N(k, h) (n_rows)
    maps X_k's coefficients to X_(k-1)'s, so G_s = N(n+1, 1) G'_s for
    s < m and G_m = N(n+1, 2) G'_(m-1), G' the blocks at (n + 1, m - 1).
    These are row blocks 2^s - 1 of the leading block of the 2^m-row
    stack Q(n, m), whose row r takes dy at the set bits of r.  Its other
    row blocks repeat them by popcount because the bands commute,
    N(k, 1) N(k+1, 2) = N(k, 2) N(k+1, 1): dx dy = dy dx on X_(k+1).  A
    wrong band that broke this would also break prop1's derivative
    identities (basisops.identity_suite), so the 2^m blocks are never
    built.  The by-parts operator reads them through its own memo on the
    system (byparts._g_lead), which runs the same recursion one step at
    a time (_g_lead_step).
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if m == 0:
        return [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    return _g_lead_step(g_lead_rows(n + 1, m - 1), n, m)


def _g_lead_step(prev: list, n: int, m: int) -> list:
    """g_lead_rows(n, m), m >= 1, from prev = g_lead_rows(n + 1, m - 1)."""
    b, cols = n + 2, n + m + 1
    dx, dy = n_rows(n + 1, 1), n_rows(n + 1, 2)
    out = []
    for s in range(m):
        out += int_matmul(dx, prev[s * b:(s + 1) * b], cols)
    return out + int_matmul(dy, prev[(m - 1) * b:], cols)


# ---------------------------------------------------------------------------
# weighted inner products


def inner(a: PolyMatrix, b: PolyMatrix, m: int, f: WeightFamily,
          mode: str = "exact", rule: QuadRule | None = None):
    """integral(a^t phi_kron_m b rho) / mu_00.

    Exact mode forms w = phi_kron_m @ b once and returns the bilinear
    form coef(a)^t H coef(w) on the moment numerators (one block of
    integrate_rows), a constant PolyMatrix.  Numeric
    mode evaluates a, phi_kron_m and b on the nodes of the given rule
    and returns a float array.
    """
    if a.rows != 2 ** m or b.rows != 2 ** m:
        raise ValueError(f"inner at level {m} needs 2^{m} rows")
    phim = kron_power(f.phi, m)
    if mode == "exact":
        w = phim @ b
        [(rows, d)] = integrate_rows([a], w, f)
        return _block_matrix(rows, d, w.cols)
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    if rule is None:
        raise ValueError("numeric mode needs a quadrature rule")
    return _quad_form(eval_entries(a, rule), eval_entries(phim, rule),
                      eval_entries(b, rule), rule.weights)
