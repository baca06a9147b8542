"""The by-parts operator and its drift tower: (b), (e) and level-0 Lambda read off level 0.

The paper proves Pearson => (b) => (c), (e) by integrating by parts,
and this module runs that chain as the exact decision procedure.  Write
<a, b>_j = integral(a^t Phi_j b rho) / mu_00 for level-j vectors (2^j
rows), Phi_j = phi^(x)j with the newest slot the outer block index, so
b has halves b_1 and b_2.  The operator

    D b = sum_t (Psi_t^(j-1) b_t + sum_i phi_it d_i b_t),

Psi^(j-1) the drift tower's level (psi_tower), maps level j to level j
- 1, and <grad A, b>_j = -<A, D b>_(j-1) wherever the guard
(_by_parts) holds.  D raises the degree by at most one, so the
P-expansion of D^m b that orthogonality reads is its top homogeneous
layer (_d_top): a level-m Gram block is gram(k + m, 0) times T_k
(_t_block), every cross term is zero, and (e) reads its Gram verdicts,
its reconstruction and its rank off T_k, phi's curl symbol and L_i
(_e_by_parts), with no moment contraction above level 0 but one: at
the corner (nmax, mmax) where deg phi < 2, stack nmax + 1's Gram
verdict is its direct level-mmax record.  D grad = op, so one D step
on the leading block of q(n - 1, m + 1) is the top layer of op_m(q(n,
m)) (_op_top), the one symbol (c) solves on
(characterize.lambda_via_formula); at m = 1 T_k is -Lambda(k + 1, 0).
The layers are int rows read off g_lead_rows, built once per system
(_g_lead), and the tower's linear class sums (PsiLevel) and phi's
quadratic part (PsiTower.quad), built once per family; the curl symbol
reads phi's first derivatives alone, so no polynomial matrix is formed.
Hand-built systems, numeric mode and every cell the guard refuses keep
the contraction (orthosys.integrate_rows).  This module alone keeps the
tower and the lifted Pearson verdict (level_pearson_check) and decides
the guard, and characterize's checkers read them here; it imports
nothing from characterize, and orthosys never imports it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .basisops import n_rows
from .matpoly import PolyMatrix, _echelon
from .orthosys import OrthoSystem, _coded, _g_lead_step, g_lead_rows, hankel_table
from .polycore import ZERO, from_numerators
from .weights import WeightFamily, check_pearson, check_phi_conditions, grad_cols


@dataclass(frozen=True)
class PsiLevel:
    """Level m of the drift tower: the popcount class sums of psi_1 and psi_2.

    (c) and (d) read only row 2^s - 1 of each 2^m x 2^m drift matrix,
    summed over the columns of each popcount t: the (m+1) x (m+1) class
    sums Psi~_i[s, t], held once in class_sums = ((rows of psi1, rows of
    psi2), d).  Rows 3s, 3s + 1 and 3s + 2 hold the x, y and constant
    coefficients of row s, ints over the tower denominator d (the LCM of
    the denominators of phi, psi1 and psi2); D's top layer (_d_top)
    reads their linear part, and the coefficient solve builds their
    second order operator (_level_operator).  zero_order holds the class
    sums C~_m of the zero-order term that differentiating the level-0
    equation m times produces, C_0 = 0 and C_m = I_2 (x) C_(m-1) + [d_k
    Psi_i^(m-1)]_(k,i) (outer block index k the newest derivative), as
    (m+1) x (m+1) int rows over the tower denominator
    (_next_zero_order); zero_order_scalar reads c_m off them where C~_m
    = c_m I (characterize._lambda).

    The tower is psi_i^(m) = I_2 (x) psi_i^(m-1) + G (x) I_h, h =
    2^(m-1), G = grad(column i of phi), so with e_t the t-th unit row
    (_next_sums): for s < m, row s is row s of level m - 1 plus G[0][0]
    e_s + G[0][1] e_(s+1); row m is row m - 1 of level m - 1 shifted one
    column right, plus G[1][0] e_(m-1) + G[1][1] e_m.  This holds as row
    2^s - 1 of level m is row (a, r) of the doubled matrix, a = [s = m],
    r = 2^(s-a) - 1.  Block a moves that row's columns by a h, which adds
    a to their popcount; increment slot (a, b) lands at column b h + r,
    whose popcount is b + s - a.
    """

    class_sums: tuple
    zero_order: list

    def zero_order_scalar(self):
        """c_m as a Fraction where C~_m = c_m I, else None."""
        rows, d = self.zero_order, self.class_sums[1]
        c = rows[0][0]
        if any(v != (s == t) * c for s, row in enumerate(rows) for t, v in enumerate(row)):
            return None
        return Fraction(c, d)


@dataclass(frozen=True)
class PsiTower:
    """The drift tower's levels 0 .. depth, phi's quadratic part and lemma2's verdict.

    levels[m] is level m (PsiLevel), each built once per family
    (psi_tower); quad[i][t] holds the x^2, xy and y^2 coefficients of
    phi[min(i, t), max(i, t)], ints over the tower denominator, which D's
    top layer (_d_top) and lemma2's closed form (_increments) read: both
    off-diagonal entries read phi[0, 1], as _level_operator does, so
    _op_top is op_m's top layer on any phi; closed_form_ok is lemma2 at every level m >= 1 (True at depth 0).
    """

    levels: tuple
    quad: list
    closed_form_ok: bool

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, m: int) -> PsiLevel:
        return self.levels[m]


def _linear_ints(p, d: int) -> tuple:
    """The x, y and constant coefficients of p, of degree at most one, as ints over d."""
    if p.total_degree > 1:
        raise ValueError("drift entry of degree above one")
    return tuple(p.num.get(e, 0) * (d // p.den) for e in ((1, 0), (0, 1), (0, 0)))


def _next_sums(prev: list, inc, m: int) -> list:
    """Level m's class sum rows of one drift matrix from level m - 1's (PsiLevel).

    inc[a][b] holds the x, y and constant ints of block (a, b) of the
    2 x 2 increment.
    """
    out = []
    for s in range(m + 1):
        a = int(s == m)
        for k in range(3):
            row = [0] + prev[3 * (s - 1) + k] if a else prev[3 * s + k] + [0]
            for b in (0, 1):
                row[s - a + b] += inc[a][b][k]
            out.append(row)
    return out


def _next_zero_order(prev: list, sums: tuple, m: int) -> list:
    """Level m's class sums of C_m from level m - 1's C~ and drift class sums (PsiLevel).

    With the row and column bookkeeping of _next_sums, block (a, a) of
    I_2 (x) C_(m-1) gives row s, a = [s = m], row s - a of C~_(m-1)
    moved a columns right, and block (a, b) = d_a Psi_b^(m-1) gives the
    x_a coefficients of row s - a of Psi~_b^(m-1) moved b columns right.
    """
    out = []
    for s in range(m + 1):
        a = int(s == m)
        row = [0] + prev[s - 1] if a else prev[s] + [0]
        for b in (0, 1):
            for t, v in enumerate(sums[b][3 * (s - a) + a]):
                row[t + b] += v
        out.append(row)
    return out


def _increments(f: WeightFamily, d: int, quad: list):
    """The 2 x 2 increments of psi_1 and psi_2 by the recurrence and by the closed form.

    (grad, closed): grad[i][a][b] holds the x, y and constant ints over d
    of d_a phi[b, i], entry (a, b) of grad(column i of phi); closed[i][a][b]
    the same ints as N(2, a + 1) times the quadratic coefficient column
    quad[i][b] (PsiTower) of phi[min(i, b), max(i, b)] and its x_a coefficient.
    """
    grads = (grad_cols(f.phi[0, i], f.phi[1, i]) for i in (0, 1))
    grad = [[[_linear_ints(g[a, b], d) for b in (0, 1)] for a in (0, 1)] for g in grads]
    band = [n_rows(2, h) for h in (1, 2)]
    closed = [[[(*(sum(c * q for c, q in zip(row, quad[i][b])) for row in band[a]),
                 p.num.get(e, 0) * (d // p.den)) for b, p in enumerate((f.phi[0, i], f.phi[i, 1]))]
               for a, e in enumerate(((1, 0), (0, 1)))] for i in (0, 1)]
    return grad, closed


def _level_operator(f: WeightFamily, class_sums, m: int) -> PolyMatrix:
    """The level-m operator on distinct rows, an (m+1) x (2m+5) polynomial matrix.

    op_m = phi11 dxx + 2 phi12 dxy + phi22 dyy + psi1 dx + psi2 dy maps
    Q = q(n, m) to an image whose row r depends only on popcount(r)
    (characterize.lambda_via_operator, whose solve alone builds it).  For
    S = q_rows(n, m), rows s, s + 1 and s + 2 of q_rows(n - 2, m + 2) are
    row s of S_xx, S_xy and S_yy, and rows t and t + 1 of q_rows(n - 1,
    m + 1) are row t of S_x and S_y.
    Row r of psi_i Q_x is sum_c psi_i[r, c] S_x[popcount c], so with
    Psi_i[s, t] the level's class sums (PsiLevel), row 2^s - 1 of op_m(Q)
    is row s of this matrix times [q_rows(n - 2, m + 2); q_rows(n - 1,
    m + 1)]: phi11, 2 phi12 and phi22 in columns s, s + 1 and s + 2, and
    Psi_1[s, t] + Psi_2[s, t - 1] in column m + 3 + t.
    """
    ds, d = class_sums
    rows = []
    for s in range(m + 1):
        row = [ZERO] * (m + 3)
        row[s:s + 3] = f.phi[0, 0], f.phi[0, 1] * 2, f.phi[1, 1]
        sums = [[u + v for u, v in zip(r1 + [0], [0] + r2)]
                for r1, r2 in zip(ds[0][3 * s:3 * s + 3], ds[1][3 * s:3 * s + 3])]
        rows.append(row + [from_numerators({(1, 0): x, (0, 1): y, (0, 0): c}, d)
                           for x, y, c in zip(*sums)])
    return PolyMatrix.from_rows(rows)


# family -> the deepest drift tower built for it; a family is compared by identity
_TOWERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def psi_tower(f: WeightFamily, mmax: int) -> PsiTower:
    """Drift matrices for every stack level 0 .. mmax, or deeper.

    Every level is the class sums of the doubling recurrence psi_i ->
    I_2 (x) psi_i + grad(column i of the weight matrix) (x) I (PsiLevel)
    and keeps the class sums of its zero-order term (_next_zero_order).
    lemma2's closed form lifts the same previous level by N(2, h) times
    the quadratic coefficient column (PsiTower.quad, read through
    basisops.n_rows) and the linear coefficients instead.  The doubling
    adds every increment slot in some row, so the two lifts agree at
    every level m >= 1 iff the increments do (_increments): lemma2 is
    one comparison, closed_form_ok.  Only level 0 (psi) and level 1 (phi)
    can raise, so psi_tower(f, 1) raises exactly when a deeper build does,
    with the same message.  The tower depends only on the family, so one
    is kept for it and returned to every caller that asks for no more
    levels; a deeper call extends it from its last level, so each level
    is built once per family.  Level 0 is kept once built, and an
    extension that raises keeps the levels below it.
    """
    if mmax < 0:
        raise ValueError("mmax must be nonnegative")
    known = _TOWERS.get(f)
    if known is None:
        d = lcm(*(p.den for p in (f.phi[0, 0], f.phi[0, 1], f.phi[1, 1], f.psi1, f.psi2)))
        sums = (tuple([[v] for v in _linear_ints(p, d)] for p in (f.psi1, f.psi2)), d)
        quad = [[[p.num.get(e, 0) * (d // p.den) for e in ((2, 0), (1, 1), (0, 2))]
                 for p in (f.phi[0, i], f.phi[i, 1])] for i in (0, 1)]
        known = _TOWERS[f] = PsiTower((PsiLevel(sums, [[0]]),), quad, True)
    if known.depth >= mmax:
        return known
    levels, quad = list(known.levels), known.quad
    d = levels[0].class_sums[1]
    grad, closed = _increments(f, d, quad)  # a weight entry of degree above two raises here
    for m in range(len(levels), mmax + 1):
        prev = levels[m - 1]
        ds = prev.class_sums[0]
        levels.append(PsiLevel((tuple(_next_sums(ds[i], grad[i], m) for i in (0, 1)), d),
                               _next_zero_order(prev.zero_order, ds, m)))
    tower = _TOWERS[f] = PsiTower(tuple(levels), quad, grad == closed)
    return tower


def level_pearson_check(f: WeightFamily, m: int) -> bool:
    """The Kronecker power weight solves the level-m Pearson equation.

    The statement, cleared like every density-divided identity
    (cleared_divergence), is cleared_divergence(f, phi^(x)(m+1)) ==
    delta phi^(x)m [Psi_1 | Psi_2], Psi_i the drift tower's level m (a
    tower that cannot be built raises here; psi_tower raises at level 1
    or not at all).  With E_i and P_i the residuals of check_pearson and
    check_phi_conditions for column i, it is E_i = 0 at m = 0 and
    m delta P_i + E_i phi = 0, i = 1, 2, for m >= 1:
    1. By Leibniz, column block i of the left side is c_i Phi_m + delta
       D_i Phi_m, c = cleared_divergence(f, phi), Phi_m = phi^(x)m and
       D_i = phi_1i dx + phi_2i dy.
    2. The tower's recurrence is Psi_i^(m) = I_2 (x) Psi_i^(m-1) + G_i (x) I,
       G_i = grad_cols(phi_1i, phi_2i) (PsiLevel), so the residual of block
       i is R_m = phi (x) R_(m-1) + delta P_i (x) Phi_(m-1), R_0 = E_i,
       that is R_m = E_i Phi_m + delta sum_k Phi_k (x) P_i (x) Phi_(m-1-k).
    3. If phi != 0, apply a linear functional l with l(phi) = 1 to every
       slot but one: R_m = 0 forces P_i = lambda phi, and then R_m =
       (E_i + m delta lambda) Phi_m, zero iff m delta P_i + E_i phi = 0.
    4. If phi = 0, both sides vanish.
    5. Row i of P_i is zero for symmetric phi: its entry (i, c) is
       sum_k phi_ki dk phi_ic - sum_k phi_ik dk phi_ci.  So row i of the
       identity reads E_i (row i of phi) = 0.  If E_i = 0, then P_i = 0
       (m >= 1, delta != 0); else column i of phi, and with it P_i, is
       zero, and E_i phi = 0 forces phi = 0.
    So at every m >= 1 the check is phi = 0, or Pearson and
    phi_conditions (phi's columns commute as vector fields) both hold.
    """
    psi_tower(f, min(m, 1))
    if m == 0:
        return check_pearson(f)
    return f.phi.is_zero or (check_pearson(f) and check_phi_conditions(f))


def _lifted_pearson(sys: OrthoSystem, m: int) -> bool:
    """level_pearson_check at level m, memoised on the system.

    check_pearson at m = 0; one verdict for every m >= 1, where the
    lifted equation is level-free.
    """
    k = min(m, 1)
    return sys.cached(("pearson", k), lambda: level_pearson_check(sys.family, k))


def _functional_pearson(sys: OrthoSystem, top: int | None = None) -> bool:
    """The moments solve Pearson's equation as a functional, memoised on the system.

    mu(d_x g phi_1j + d_y g phi_2j + g psi_j) = 0, j = 1, 2, for every
    monomial g of degree <= top, by default 2N - 2, N = sys.nmax, mu the
    moment functional: integral(div(g phi_(., j) rho)) = 0 with div(phi
    rho) = psi rho, that is Pearson's equation with no boundary term, as
    the moments read it.  The terms have degree <= top + 1: at the
    default, 2N - 1, the moments build_monic(f, N) read; weight data of
    higher degree (deg phi > 2 or deg psi > 1) would read past them, and
    fails.  The sums run on ints: the numerators of the family's moment
    table (orthosys.hankel_table), asked for to degree top + 1 and read
    with the stride it comes with, phi and psi over the LCM of their
    denominators.
    The by-parts guard (_by_parts) reads it: integration by parts needs
    it, and the pointwise Pearson equation alone does not give it (a
    weight's boundary terms, or a moments table of another weight).
    """
    top = 2 * sys.nmax - 2 if top is None else top

    def make():
        f = sys.family
        if f.phi.degree > 2 or f.psi1.total_degree > 1 or f.psi2.total_degree > 1:
            return False
        hank, _, s = hankel_table(f, top + 2)
        cols = [(f.phi[0, j], f.phi[1, j], psi) for j, psi in ((0, f.psi1), (1, f.psi2))]
        d = lcm(*(p.den for col in cols for p in col))
        cols = [[_coded(p, d, s) for p in col] for col in cols]
        for t in range(top + 1):
            for a in range(t + 1):
                b = t - a
                g = a * s + b  # the code of g = x^a y^b
                for px, py, ps in cols:
                    total = sum(c * hank[g + e] for e, c in ps)
                    if a:
                        total += a * sum(c * hank[g - s + e] for e, c in px)
                    if b:
                        total += b * sum(c * hank[g - 1 + e] for e, c in py)
                    if total:
                        return False
        return True
    return sys.cached(("functional pearson", top), make)


def _by_parts(sys: OrthoSystem, top: int, steps: int) -> bool:
    """Whether `steps` derivatives move across onto P_top, memoised on the system.

    Write <a, b>_j = integral(a^t Phi_j b rho) / mu_00 for level-j vectors
    (2^j rows), Phi_j = phi^(x)j with the newest slot the outer block
    index, so b has halves b_1 and b_2.  The operator

        D b = sum_t (Psi_t^(j-1) b_t + sum_i phi_it d_i b_t),

    Psi^(j-1) the drift tower's level, maps level j to level j - 1, and
    <grad A, b>_j = -<A, D b>_(j-1) for every level-(j-1) vector A: the
    integrand is sum_(i,t) d_i A^t phi_it Phi_(j-1) b_t, the moments'
    functional Pearson equation (_functional_pearson), mu(sum_i d_i g
    phi_it + g psi_t) = 0, moves d_i onto g = A^t Phi_(j-1) b_t, and
    psi_t Phi_(j-1) + sum_i phi_it d_i Phi_(j-1) = Phi_(j-1) Psi_t^(j-1)
    is the lifted Pearson equation at level j - 1 (trivial at j = 1,
    where Phi_0 = 1 and Psi^(0) = psi).  From level `steps` down, against
    A = grad^(j-1) P_t^t, this gives <grad^steps P_t^t, b>_steps =
    (-1)^steps integral(P_t D^steps b rho): check_b (_levels_by_parts)
    and check_e (_e_by_parts) read their level-m integrals off it, with
    t <= top.  It needs no constant eigenvalue matrix and no scalar
    zero-order term.

    The degree bound.  D raises the degree by at most one, so with b of
    degree e the chain's g at level j has degree at most (t - j + 1) +
    2(j - 1) + (e + steps - j) = t + e + steps - 1.  Every pairing the
    readers make, of s <= steps steps, has e <= t - s and t <= top, so
    deg g <= 2 top - 1.  P_t is orthogonal to
    every lower degree for t <= N = nmax (build_monic) and gram(t, 0) is
    the construction's record for t <= N - 1.  The functional check to
    degree 2N - 2 reads the moments to 2N - 1 that the construction read,
    so top <= N - 1 is covered.  top = N is the corner of check_e, n + m
    + 1 = N, read with gram(n + 1, m) = (-1)^m gram(N, 0) T_(n+1): that g
    reaches 2N - 1, whose check reads moments to degree 2N, and gram(N,
    0) has degree 2N too.  The corner's contraction reads moments to
    degree 2(n + 1) + m deg phi = 2N - (2 - deg phi) m, as does
    verify_all's table for it, so top = N is taken only where that is
    2N, deg phi = 2 or m = 0 (steps = 1): no moment is read that the
    contraction would not read.  Elsewhere the corner asks for top = N -
    1 (_e_by_parts): of every other pairing it reads, the deepest are
    the cross terms of Q_(n+1) = q(n + 1, m) with the lower stacks, P_N
    paired with e <= N - m - 1 = n, so deg g <= 2N - 2, and it reads
    gram(n + 1, m) off its direct record.

    The guard, cheapest first: build_monic built the system
    (constructed), the degree bound, a symmetric phi, Pearson's
    equation, the lifted equation at level 1 (level-free above it) where
    steps >= 2, and the functional check to degree 2 top - 1, at least
    2N - 2.  The readers take <a, b>_j for <b, a>_j^t, moving a
    derivative off whichever side carries it, which needs Phi_j
    symmetric: validate_family requires it of every loaded family, and a
    non-symmetric phi put in by hand (dataclasses.replace) passes
    Pearson's equation and the functional check as readily, but its (b)
    to (e) reports by parts are wrong.  It never raises: a drift tower
    that cannot be built (psi_tower raises ValueError for a quadratic psi
    or a cubic phi) gives False.
    """
    def make():
        big, phi = sys.nmax, sys.family.phi
        if not (sys.constructed and (top < big or top == big and (
                steps == 1 or phi.degree == 2)) and phi[0, 1] == phi[1, 0]):
            return False
        try:
            return (_lifted_pearson(sys, 0) and (steps < 2 or _lifted_pearson(sys, 1))
                    and _functional_pearson(sys, max(2 * top - 1, 2 * big - 2)))
        except ValueError:
            return False
    return sys.cached(("by parts", top, steps), make)


def _levels_by_parts(sys: OrthoSystem, n: int, m: int) -> bool:
    """Whether gram(n, m) and its cross terms are read off level 0 (_t_block).

    m >= 1, n + m <= N - 1 and the guard for m steps onto P_(n+m).
    check_b asks it at (n, m), lambda_via_operator at (n - 1, 1).
    """
    return bool(m) and n + m < sys.nmax and _by_parts(sys, n + m, m)


def _g_lead(sys: OrthoSystem, n: int, m: int) -> list:
    """g_lead_rows(n, m), memoised on the system with every block its recursion reads."""
    return sys.cached(("G", n, m), lambda: g_lead_rows(n, 0) if not m
                      else _g_lead_step(_g_lead(sys, n + 1, m - 1), n, m))


def _d_top(halves, p: int, sums, quad, cols: int) -> list:
    """D's top layer: the degree-(p + 1) layers of D b from the degree-p layers of b's halves.

    A layer is p + 1 int rows of cols entries, row a the x^(p-a) y^a
    coefficients of each column.  halves[t] is None (a zero half) or the
    j distinct rows of b_t: row r of b_t, r a level-(j - 1) index, is
    halves[t][popcount r].  The degree-(p + 1) part of D b reads only the
    linear part of Psi^(j-1) and the quadratic part of phi, so on the
    distinct rows

        (D b)[s] = sum_t (sum_u Psi~_t[s, u] b_t[u] + sum_i phi_it d_i b_t[s]),

    Psi~ the level's class sums (sums, PsiLevel.class_sums rows) and
    quad[i][t] phi_it's quadratic part (PsiTower.quad), all ints over the
    tower denominator: row 2^s - 1 summed over the columns of each
    popcount is every row of popcount s, the level being symmetric under
    slot permutations.  x, y, x^2, xy and y^2 shift a layer's rows by 0,
    1, 0, 1 and 2; d_x and d_y take row a to (p - a) times row a and (a
    + 1) times row a + 1.  Each column is mapped on its own, so vectors
    side by side in the columns are mapped side by side.
    """
    j = len(halves[0] if halves[0] is not None else halves[1])
    out = [[[0] * cols for _ in range(p + 2)] for _ in range(j)]

    def add(acc, layer, c, shift):
        for a, row in enumerate(layer):
            acc[a + shift] = [x + c * y for x, y in zip(acc[a + shift], row)]

    for t, b in enumerate(halves):
        if b is None:
            continue
        rows = sums[t]
        for s, acc in enumerate(out):
            for u, layer in enumerate(b):
                for h in (0, 1):
                    if rows[3 * s + h][u]:
                        add(acc, layer, rows[3 * s + h][u], h)
            layer = b[s]
            ders = ([[(p - a) * v for v in row] for a, row in enumerate(layer[:-1])],
                    [[(a + 1) * v for v in row] for a, row in enumerate(layer[1:])])
            for i in (0, 1):
                for shift, c in enumerate(quad[i][t]):
                    if c:
                        add(acc, ders[i], c, shift)
    return out


def _op_top(sys: OrthoSystem, n: int, m: int):
    """The top layer of op_m(q(n, m)) on g_lead_rows(n, m): (int rows, d).

    op_m = D grad, and grad q(n, m) = q(n - 1, m + 1) has the leading
    block _g_lead(sys, n - 1, m + 1), so the degree-n layer of op_m(Q) is
    one _d_top step over level m's class sums on that block, laid out as
    g_lead_rows(n, m) is, over the tower denominator d.  At level 0 that
    step is T(n - 1, 1), so it is _t_block's, which (b) keeps.  It reads
    the family and the system's memo alone, never the columns.
    """
    if not m:
        top, d, _ = _t_block(sys, n - 1, 1)
        return top, d
    tower = psi_tower(sys.family, m)
    sums, d = tower.level(m).class_sums
    low = _g_lead(sys, n - 1, m + 1)
    layers = [low[s * n:(s + 1) * n] for s in range(m + 2)]
    top = _d_top((layers[:m + 1], layers[1:]), n - 1, sums, tower.quad, n + m + 1)
    return [row for layer in top for row in layer], d


def _top_layer(sys: OrthoSystem, layers: list, p: int, j: int, cols: int) -> list:
    """D^j's top layer applied to the distinct-row layers of a level-j vector of degree p."""
    tower = psi_tower(sys.family, max(j - 1, 0))
    for level in range(j, 0, -1):
        layers = _d_top((layers[:level], layers[1:]), p, tower.level(level - 1).class_sums[0],
                        tower.quad, cols)
        p += 1
    [top] = layers
    return top


def _t_block(sys: OrthoSystem, k: int, m: int):
    """T_k, the top layer of D^m q(k, m), memoised: (int rows, denominator, nonsingular).

    Q_k = q(k, m) = grad^m P_(k+m)^t has degree k and leading block
    g_lead_rows(k, m), so D^m Q_k has degree <= k + m and its degree-(k
    + m) layer, X_(k+m)^t T_k, is D's top layer (_d_top) applied m
    times to that block (_top_layer).  Expand D^m Q_k over P_0 ..
    P_(k+m): P_(k+m) is orthogonal to every term but P_(k+m)^t T_k, the
    columns being monic, so under _by_parts(sys, k + m, m)

        gram(k, m) = <Q_k, Q_k>_m = (-1)^m integral(P_(k+m) D^m Q_k rho)
                   = (-1)^m gram(k + m, 0) T_k,

    and, for j < k, <Q_j, Q_k>_m is the transpose of (-1)^m
    integral(P_(k+m) D^m Q_j rho), zero because D^m Q_j has degree <= j
    + m < k + m.  T_k reads g_lead_rows (_g_lead), phi's quadratic part
    and the tower's linear parts: no polynomial and no moment.  D grad =
    op, the level's second order operator, so where each zero-order term
    C_j, j < m, is the scalar c_j, T_k = (-1)^m prod_(j<m) (L + c_j I), L
    = Lambda(k + m, 0) (_lambda); that is a test, not a route, above m =
    1.  At m = 1 it runs the other way: op(P_(k+1)^t) = D Q_k = P_(k+1)^t
    T_k, so Lambda(k + 1, 0) = -T_k, the layer _op_top gives at level 0,
    which lambda_via_operator accepts by this theorem.  check_b reads
    the third field as (b)'s Gram verdict.
    """
    def make():
        cols = k + m + 1
        g = _g_lead(sys, k, m)
        top = _top_layer(sys, [g[s * (k + 1):(s + 1) * (k + 1)] for s in range(m + 1)],
                         k, m, cols)
        d = psi_tower(sys.family, 0).level(0).class_sums[1] ** m
        return top, d, len(_echelon([row[:] for row in top], cols)[1]) == cols
    return sys.cached(("T", k, m), make)


def _l_pair(sys: OrthoSystem, n: int, m: int) -> list:
    """[L_1 | L_2], L_i the top layer of D^(m+1)(e_i (x) q(n - 1, m)), side by side.

    (n + m + 1) int rows of 2(n + m) entries over d^(m+1), d the tower
    denominator.  e_i (x) Q is the level-(m + 1) vector with Q in half i
    and zero in the other, so D's first step reads level m of the tower;
    the m more steps (_top_layer) run once on both first steps side by
    side.
    """
    g = _g_lead(sys, n - 1, m)
    low = [g[s * n:(s + 1) * n] for s in range(m + 1)]
    tower = psi_tower(sys.family, m)
    one, two = (_d_top(halves, n - 1, tower.level(m).class_sums[0], tower.quad, n + m)
                for halves in ((low, None), (None, low)))
    first = [[a + b for a, b in zip(u, v)] for u, v in zip(one, two)]
    return _top_layer(sys, first, n, m, 2 * (n + m))


def _transpose(a, cols: int):
    return [[row[j] for row in a] for j in range(cols)]


def _e_by_parts(sys: OrthoSystem, n: int, m: int):
    """check_e's exact notes at (n, m) read off the by-parts operator, memoised.

    A tuple of notes, in check_e's order and text, or False where the
    contraction decides: where _by_parts(sys, n + m + 1, m + 1) fails
    (_by_parts(sys, N - 1, m + 1) at the corner n + m + 1 = N = nmax
    where deg phi < 2 and m >= 1, see below), or where some T_k, k <= n
    - 2, is singular (_t_block).  check_e
    projects [u_1 | u_2], u_i = sum_j phi_ij d_j Q_n, Q_k = q(k, m), on
    every Q_k, k <= n + 1; N_k = <Q_k, u_i>_m = <e_i (x) Q_k, grad
    Q_n>_(m+1), e_i (x) Q_k the level-(m + 1) vector with Q_k in half i,
    since Phi_m u_i is half i of Phi_(m+1) grad Q_n.  One step of
    _by_parts from level m + 1 and m more give N_k = (-1)^(m+1)
    (integral(P_(n+m) D^(m+1)(e_i (x) Q_k) rho))^t.

    - Zero tails.  For k <= n - 2, D^(m+1)(e_i (x) Q_k) has degree <= k
      + m + 1 < n + m, so N_k = 0: no "projection survives" note.
    - The Gram blocks.  gram(k, m) = (-1)^m gram(k + m, 0) T_k, and
      gram(k + m, 0) is the construction's nonsingular record for k + m
      <= N - 1, so "level gram singular at stack k" is det T_k = 0; at
      the corner k + m = N it is det gram(N, 0) det T_k = 0.
    - The reconstruction.  The columns of Q_k, k <= n + 1, span the
      m-th gradients of polynomials of degree <= n + m + 1, as P_m ..
      P_(n+m+1) with P_0 .. P_(m-1) span every degree <= n + m + 1.  A
      column of u_i has degree <= n + 1 (deg phi <= 2 under the guard)
      and its row r depends only on
      popcount(r), so it is such a gradient iff its distinct rows v_s
      are curl-free, d_y v_s = d_x v_(s+1), s < m (integrate one slot at
      a time, fixing constants).  If so, u_i = sum_(k<=n+1) Q_k B_k;
      the cross terms vanish (_t_block), so N_k = gram(k, m) B_k, and
      the zero tails give B_k = 0 where T_k is nonsingular, k <= n - 2,
      and B_k = A_k for the three kept stacks: the reconstruction holds.
      Conversely a reconstruction is an m-th gradient.  With S_s =
      d_x^(m-s) d_y^s P_(n+m)^t curl-free, the curl of row s < m of u_i
      is the residual r_(i,s) = sum_j (d_y phi_ij d_j S_s - d_x phi_ij d_j
      S_(s+1)), the exact form of the Leibniz terms the level-m
      statement drops.  It is L_(i,s) P_(n+m)^t, L_(i,s) of order m + 1
      with entries of grad phi, linear under the guard, as coefficients,
      and symbol xi_x^(m-s-1) xi_y^s sigma_i, where (column 1 is x, 2 is y)

          sigma_i = d_y phi_i1 xi_x^2 + (d_y phi_i2 - d_x phi_i1) xi_x xi_y
                    - d_x phi_i2 xi_y^2.

      Split L = L_1 + L_0 by the linear and the constant parts of its
      coefficients: L_1 lowers a form's degree by m, L_0 by m + 1.  The
      monic columns of P_t, t = n + m >= m + 1, have top layers x^(t-k)
      y^k, which span every form of degree t, so the top nonzero layer of
      L P_t^t is L_1 on them where L_1 != 0, and L_0 on them otherwise.
      L_1 (xi . x)^t is t! / (t - m - 1)! (xi . x)^(t-m-1) times L_1's
      symbol, nonzero for some xi unless L_1 = 0, and so for L_0.  So
      every residual vanishes iff sigma_1 = sigma_2 = 0: d_y phi_i1 =
      d_x phi_i2 = 0 and d_x phi_i1 = d_y phi_i2, each row of phi c_i (x,
      y) plus a constant.  The guard admits only a symmetric phi, and
      that meets it iff phi is constant.  The note is one verdict per
      family, the same on every cell with m >= 1, and at m = 0, where
      Q_k is P_k^t and u_i has no curl, it is never written.
    - The rank.  D^(m+1)(e_i (x) Q_(n-1)) has degree <= n + m, so
      N_(n-1) = (-1)^(m+1) L_i^t gram(n + m, 0), L_i its top layer (with
      the columns monic, as for T_k); A_(n-1) = gram(n - 1, m)^-1
      N_(n-1), so [A_top; A_bot] has the rank of [L_1^t; L_2^t]
      (_l_pair).
    - The corner where deg phi < 2 and m >= 1.  Its by-parts pairings
      but one have g of degree <= 2N - 2 (_by_parts), so the guard is
      _by_parts(sys, N - 1, m + 1).  The one is gram(n + 1, m) read as
      gram(N, 0) T_(n+1), of degree 2N - 1; its verdict is read off the
      direct level-m record (gram_record) instead, whose moments reach
      degree 2(n + 1) + m deg phi < 2N, as the contraction's do.  Where
      deg phi = 2 the contraction reads moments to degree 2N itself, and
      the corner reads gram(N, 0) T_(n+1) under _by_parts(sys, N, m + 1).
    """
    def make():
        # the corner where deg phi < 2 reads gram(n + 1, m) as its direct record
        direct = bool(m) and n + m + 1 == sys.nmax and sys.family.phi.degree < 2
        if not _by_parts(sys, n + m + 1 - direct, m + 1):
            return False
        for k in range(n - 1, n + 2):
            if direct and k == n + 1:
                singular = sys.gram_record(k, m).inv is None
            else:
                singular = not _t_block(sys, k, m)[2] or (
                    k + m == sys.nmax and sys.gram_record(k + m, 0).inv is None)
            if singular:
                return (f"level gram singular at stack {k}",)
        if not all(_t_block(sys, k, m)[2] for k in range(n - 1)):
            return False
        phi = sys.family.phi
        notes = []
        if m and any(phi[i, 0].dy() or phi[i, 1].dx() or phi[i, 0].dx() != phi[i, 1].dy()
                     for i in (0, 1)):
            notes.append("three term reconstruction misses the left side")
        c = n + m + 1
        got = len(_echelon(_transpose(_l_pair(sys, n, m), 2 * (c - 1)), c)[1])
        if got != c:
            notes.append(f"lowest coefficient rank {got}, want {c}")
        return tuple(notes)
    return sys.cached(("e by parts", n, m), make)
