"""Checkers for the five equivalent descriptions of a classical weight.

Each checker reads the weight family from the built orthogonal system it
is given (check_a, which needs no system, takes the family) and returns
a PropertyReport carrying a pass/fail status, a residual, and the
tolerance it was measured against.  The property tokens are the
package-wide taxonomy (see the package docstring):

  a    the weight solves a matrix Pearson equation with degree bounds
       and an invertible drift matrix,
  b    every gradient stack level is orthogonal for the Kronecker power
       weight, which itself solves the lifted Pearson equation,
  c    every gradient stack solves a second order equation with a
       constant eigenvalue matrix,
  d    the iterated divergence identities hold level by level with
       invertible eigenvalue matrices,
  e    multiplying the next finer stack by the weight matrix expands
       over exactly three consecutive stacks one level down, with the
       lowest coefficient of full column rank,

plus the auxiliary structure tokens phi_conditions, lemma1 (interleaved
determinant identity), lemma2 (drift tower closed form) and prop1 (the
shift/derivative identity suite on the monomial basis).

Everything runs over exact rational arithmetic.  check_b and check_e
also take an optional quadrature rule: given one, only their integrals
move to it, and only then is numpy imported, so exact cells never load
it.  The weight density itself is never materialized; identities
involving it are divided through and cleared to polynomial statements
using the family's logarithmic gradient.  The drift tower that (c) and
(d) read holds the by-parts operator's coefficients and depends only
on the family, so byparts keeps one per family (psi_tower) and extends
it from its last level, building each level once; the checkers look it
up there.  Each level holds only the popcount class sums of its two
drift matrices, ints over one denominator, the only form (c) and (d)
read.  lemma2 and (b)'s lifted Pearson equation are decided once per
family, by proof (byparts.level_pearson_check), so neither reads a
level above 1 and no exact run forms a Kronecker power.  The level-m
eigenvalue systems behind (c), (d) and rodrigues_reconstruct are
solved on the m + 1 distinct rows of each gradient stack, never on all
2^m: every other row repeats one of them.  On a build_monic system
(c) decides each of them by the paper's leading-coefficient formula
(lambda_via_formula): one step of the by-parts operator gives the top
layer of the level's image, solved on the m + 1 row blocks of
g_lead_rows, and the solution is accepted by theorem at level 0 under
the by-parts guard, where it is -T(n - 1, 1); an inconsistent top
layer fails the cell with no solve, and every other cell, and every
cell of a hand-built system, solves the whole coefficient system
(lambda_via_operator).  Two proved reductions spare the level-m work
where their hypotheses hold: an eigenvalue matrix above level 0 is the
level-0 one plus c_m I where the level's zero-order term is the scalar
c_m (_lambda), and each level of (d)'s divergence tower follows from
(c) where the lifted Pearson equation holds
(_cleared_divergence_identity).  Elsewhere the level-m cell is
decided by lambda_via_operator and the identity computed, as before,
so every verdict and note is the direct route's.  (b) and (e) above
level 0 run the paper's chain Pearson => (b) => (e) as their decision
procedure where the moments solve Pearson's equation as a functional:
the by-parts operator (byparts) reads (b)'s Gram verdicts and cross
terms, and (e)'s Gram verdicts, reconstruction and rank, off level 0
with no moment contraction; elsewhere they are integrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .basisops import identity_suite
from .byparts import (
    _e_by_parts,
    _g_lead,
    _level_operator,
    _levels_by_parts,
    _lifted_pearson,
    _op_top,
    _t_block,
    psi_tower,
)
from .matpoly import (
    InconsistentSystemError,
    PolyMatrix,
    ShapeError,
    SingularMatrixError,
    _echelon,
    det_exact,
    hstack,
    int_matmul,
    kron,
    matmul_const_rows,
    matmul_numerators,
    reduce_rows,
    same_numerators,
    solve_columns,
    vstack,
)
from .orthosys import (
    OrthoSystem,
    _block_matrix,
    build_monic,
    eval_product,
    hankel_table,
    integrate_rows,
    row_halves,
)
from .polycore import ONE
from .weights import (
    InvalidParameterError,
    OracleUnavailableError,
    WeightFamily,
    check_pearson,
    check_phi_conditions,
    check_quadrature_domain,
    cleared_divergence,
    make_quadrature,
)

RESIDUAL_REL = 1e-9
RANK_REL = 1e-8

AUX_PROPERTIES = ("phi_conditions", "lemma1", "lemma2", "prop1")
# the tokens a caller selects; "aux" stands for the four structure tokens
SELECTABLE_PROPERTIES = ("a", "b", "c", "d", "e", "aux")
PROPERTY_ORDER = SELECTABLE_PROPERTIES[:-1] + AUX_PROPERTIES


class NoConstantSolution(ValueError):
    """The second order image leaves the stack's constant column span."""


class SingularLambda(ValueError):
    """An eigenvalue matrix in a divergence tower is exactly singular."""


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PropertyReport:
    """One verification outcome; residual <= tolerance whenever it passes."""

    property: str
    family: str
    n: int
    m: int
    status: str            # pass | fail | error
    residual: float
    tolerance: float
    mode: str              # exact | numeric
    notes: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self))


def _report(prop, family, n, m, ok, mode="exact", residual=0.0,
            tolerance=0.0, notes=""):
    return PropertyReport(prop, family, n, m, "pass" if ok else "fail",
                          float(residual), float(tolerance), mode, notes)


# ---------------------------------------------------------------------------
# auxiliary determinant identity


def interleaved_det_check(d1: PolyMatrix, d2: PolyMatrix, m: int) -> bool:
    """det(I_m (x) d1 | I_m (x) d2) == (-1)^(m//2) det(d1 | d2)^m, exactly.

    The columns d1, d2 are 2x1; the left side interleaves m copies of
    each, the right side is the base determinant raised to m with the
    sign of the unshuffling permutation.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if d1.shape != (2, 1) or d2.shape != (2, 1):
        raise ShapeError("interleaved_det_check wants 2x1 columns")
    eye = PolyMatrix.identity(m)
    big = hstack(kron(eye, d1), kron(eye, d2))
    base = det_exact(hstack(d1, d2))
    return det_exact(big) == Fraction(-1) ** (m // 2) * base ** m


# ---------------------------------------------------------------------------
# eigenvalue matrices: operator route and leading-coefficient route


def _solve_constant_right_factor(q: PolyMatrix, rhs: PolyMatrix) -> PolyMatrix:
    """Solve q @ c = rhs for a constant matrix c by coefficient matching.

    Every monomial of every row of both sides becomes one equation, read
    as ints from the stored numerators; the stacked system is solved
    exactly, and NoConstantSolution is raised when the equations are
    inconsistent or underdetermine c.
    """
    if q.rows != rhs.rows:
        raise ShapeError(f"row mismatch {q.shape} vs {rhs.shape}")
    arows = []
    brows = []
    for r in range(q.rows):
        row = q.row_list(r) + rhs.row_list(r)
        # every equation of row r is scaled by the LCM of the row's denominators
        d = lcm(*{p.den for p in row})
        row = [(p.num, d // p.den) for p in row]
        for mono in sorted(set().union(*(t for t, _ in row))):
            eq = [t.get(mono, 0) * k for t, k in row]
            arows.append(eq[:q.cols])
            brows.append(eq[q.cols:])
    if not arows:
        return PolyMatrix.zeros(q.cols, rhs.cols)
    try:
        return solve_columns(arows, brows)
    except InconsistentSystemError as exc:
        raise NoConstantSolution(f"inconsistent coefficient system: {exc}") from exc
    except SingularMatrixError as exc:
        raise NoConstantSolution(f"rank deficient coefficient system: {exc}") from exc


def lambda_via_operator(sys: OrthoSystem, n: int, m: int) -> PolyMatrix:
    """Eigenvalue matrix of the level-m stack of gradient index n.

    The constant L with op(Q) + Q L = 0, Q = q(n, m), op the weight's
    second order operator at level m; NoConstantSolution says none
    exists, which is how a non-classical input announces itself.  It is
    solved by coefficient matching (_solve_constant_right_factor), but
    on a build_monic system the paper's formula decides first: the
    columns are monic, so the degree-n equations are the formula's G L =
    -T G (lambda_via_formula).  Where they are inconsistent no L exists,
    and the solve's own message is raised without running it (G has
    full column rank, so the solve could give no other).  At level 0 G
    = I, so they always solve, and the formula runs only where
    byparts._levels_by_parts(n - 1, 1) holds: there their one solution
    is L by theorem (op(P_n^t) = D grad P_n^t = P_n^t T(n - 1, 1) by
    parts, byparts._t_block).  Every other cell, and every cell of a
    hand-built system, whose columns need not be monic, runs the solve.

    The solve runs on the m + 1 distinct rows S = q_rows(n, m) of Q, the
    image from the rows one and two levels up through the level's
    operator (byparts._level_operator), built here alone.  Row r of
    op(Q) is its row 2^popcount(r) - 1: the second order part acts
    entrywise, and slot k of the drift gives row r the sum over i, b of
    d_(r_k) phi_(b i) times d_i d_b of P_(n+m) differentiated along the
    other slots of r, which summed over the slots depends only on how
    many of r are y.  So the verdict and L are the full system's.
    """
    if n < 1 or m < 0:
        raise ValueError("need gradient index n >= 1 and level m >= 0")
    if sys.constructed and (m or _levels_by_parts(sys, n - 1, 1)):
        try:
            # a module-global call, so bench/tracing.py's wrapper times it
            lam = lambda_via_formula(sys, n, m)
        except InconsistentSystemError as exc:
            raise NoConstantSolution(f"inconsistent coefficient system: {exc}") from exc
        if not m:
            return lam
    s = sys.q_rows(n, m)
    # a degree-1 stack has no second derivatives
    second = sys.q_rows(n - 2, m + 2) if n >= 2 else PolyMatrix.zeros(m + 3, s.cols)
    f = sys.family
    op = _level_operator(f, psi_tower(f, m).level(m).class_sums, m)
    return _solve_constant_right_factor(s, -(op @ vstack(second, sys.q_rows(n - 1, m + 1))))


def lambda_via_formula(f: WeightFamily | OrthoSystem, n: int, m: int) -> PolyMatrix:
    """Eigenvalue matrix from the leading-coefficient equation, the paper's formula.

    It reads the family's Pearson data alone, and decides (c) on every
    build_monic system (lambda_via_operator), which passes the system
    for f: its memo then keeps the leading blocks and the level-0 layer
    that (b) and (e) read too.  Monic columns give q(n, m) = X_n^t G +
    lower degree, G = g_lead_rows(n, m) on the m + 1 distinct rows, and
    op_m keeps the degree: the top layer of op_m(Q) is X_n^t T G, T the
    constant symbol, and T G is one step of the by-parts operator (op_m
    = D grad) on the leading block of q(n - 1, m + 1) (byparts._op_top),
    int rows over the tower denominator d.  d G L = -(d T G) is solved
    exactly in ints; G has full column rank (a nonzero form of degree n
    + m has a nonzero m-th partial), so InconsistentSystemError is the
    only failure.  Row block r of G and of T G depends only on
    popcount(r), so the dropped equations repeat kept ones.

    Solvability.  For m >= 1 the system solves iff the level's
    zero-order class sums C~_m are c I (byparts.PsiLevel), and then L =
    L_0 + c I, L_0 = lambda_via_formula(f, n + m, 0).  The top homogeneous parts
    of phi and psi give op_0's top layer, X_N^t M on forms of degree N =
    n + m, and grad^m op_0 = (op_m + C_m) grad^m (_lambda) holds for it
    with the same constant C_m, so G L = -T G reads G (L + M) = (C~_m (x)
    I) G, and L_0 = -M.  Conversely, for a solution K = L + M and a form
    f = (xi . x)^N = X_N^t c, every m-th partial d_x^(m-s) d_y^s of g =
    X_N^t K c is N!/n! sum_t C~_m[s, t] xi_x^(m-t) xi_y^t (xi . x)^n.  A
    form of degree N > m whose m-th partials are all multiples of (xi .
    x)^n is a multiple of (xi . x)^N, so every u(xi) = (xi_x^(m-t)
    xi_y^t)_t is an eigenvector of C~_m, and any m + 1 of them are
    independent: C~_m is scalar.  So above level 0 lambda_via_operator
    meets a top layer that solves only where C~_m is scalar and level 0
    has no eigenvalue matrix (_lambda), and there the solve decides.

    The paper's layout.  On all 2^m row blocks T = L*^t (A3 (x) I) N* + S
    (D (x) I_n) N_stk, A3 phi's quadratic coefficients and D = (d1 | d2)
    the level drift data, row 2s + h of d_i the x_h coefficients of row
    s of psi_i; by the mixed product T = I_{2^m} (x) T1 + sum_{h,h'}
    C_{h,h'} (x) M_{h,h'}, T1 = sum_{p,q} A3[p, q] L_p^t N_q (L_p, N_q
    the products L(n-2, a) L(n-1, b) and N(n-1, a) N(n, b), (a, b) =
    (x, x), (y, x), (y, y)), M_{h,h'} = L(n-1, h)^t N(n, h') and
    C_{h,h'}[s, s'] the x_h coefficient of psi_{h'}[s, s'].  Its row
    blocks 2^s - 1, column blocks summed by popcount, times G are
    _op_top's layer.  The paper's theorem transposes the level-lifted
    stack in S instead, reading drift row h 2^m + s for 2s + h; that
    layout T' agrees with T on G wherever G L = -T G solves.  Label row
    s by its derivative directions (s_m, .., s_1), s_m the newest, test
    on p = (xi . x)^{n+m}, and put K_rv = xi^t (d_r d_v A) xi (A the
    quadratic part of phi), B = f.d_matrix(), s' = (s_m, .., s_2) and
    Y_u = sum_{k >= 2} K_{s_k u} xi^(s' - s_k) + (B xi)_u xi^s'.  As d_x
    d_y phi_ij = d_y d_x phi_ij, T's d_{s_1} phi term is the one T' reads
    at the top bit, and (T' - T) G on row s is a multiple of sum_v x_v
    (Y_{s_1} xi_v - Y_v xi_{s_1}).  By Leibniz, T G = grad^m(op_0 p) - R
    p with R's symbol r_{(u, s')} = Y_u + xi_u r_{s'}; a solution needs
    R p to be an m-th gradient, so r_{(., s')}, and with it Y, is
    parallel to xi: T' G = T G.  At m = 1, Y = B xi: a solution exists
    iff B = d I, and then T' - T is d x_h (d_{s_1} d_h - d_h d_{s_1}) =
    0.  For m >= 2 one exists iff A = c x x^t - (v x^t + x v^t) / (2(m -
    1)), v psi's linear part.
    """
    if n < 1 or m < 0:
        raise ValueError("need gradient index n >= 1 and level m >= 0")
    sys = f if isinstance(f, OrthoSystem) else OrthoSystem(f, ())
    top, d = _op_top(sys, n, m)
    neg = [[-v for v in row] for row in top]
    if not m:  # G = I
        return _block_matrix(neg, d, n + 1)
    return solve_columns([[d * v for v in row] for row in _g_lead(sys, n, m)], neg)


def _lambda(sys: OrthoSystem, n: int, m: int) -> PolyMatrix:
    """lambda_via_operator's eigenvalue matrix, memoised on the system, keyed by (n, m).

    At level 0 it is lambda_via_operator's: the formula on a build_monic
    system, the coefficient solve on a hand-built one.
    For m >= 1 it is read off level 0 where the level's zero-order term
    is a scalar: Lambda(n, m) = Lambda(n + m, 0) + c_m I.  Differentiating
    op_0(P_(n+m)^t) + P_(n+m)^t L = 0 m times gives op_m(Q) + C_m Q + Q L
    = 0 for Q = q(n, m), C_m the constant zero-order term (byparts.PsiLevel): by
    induction, differentiate op_(m-1)(Q') + C_(m-1) Q' + Q' L = 0, Q' =
    q(n + 1, m - 1), along the newest slot k.  The derivatives of phi's
    entries are the tower's new drift increments grad(column i of phi)
    (x) I, and those of the linear drift Psi_i^(m-1) are the constants
    [d_k Psi_i^(m-1)] that act on Q = grad Q'; C_(m-1) passes through as
    I_2 (x) C_(m-1).  Row r of op_m(Q) and of Q L depends only on
    popcount(r) (lambda_via_operator), so row r of C_m Q does too, and
    on the rows 2^s - 1 it is C~_m S, S = q_rows(n, m), with C~_m the
    class sums kept in the tower.  Where C~_m = c_m I, C_m Q = c_m Q and
    Q (L + c_m I) = -op_m(Q).  That solution is the only one: the
    columns are monic, so the leading block of Q (g_lead_rows) has full
    column rank, since a nonzero form of degree n + m has a nonzero
    m-th partial; so it is lambda_via_operator's.  The argument is
    algebra on P_(n+m) alone and reads no moments.  Where C~_m is not
    scalar, or level 0 has no constant solution, lambda_via_operator
    decides the level-m cell itself (the formula, then the solve where
    the top layer solves), so every failure keeps its exception and
    message.
    A failure is memoised too, as its message, and every read raises a
    new NoConstantSolution with it, so each failing cell is decided once.
    """
    def make():
        if m:
            c = psi_tower(sys.family, m).level(m).zero_order_scalar()
            if c is not None:
                try:
                    low = _lambda(sys, n + m, 0)
                except NoConstantSolution:
                    pass
                else:
                    return low + PolyMatrix.identity(low.rows).scale(c)
        try:
            return lambda_via_operator(sys, n, m)
        except NoConstantSolution as exc:
            return str(exc)  # the message alone: a kept traceback would pin the solver's frames

    got = sys.cached(("lambda", n, m), make)
    if isinstance(got, str):
        raise NoConstantSolution(got)
    return got


# ---------------------------------------------------------------------------
# property (a): Pearson data with degree bounds and invertible drift


def check_a(f: WeightFamily) -> PropertyReport:
    problems = []
    if f.psi1.total_degree > 1 or f.psi2.total_degree > 1:
        problems.append("psi degree above one")
    if f.phi[0, 1] != f.phi[1, 0]:
        problems.append("phi not symmetric")
    if not check_pearson(f):
        problems.append("pearson identity fails")
    if det_exact(f.d_matrix()) == 0:
        problems.append("drift matrix singular")
    return _report("a", f.name, 0, 0, not problems, notes="; ".join(problems))


# ---------------------------------------------------------------------------
# property (b): orthogonal stacks and the lifted Pearson equation


def check_b(sys: OrthoSystem, n: int, m: int, rule=None) -> PropertyReport:
    """Level-m stack orthogonality plus the lifted Pearson equation.

    The Pearson half is always exact.  Without a quadrature rule the
    cross terms and the Gram verdict are exact too.  It asks
    byparts._levels_by_parts once.  Where that holds, both are read off
    level 0 with no moment contraction, by the paper's Pearson => (b)
    argument: integrating by parts m times moves the derivatives of q(n,
    m) onto the other stack, so every cross term is zero and gram(n, m)
    = (-1)^m gram(n + m, 0) T_n (byparts._t_block).  gram(n + m, 0) is
    the construction's nonsingular record, so the verdict is T_n's and
    no level-m record is built.  The guard (byparts._by_parts) needs a
    build_monic system of degree N > n + m, a symmetric phi, the lifted
    Pearson equation and the moments' functional Pearson equations to
    degree 2N - 2.  Elsewhere the cross terms with every lower stack are
    int blocks from one moment contraction (OrthoSystem.cross_rows),
    which also integrates gram(n, m) into its gram_record, whose
    determinant the verdict reads.  With a rule they are integrated on
    the rule and measured against a tolerance.
    """
    if n < 1 or m < 1:
        raise ValueError("property b needs n >= 1 and m >= 1")
    f = sys.family
    pearson_ok = _lifted_pearson(sys, m)
    notes = [] if pearson_ok else ["lifted pearson identity fails"]
    if rule is None:
        if _levels_by_parts(sys, n, m):
            ortho_ok, gram_ok = True, _t_block(sys, n, m)[2]
        else:
            ortho_ok = not any(any(map(any, rows)) for rows, _ in sys.cross_rows(n, m))
            gram_ok = sys.gram_record(n, m).det != 0
        if not ortho_ok:
            notes.append("cross terms with a lower stack survive")
        if not gram_ok:
            notes.append("level gram singular")
        ok = pearson_ok and ortho_ok and gram_ok
        return _report("b", f.name, n, m, ok, notes="; ".join(notes))
    import numpy as np

    gram = sys.gram(n, m, rule)
    scale = float(np.abs(np.diag(gram)).max())
    tol = RESIDUAL_REL * scale
    worst = 0.0
    for k in range(n):
        cross = sys.inner_on(k, n, m, rule)
        worst = max(worst, float(np.abs(cross).max()))
    sv = np.linalg.svd(gram, compute_uv=False)
    gram_ok = bool(sv[-1] > RANK_REL * sv[0])
    if worst > tol:
        notes.append("cross terms with a lower stack survive")
    if not gram_ok:
        notes.append("level gram numerically singular")
    ok = pearson_ok and worst <= tol and gram_ok
    return _report("b", f.name, n, m, ok, "numeric", worst, tol, "; ".join(notes))


# ---------------------------------------------------------------------------
# property (c): second order equation with constant eigenvalue matrix


def check_c(sys: OrthoSystem, n: int, m: int) -> PropertyReport:
    """The level-m stack solves op_m(Q) + Q Lambda = 0 for a constant Lambda.

    Lambda is _lambda's, and a cell without one fails with the message
    of the route that decides it.  On a build_monic system that is the
    paper's leading-coefficient formula (lambda_via_formula) wherever
    _lambda does not read Lambda(n + m, 0) + c_m I: Q = X_n^t G + lower
    degree with G = g_lead_rows(n, m) of full column rank, so the
    top-degree part of the equation is G Lambda = -T G: where it has no
    solution the cell fails with no further work, and at level 0 under
    the by-parts guard its one solution is Lambda by theorem.  Every
    other cell, and every cell of a hand-built system, solves the whole
    coefficient system (lambda_via_operator).  The formula reads no shift table (l_rows), so a
    wrong one is prop1's fault and moves no (c) verdict.
    """
    f = sys.family
    try:
        lam = _lambda(sys, n, m)
    except NoConstantSolution as exc:
        return _report("c", f.name, n, m, False,
                       notes=f"no constant eigenvalue matrix: {exc}")
    if n == 1 and m == 0:
        if lam == f.d_matrix().scale(-1):
            return _report("c", f.name, n, m, True, notes="degree-one anchor: eigenvalue "
                           "matrix equals minus the drift matrix")
        return _report("c", f.name, n, m, False,
                       notes="degree-one eigenvalue matrix is not minus the drift matrix")
    return _report("c", f.name, n, m, True)


# ---------------------------------------------------------------------------
# property (d): divergence tower identities, level by level


def _cleared_divergence_identity(sys: OrthoSystem, n: int, m: int,
                                 lam: PolyMatrix) -> bool:
    """One level of the divergence tower as a cleared polynomial identity.

    The level-m statement divides by the scalar density and clears both
    logarithmic gradient denominators (cleared_divergence), leaving an
    exact polynomial matrix identity in the weight data.  cleared_divergence
    acts row by row, so it runs on the distinct rows of the weighted
    stacks (orthosys.row_halves), one row per popcount.

    Where the lifted Pearson equation holds at level m (_lifted_pearson),
    the identity is a theorem for the lam that _lambda returns, and is not
    recomputed.  Write Q = q(n - m, m) and Phi_k = phi^(x)k.  The newest
    derivative is the outer block index in both, so Phi_(m+1) = phi (x)
    Phi_m and grad Q = [dx Q; dy Q], and weighted_rows(n - m - 1, m + 1)
    holds the rows of W = Phi_(m+1) grad Q, row block j = sum_k phi_jk
    Phi_m dk Q.  By Leibniz over that newest slot, rho^-1 div(rho W) =
    sum_k (column block k of rho^-1 div(rho Phi_(m+1))) dk Q + Phi_m
    sum_(j,k) phi_jk dj dk Q.  The lifted equation says column block k of
    the first factor is Phi_m Psi_k^(m), up to its residual R_m, so
    cleared_divergence(f, W) = R_m(grad Q) + delta Phi_m op_m(Q).  R_m = 0
    under the guard, and op_m(Q) + Q lam = 0 holds exactly for every lam
    _lambda returns, by either of its routes; so the left side is
    -delta Phi_m Q lam, the right side.  Elsewhere (a family whose
    lifted equation fails, such as one whose weight matrix breaks
    phi_conditions) the identity is computed.
    """
    if _lifted_pearson(sys, m):
        return True
    f = sys.family
    delta = f.log_grad_x.den * f.log_grad_y.den
    lhs = cleared_divergence(f, vstack(*row_halves(sys.weighted_rows(n - m - 1, m + 1))))
    return lhs == (sys.weighted_rows(n - m, m) @ lam).scale(-delta)


def check_d(sys: OrthoSystem, n: int) -> PropertyReport:
    """All n divergence tower levels of the degree-n column, exactly."""
    if n < 1:
        raise ValueError("property d needs n >= 1")
    notes = []
    ok = True
    for m in range(n):
        try:
            lam = _lambda(sys, n - m, m)
        except NoConstantSolution as exc:
            return _report("d", sys.family.name, n, 0, False,
                           notes=f"level {m}: no constant eigenvalue matrix: {exc}")
        if det_exact(lam) == 0:
            ok = False
            notes.append(f"level {m}: singular eigenvalue matrix")
            continue
        if not _cleared_divergence_identity(sys, n, m, lam):
            ok = False
            notes.append(f"level {m}: divergence identity fails")
    return _report("d", sys.family.name, n, 0, ok, notes="; ".join(notes))


# ---------------------------------------------------------------------------
# explicit tower iteration (used by the reconstruction checks)


def rodrigues_reconstruct(sys: OrthoSystem, n: int) -> dict:
    """Iterate the divergence tower down from level n and compare.

    Starting from the weight's n-th Kronecker power times the constant
    top stack, each step applies one density-divided divergence.  The
    steps run on cleared numerators: after k steps the tower value is
    N_k / delta^k with N_k = cleared_divergence(f, N_(k-1), k - 1), so
    every comparison is a polynomial one.  After k steps N_k is compared
    against (-1)^k delta^k times the level (n - k) stack data times the
    eigenvalue product accumulated so far; after n steps it must be the
    degree-n column itself (transposed) times the full product.  The
    tower runs on the distinct rows of the weighted stacks, as in
    _cleared_divergence_identity.  Returns a dict with the per-level
    sign pattern, the resolved final sign, whether the reversed product
    order also matches, and whether the monic column is recovered
    exactly after inverting the product.  The
    product is invertible (each factor is nonsingular), so the column is
    recovered exactly precisely when a final sign was found.

    Raises SingularLambda when some eigenvalue matrix is singular.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    f = sys.family
    lams = []
    for m in range(n):
        lam = _lambda(sys, n - m, m)
        if det_exact(lam) == 0:
            raise SingularLambda(f"degree {n} level {m}")
        lams.append(lam)
    delta = f.log_grad_x.den * f.log_grad_y.den
    num = sys.weighted_rows(0, n)
    power = ONE
    suffix = PolyMatrix.identity(n + 1)
    level_sign_ok = []
    for k in range(1, n + 1):
        num = cleared_divergence(f, vstack(*row_halves(num)), k - 1)
        power = power * delta
        level = n - k
        suffix = lams[level] @ suffix
        expected = sys.weighted_rows(k, level) @ suffix
        level_sign_ok.append(num == expected.scale(power * (-1) ** k))
    p_t = sys.p(n).transpose()
    forward = p_t @ suffix
    final_sign = 0
    for s in ((-1) ** n, -((-1) ** n)):
        if num == forward.scale(power * s):
            final_sign = s
            break
    reversed_product = PolyMatrix.identity(n + 1)
    for m in range(n - 1, -1, -1):
        reversed_product = reversed_product @ lams[m]
    reversed_matches = num == (p_t @ reversed_product).scale(power * (-1) ** n)
    return {
        "family": f.name,
        "n": n,
        "level_sign_ok": level_sign_ok,
        "alternating_sign": all(level_sign_ok),
        "final_sign": final_sign,
        "reversed_product_matches": reversed_matches,
        "reconstruction_exact": final_sign != 0,
    }


# ---------------------------------------------------------------------------
# property (e): three term expansion of the weighted finer stack


def check_e(sys: OrthoSystem, n: int, m: int, rule=None) -> PropertyReport:
    """Three term expansion with full-rank lowest coefficient.

    The weighted next-finer stack is projected on every coarser stack
    of degree up to n + 1: the projections below n - 1 must vanish, the
    three surviving ones must reconstruct the left side identically,
    and the lowest one must have full column rank.  Without a quadrature
    rule the check is exact, and where the by-parts guard holds it
    integrates nothing above level 0: byparts._e_by_parts proves the
    tails zero and reads the Gram verdicts off T_k, the reconstruction
    off phi's curl symbol (one verdict per family above level 0) and
    the rank off the operator's top layers, with the same notes in the
    same order.  Elsewhere (a guard that fails, a singular T_k below the
    three kept stacks, a hand-built system) the exact check contracts.
    The two halves of the weighted stack sit side by side, w = [top |
    bot], so the projections on all n + 2 stacks come from one moment
    contraction of w, each coefficient
    A_k = [A_top | A_bot] is G_k^-1 N_k with G_k the level Gram block,
    and (I_2 (x) q_k) [A_top; A_bot] is read side by side as q_k A_k.

    The exact check runs on distinct rows (see orthosys) and on int
    rows from the moment contraction to the verdict: w is [R'[0..m] |
    R'[1..m+1]] with R' = weighted_rows(n - 1, m + 1), whose shared
    rows are contracted once (integrate_rows), and each projection N_k
    on counted_rows(k, m) is int rows over one denominator.  A_k is one
    int product with the inverse kept in the block's gram_record, so
    each Gram block is eliminated once per system, whichever cells read
    it.  The left side is [S'_lo | S'_hi] (phi^t (x) I) = [S'_lo |
    S'_hi] @ [[phi11 I, phi21 I], [phi12 I, phi22 I]] with S' =
    q_rows(n - 1, m + 1), and the
    reconstruction is one product of [q_rows(n - 1, m) | q_rows(n, m) |
    q_rows(n + 1, m)] with the stacked int coefficients
    (matmul_const_rows); the two are compared by cross multiplication.
    The rank of [A_top; A_bot] is read from _echelon on its int rows.
    With a rule the check is numeric and reads the full w: each
    projection is q_k^t w evaluated on the rule's nodes straight from
    the int product kernel (eval_product), with no Fraction product
    formed, then summed against the rule's weights.
    """
    if n < 1 or m < 0:
        raise ValueError("property e needs n >= 1 and m >= 0")
    f = sys.family
    notes = []
    if rule is None:
        parts = _e_by_parts(sys, n, m)
        if parts is not False:
            return _report("e", f.name, n, m, not parts, notes="; ".join(parts))
        ok = True
        lo, hi = row_halves(sys.q_rows(n - 1, m + 1))
        c = lo.cols
        lhs, dl = matmul_numerators(hstack(lo, hi),
                                    kron(f.phi.transpose(), PolyMatrix.identity(c)))
        w = hstack(*row_halves(sys.weighted_rows(n - 1, m + 1)))
        projs = integrate_rows([sys.counted_rows(k, m) for k in range(n + 2)], w, f)
        for k, (rows, _) in enumerate(projs[:n - 1]):
            if any(map(any, rows)):
                ok = False
                notes.append(f"projection on stack {k} survives")
        coeffs = []
        for k in range(n - 1, n + 2):
            rec = sys.gram_record(k, m)
            if rec.inv is None:
                return _report("e", f.name, n, m, False,
                               notes=f"level gram singular at stack {k}")
            rows, d = projs[k]
            coeffs.append(reduce_rows(int_matmul(rec.inv, rows, 2 * c), rec.inv_den * d))
        da = lcm(*(d for _, d in coeffs))
        stacked = [[v * (da // d) for v in row] for rows, d in coeffs for row in rows]
        recon, dr = matmul_const_rows(hstack(*(sys.q_rows(k, m) for k in range(n - 1, n + 2))),
                                      stacked, da, 2 * c)
        if not same_numerators(lhs, dl, recon, dr):
            ok = False
            notes.append("three term reconstruction misses the left side")
        # rank of [A_top; A_bot], the coefficient of I_2 (x) q_(n-1)
        low = coeffs[0][0]
        got = len(_echelon([row[:c] for row in low] + [row[c:] for row in low], c)[1])
        if got != c:
            ok = False
            notes.append(f"lowest coefficient rank {got}, want {c}")
        return _report("e", f.name, n, m, ok, notes="; ".join(notes))
    qprime = sys.q(n - 1, m + 1)
    left = kron(f.phi, PolyMatrix.identity(2 ** m))
    mid = sys.weighted(n - 1, m + 1)
    w = hstack(mid.top_half(), mid.bottom_half())
    import numpy as np

    tail = 0.0
    coeffs = {}
    for k in range(n + 2):
        # the projections [N_top | N_bot] of w on q_k, side by side
        nk = np.einsum("rcq,q->rc", eval_product(sys.q(k, m).transpose(), w, rule),
                       rule.weights)
        gram = sys.gram(k, m, rule)
        if k == n:
            tol = RESIDUAL_REL * float(np.abs(np.diag(gram)).max())
        cols = nk.shape[1] // 2
        ak = np.vstack([np.linalg.solve(gram, nk[:, :cols]),
                        np.linalg.solve(gram, nk[:, cols:])])
        if k <= n - 2:
            tail = max(tail, float(np.abs(ak).max()))
        else:
            coeffs[k] = ak
    if tail > tol:
        notes.append("projection on a low stack survives")
    lhs_vals = eval_product(left, qprime, rule)
    acc = np.zeros_like(lhs_vals)
    half = 2 ** m
    for k, ak in coeffs.items():
        qk_vals = sys.values(k, m, rule)
        dim = ak.shape[0] // 2
        acc[:half] += np.einsum("rsq,sc->rcq", qk_vals, ak[:dim])
        acc[half:] += np.einsum("rsq,sc->rcq", qk_vals, ak[dim:])
    recon_res = float(np.abs(lhs_vals - acc).max())
    if recon_res > tol:
        notes.append("three term reconstruction misses the left side")
    sv = np.linalg.svd(coeffs[n - 1], compute_uv=False)
    rank = int(np.sum(sv > RANK_REL * sv[0])) if sv.size else 0
    want = n + m + 1
    if rank != want:
        notes.append(f"lowest coefficient rank {rank}, want {want}")
    residual = max(tail, recon_res)
    ok = residual <= tol and rank == want
    return _report("e", f.name, n, m, ok, "numeric", residual, tol, "; ".join(notes))


# ---------------------------------------------------------------------------
# the full verification grid


def _expand_properties(props):
    if isinstance(props, str):  # one token, not a sequence of characters
        props = (props,)
    chosen = set()
    for p in SELECTABLE_PROPERTIES if props is None else props:
        if p == "aux":
            chosen.update(AUX_PROPERTIES)
        elif p in PROPERTY_ORDER:
            chosen.add(p)
        else:
            raise ValueError(f"unknown property token {p!r}; choose from "
                             f"{', '.join(SELECTABLE_PROPERTIES + AUX_PROPERTIES)}")
    if not chosen:  # an empty selection would pass vacuously
        raise ValueError("no property selected")
    return chosen


def _guarded(prop, family, n, m, mode, fn):
    try:
        return fn()
    except Exception as exc:  # a crash is not a verdict: keep the grid running
        return PropertyReport(prop, family, n, m, "error", 1.0, 0.0, mode,
                              f"error: {type(exc).__name__}: {exc}")


def verify_all(f: WeightFamily, nmax: int = 4, mmax: int = 2,
               mode: str = "auto", properties=None,
               quad_order: int = 20):
    """Run every selected checker over the (n, m) grid, never raising.

    Returns the list of PropertyReport in taxonomy order (PROPERTY_ORDER),
    each property's cells in (n, m) order, every cell built through one
    guard: a checker that raises gives status "error", never "fail".
    One table names each property's cells, reported mode, prerequisites
    and checker, and the chosen rows' prerequisites are all a run builds
    and checks up front: the drift "tower", built as deep as (c) and (d)
    read it (mmax for (c), nmax - 1 for (d)) and to level 1 for (b) and
    lemma2, whose verdicts are level-free: byparts.level_pearson_check,
    PsiTower.closed_form_ok; lemma2 keeps one cell per level m = 1 ..
    max(1, mmax, nmax - 1).  (b)'s and (e)'s by-parts operator reads
    levels up to mmax and extends the tower itself (psi_tower); the monic
    "system" P_0 .. P_N, N = nmax + mmax + 1, whose construction reads
    moments up to degree 2N - 1; the "next gram" block gram(nmax + 1,
    mmax), of degree 2 (nmax + 1) + mmax deg(phi), that exact (e) alone
    integrates, at the corner (nmax, mmax) where it contracts or deg phi
    < 2, a depth that also covers the by-parts check there; and, in
    numeric mode, the Gauss "rule" that (b) and (e) read, built once
    after the system.  mode "auto" is exact when the
    family has a moment oracle.  properties is None (every selectable
    token), one token, or a sequence of tokens; "aux" stands for the four
    structure tokens; an empty sequence raises ValueError, and so does a
    selection with no cell on the grid, (b) alone at mmax = 0.  prop1 runs
    identity_suite once per n, and every cell of that n reads it: each
    identity is decided at level 0 for every m, so no cell draws a
    random matrix and every verdict is a function of the family and the
    cell.  Before any
    build, a run that reads a rule raises InvalidParameterError on a
    quad_order below the grid floor nmax + mmax + 2 (only when the
    family has an oracle), then on a domain without a Gauss rule; a run
    that reads the system builds the family's moment table
    (orthosys.hankel_table) to every degree it reads, the one table
    every exact integral of the run reads; the first moment the build
    misses raises OracleUnavailableError naming it and the depth the
    grid needs.  A cell whose prerequisite could not be
    built (no oracle, no system) skips its checker and fails with the
    construction error in its note.  Bad arguments raise ValueError.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if mmax < 0:
        raise ValueError("mmax must be nonnegative")
    if mode == "auto":
        resolved = "exact" if f.has_oracle() else "numeric"
    elif mode in ("exact", "numeric"):
        resolved = mode
    else:
        raise ValueError(f"unknown mode {mode!r}")
    chosen = _expand_properties(properties)
    system = rule = tower = None
    suites = {}  # n -> identity_suite(n), whose verdicts hold at every level m

    def lemma1(n, m):
        d = f.d_matrix()
        d1, d2 = (PolyMatrix.column([d[0, j], d[1, j]]) for j in (0, 1))
        return _report("lemma1", f.name, 0, m, interleaved_det_check(d1, d2, m))

    def prop1(n, m):
        if n not in suites:
            suites[n] = identity_suite(n)
        bad = sorted(k for k, v in suites[n].items() if not v)
        return _report("prop1", f.name, n, m, not bad,
                       notes="; ".join(f"{k} fails" for k in bad))

    grid = [(n, m) for n in range(nmax + 1) for m in range(mmax + 1)]
    levels = [(n, m) for n, m in grid if n >= 1]
    numeric = resolved == "numeric"
    # the deepest drift tower level read by each row that reads the tower
    tower_levels = {"b": min(1, mmax), "c": mmax, "d": nmax - 1, "lemma2": 1}
    # property -> (cells, reported mode, prerequisites, checker); c and d are exact only
    table = {
        "a": ([(0, 0)], "exact", (), lambda n, m: check_a(f)),
        "b": ([(n, m) for n, m in levels if m >= 1], resolved,
              ("system", "tower", "rule") if numeric else ("system", "tower"),
              lambda n, m: check_b(system, n, m, rule)),
        "c": (levels, "exact", ("system", "tower"), lambda n, m: check_c(system, n, m)),
        "d": ([(n, m) for n, m in levels if m == 0], "exact", ("system", "tower"),
              lambda n, m: check_d(system, n)),
        "e": (levels, resolved, ("system", "rule") if numeric else ("system", "next gram"),
              lambda n, m: check_e(system, n, m, rule)),
        "phi_conditions": ([(0, 0)], "exact", (), lambda n, m: _report(
            "phi_conditions", f.name, 0, 0, check_phi_conditions(f))),
        "lemma1": ([(0, m) for m in range(1, 6)], "exact", (), lemma1),
        "lemma2": ([(0, m) for m in range(1, max(1, mmax, nmax - 1) + 1)], "exact", ("tower",),
                   lambda n, m: _report("lemma2", f.name, 0, m, tower.closed_form_ok)),
        "prop1": (grid, "exact", (), prop1),
    }
    if not any(table[p][0] for p in chosen):  # a run with no cell would pass vacuously
        raise ValueError(f"no chosen property has a cell on the grid n<={nmax} m<={mmax}")
    needs = {p for prop in chosen for p in table[prop][2]}
    if "rule" in needs:
        floor = nmax + mmax + 2  # without an oracle no system is built to read the rule
        if f.has_oracle() and quad_order < floor:
            raise InvalidParameterError(
                f"quad_order {quad_order} below the grid floor {floor}")
        check_quadrature_domain(f)
    if "system" in needs:
        moment_depth = 2 * (nmax + mmax + 1) - 1
        if "next gram" in needs:
            moment_depth = max(moment_depth, 2 * (nmax + 1) + max(f.phi.degree, 0) * mmax)
        if f.has_oracle():  # the one table every exact integral of the run reads
            try:
                hankel_table(f, moment_depth + 1)
            except OracleUnavailableError as exc:  # WeightFamily.moment names (i, j)
                raise OracleUnavailableError(
                    f"moment ({exc.moment[0]},{exc.moment[1]}) unavailable; the grid "
                    f"n<={nmax} m<={mmax} needs every moment up to degree {moment_depth}"
                ) from exc
    # prerequisite -> the note of the cells it blocks, for each one that failed
    failed = {}
    if "tower" in needs:
        try:
            tower = psi_tower(f, max(tower_levels[p] for p in chosen if p in tower_levels))
        except Exception as exc:
            failed["tower"] = f"drift tower construction failed: {type(exc).__name__}: {exc}"
    if "system" in needs:
        try:
            system = build_monic(f, nmax + mmax + 1)
        except Exception as exc:
            failed["system"] = f"system construction failed: {type(exc).__name__}: {exc}"
    if "rule" in needs and system is not None:
        rule = make_quadrature(f, quad_order)
    reports = []
    for prop in PROPERTY_ORDER:
        if prop not in chosen:
            continue
        cells, cell_mode, prereqs, check = table[prop]
        blocked = next((failed[p] for p in prereqs if p in failed), "")
        for n, m in cells:
            if blocked:
                reports.append(PropertyReport(prop, f.name, n, m, "fail", 1.0,
                                              0.0, cell_mode, blocked))
            else:
                reports.append(_guarded(prop, f.name, n, m, cell_mode,
                                        lambda: check(n, m)))
    return reports
