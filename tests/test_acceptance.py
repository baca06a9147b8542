"""Acceptance gate: ten criteria, one test (and one verdict line) each.

Each test prints a single ACCEPTANCE line so the criterion verdicts can
be read off a captured run.

Criterion 2 runs properties (a)-(e) exactly on the whole n<=4, m<=2 grid
of eight built-in instances and asserts, cell by cell, the verdict that
the Pearson data predicts.  The checkers state (c), (d) and (e) above
level zero without two kinds of terms that differentiating the level-zero
statements produces:

  (c), (d)  The level-m operator has no zero-order term.  The m-fold
            derivative of the level-zero equation carries C_m Q, with
            C_0 = 0 and C_m = I_2 (x) C_{m-1} + [d_k Psi_i^(m-1)]_{k,i}
            (outer block index the newest derivative, as in the stacks).
            A constant eigenvalue matrix without that term exists only
            where C_m acts on the stack as a scalar: for m >= 1 the drift
            matrix must be d*I, and for m >= 2 the quadratic part of phi
            must also be a*[[x^2, xy], [xy, y^2]].  (d) at n composes the
            levels below n, so it fails from the first level that (c)
            fails at.
  (e)       For m >= 1 the m-fold derivative of the level-zero relation
            picks up Leibniz terms in the derivatives of phi, which the
            three-term form has no place for; they vanish only for
            constant phi.

(a), (b) and every m = 0 cell pass.  The prediction is computed from
f.phi and f.d_matrix() alone, never from family names or checker output.
Each predicted failure is certified: a failing (c) cell, and the first
failing level of a failing (d) cell, satisfies
op_m(Q) + C_m Q + Q Lambda_{n+m} = 0 exactly, and a failing (e) cell
misses only its three-term reconstruction while its level-zero cell
(n+m, 0) passes.  A second test holds the same rule on the (3, 2) grid
of built-in families with drawn admissible parameters, half the
product_jacobi draws on a + b = c + d.
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_basisops import random_rational_matrix
from test_characterize import oracle_psi_tower

from copoly2d.basisops import identity_suite, x_vec
from copoly2d.characterize import (
    NoConstantSolution,
    check_a,
    check_e,
    interleaved_det_check,
    lambda_via_formula,
    lambda_via_operator,
    psi_tower,
    rodrigues_reconstruct,
    verify_all,
)
from copoly2d.matpoly import PolyMatrix, hstack, kron, vstack
from copoly2d.orthosys import OrthoSystem, build_monic
from copoly2d.polycore import parse_poly
from copoly2d.weights import (
    FamilyLoadError,
    builtin,
    export_family,
    load_family,
    make_quadrature,
)

ALL_INSTANCES = [
    "product_hermite",
    "product_laguerre(0,0)",
    "product_laguerre(1,2)",
    "hermite_laguerre(0)",
    "product_jacobi(0,0,0,0)",
    "product_jacobi(1,2,0,0)",
    "triangle(0,0,0)",
    "triangle(1,1,1)",
]


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {state}{tail}")


def test_criterion_01_basis_identity_suite():
    # each verdict of identity_suite(n) holds at every level m
    t0 = time.time()
    bad = []
    for n in range(7):
        bad.extend((n, key) for key, ok in identity_suite(n).items() if not ok)
    elapsed = time.time() - t0
    ok = not bad and elapsed < 10.0
    verdict(1, "basis identity suite n<=6, every level m", ok, f"{elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 10.0


DRIFT_NOT_SCALAR = "drift matrix is not d*I"
PHI_NOT_RADIAL = "quadratic part of phi is not a*[[x^2, xy], [xy, y^2]]"
PHI_NOT_CONSTANT = "phi is not constant"


def _c_obstruction(f, m):
    """The condition the level-m stacks of f break for (c), or None."""
    if m == 0:
        return None
    d = f.d_matrix()
    if not (d[0, 1].is_zero and d[1, 0].is_zero and d[0, 0] == d[1, 1]):
        return DRIFT_NOT_SCALAR
    if m >= 2:
        a = f.phi[0, 0].coeff(2, 0)
        want = {(0, 0): (a, 0, 0), (0, 1): (0, a, 0), (1, 1): (0, 0, a)}
        for (i, j), coeffs in want.items():
            got = tuple(f.phi[i, j].coeff(*mono) for mono in ((2, 0), (1, 1), (0, 2)))
            if got != coeffs:
                return PHI_NOT_RADIAL
    return None


def _first_failing_level(f, n):
    """The lowest level below n at which (c) fails, or None."""
    return next((k for k in range(n) if _c_obstruction(f, k)), None)


def _predicted_obstruction(f, prop, n, m):
    """The condition a cell breaks, or None where the rule says it passes."""
    if prop == "c":
        return _c_obstruction(f, m)
    if prop == "d":
        k = _first_failing_level(f, n)
        return None if k is None else _c_obstruction(f, k)
    if prop == "e" and m >= 1:
        const = all(f.phi[i, j].total_degree <= 0 for i in (0, 1) for j in (0, 1))
        return None if const else PHI_NOT_CONSTANT
    return None


def _zero_order_term(tower, m):
    """C_m: C_0 = 0, C_m = I_2 (x) C_{m-1} + [d_k Psi_i^(m-1)]_{k,i}.

    tower is the dense drift tower of oracle_psi_tower.
    """
    c = PolyMatrix.zeros(1, 1)
    for lev in tower[:m]:
        c = kron(PolyMatrix.identity(2), c) + vstack(
            hstack(lev["psi1"].dx(), lev["psi2"].dx()),
            hstack(lev["psi1"].dy(), lev["psi2"].dy()),
        )
    return c


def _level_operator(f, level, q):
    """phi11 q_xx + 2 phi12 q_xy + phi22 q_yy + Psi_1 q_x + Psi_2 q_y, on a dense level."""
    qx, qy = q.dx(), q.dy()
    out = qx.dx().scale(f.phi[0, 0]) + qx.dy().scale(f.phi[0, 1] * 2)
    out = out + qy.dy().scale(f.phi[1, 1])
    return out + level["psi1"] @ qx + level["psi2"] @ qy


def _eigen_certificate(f, sys_, tower, n, m):
    """op_m(Q) + C_m Q + Q Lambda_{n+m} == 0 exactly, for Q = Q_{n,m}.

    Lambda_{n+m} is the level-zero eigenvalue matrix of P_{n+m}; the
    identity is the m-fold derivative of the level-zero equation.
    """
    q = sys_.q(n, m)
    lam = lambda_via_operator(sys_, n + m, 0)
    image = _level_operator(f, tower[m], q) + _zero_order_term(tower, m) @ q
    return (image + q @ lam).is_zero


def test_criterion_02_structural_properties_all_instances():
    t0 = time.time()
    mismatched = []
    uncertified = []
    failing = []
    for ref in ALL_INSTANCES:
        f = builtin(ref)
        reports = verify_all(f, nmax=4, mmax=2, mode="exact",
                             properties=("a", "b", "c", "d", "e"))
        assert not [r for r in reports if r.notes.startswith("error:")]
        assert all(r.mode == "exact" for r in reports)
        assert all(r.residual == 0.0 for r in reports)
        # degree n + m + 1 <= 7 reaches the level-zero (e) cells (n+m, 0);
        # depth 3 reaches the top level of (d) at n = 4
        sys_ = build_monic(f, 7)
        tower = oracle_psi_tower(f, 3)
        e_level0 = {k: check_e(sys_, k, 0).status for k in range(2, 7)}
        for r in reports:
            cell = (ref, r.property, r.n, r.m)
            broken = _predicted_obstruction(f, r.property, r.n, r.m)
            if (r.status == "pass") != (broken is None):
                mismatched.append((*cell, r.status, r.notes))
                continue
            if broken is None:
                continue
            failing.append((*cell, r.notes, broken))
            if r.property == "c":
                ok = (r.notes.startswith("no constant eigenvalue matrix: "
                                         "inconsistent coefficient system")
                      and _eigen_certificate(f, sys_, tower, r.n, r.m))
            elif r.property == "d":
                k = _first_failing_level(f, r.n)
                ok = (r.notes.startswith(f"level {k}: no constant eigenvalue matrix")
                      and _eigen_certificate(f, sys_, tower, r.n - k, k))
            else:
                ok = (r.notes == "three term reconstruction misses the left side"
                      and e_level0[r.n + r.m] == "pass")
            if not ok:
                uncertified.append(cell)
    elapsed = time.time() - t0
    ok = not mismatched and not uncertified
    verdict(2, "properties a-e match the Pearson-data rule on all instances n<=4 m<=2",
            ok, f"{elapsed:.1f}s, {len(failing)} predicted failing cells")
    for ref, prop, n, m, notes, broken in failing:
        print(f"    {ref}: {prop} at n={n} m={m}: {notes} [{broken}]")
    assert elapsed < 120.0
    assert not mismatched, mismatched
    assert not uncertified, uncertified


_PARAM = st.fractions(min_value=-1, max_value=3, max_denominator=7).filter(lambda v: v > -1)


@st.composite
def _admissible_families(draw):
    """A built-in family with drawn parameters above -1; half the product_jacobi
    draws put d on a + b = c + d where that keeps d above -1."""
    name, k = draw(st.sampled_from([("product_laguerre", 2), ("hermite_laguerre", 1),
                                    ("triangle", 3), ("product_jacobi", 4)]))
    params = draw(st.lists(_PARAM, min_size=k, max_size=k))
    if name == "product_jacobi" and draw(st.booleans()):
        a, b, c, _ = params
        if a + b - c > -1:
            params[3] = a + b - c
    return builtin(name, params)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_admissible_families())
def test_criterion_02_rule_holds_on_drawn_parameters(f):
    # criterion 2's rule reads f.phi and f.d_matrix() alone, so it must
    # predict every exact verdict of a family with any admissible parameters
    reports = verify_all(f, nmax=3, mmax=2, mode="exact", properties=("a", "b", "c", "d", "e"))
    mismatched = [(r.property, r.n, r.m, r.status, r.notes) for r in reports
                  if (r.status == "pass") != (_predicted_obstruction(f, r.property, r.n, r.m)
                                              is None)]
    assert not mismatched, (f.name, mismatched)


def test_criterion_03_degree_one_anchor():
    bad = []
    for ref in ALL_INSTANCES:
        f = builtin(ref)
        sys_ = build_monic(f, 2)
        want = -f.d_matrix()
        if lambda_via_operator(sys_, 1, 0) != want:
            bad.append((ref, "operator"))
        if lambda_via_formula(f, 1, 0) != want:
            bad.append((ref, "formula"))
    verdict(3, "degree-one eigenvalue anchor, both routes", not bad)
    assert not bad, bad


def test_criterion_04_eigenvalue_cross_validation():
    disagreements = []
    non_composing = []
    for ref in ALL_INSTANCES:
        f = builtin(ref)
        sys_ = build_monic(f, 7)
        for n in range(1, 5):
            for m in range(3):
                try:
                    lam = lambda_via_operator(sys_, n, m)
                except NoConstantSolution:
                    continue
                try:
                    other = lambda_via_formula(f, n, m)
                except Exception as exc:
                    non_composing.append((ref, n, m, str(exc)))
                    continue
                if other != lam:
                    disagreements.append((ref, n, m))
    detail = "formula path composed at every grid cell" if not non_composing \
        else f"non-composing cells: {non_composing}"
    verdict(4, "operator vs leading-symbol eigenvalues", not disagreements, detail)
    assert not disagreements, disagreements


def test_criterion_05_negative_controls(tmp_path):
    f = builtin("product_hermite")
    outcomes = []

    pert = dataclasses.replace(f, psi1=f.psi1 + parse_poly("1"))
    outcomes.append(("perturbed drift fails a", check_a(pert).status == "fail"))

    doc = export_family(f, moment_degree=6)
    doc["phi"][0][1] = "x"
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc))
    try:
        load_family(str(path))
        outcomes.append(("asymmetric weight matrix rejected", False))
    except FamilyLoadError:
        outcomes.append(("asymmetric weight matrix rejected", True))

    cubic = dataclasses.replace(f, phi=PolyMatrix.from_rows([
        [parse_poly("1 + x^3"), parse_poly("x*y")],
        [parse_poly("x*y"), parse_poly("1")],
    ]))
    rep = check_e(build_monic(cubic, 6), 3, 0)
    outcomes.append((
        "cubic weight matrix leaks low projections",
        rep.status == "fail" and "projection on stack" in rep.notes,
    ))

    # degree-3 column of random cubics: its stack q(2, 1) is no gradient stack
    top = random_rational_matrix(4, 4, random.Random(7)) @ x_vec(3)
    sys_ = OrthoSystem(f, [*(build_monic(f, 2).p(k) for k in range(3)), top])
    try:
        lambda_via_operator(sys_, 2, 1)
        outcomes.append(("random stack has no eigenvalue matrix", False))
    except NoConstantSolution:
        outcomes.append(("random stack has no eigenvalue matrix", True))

    ok = all(flag for _, flag in outcomes)
    verdict(5, "four negative controls", ok,
            "; ".join(name for name, flag in outcomes if not flag) or "all four behaved")
    assert ok, outcomes


def test_criterion_06_interleaved_determinant_identity():
    rng = random.Random(20240817)
    bad = []
    for trial in range(50):
        d1 = random_rational_matrix(2, 1, rng)
        d2 = random_rational_matrix(2, 1, rng)
        for m in range(1, 6):
            if not interleaved_det_check(d1, d2, m):
                bad.append((trial, m))
    verdict(6, "interleaved determinant identity, 50 draws", not bad)
    assert not bad, bad


def test_criterion_07_drift_tower_closed_form():
    bad = []
    for ref in ALL_INSTANCES:
        # one comparison decides lemma2 at every level m >= 1 (psi_tower)
        if not psi_tower(builtin(ref), 3).closed_form_ok:
            bad.append(ref)
    verdict(7, "drift tower equals closed form m<=3", not bad)
    assert not bad, bad


def test_criterion_08_quadrature_fidelity():
    f = builtin("product_jacobi(1/2,1/2,1/2,1/2)")
    order = 20
    rule = make_quadrature(f, order)
    worst = 0.0
    for total in range(2 * order - 1 + 1):
        for i in range(total + 1):
            j = total - i
            exact = float(f.moment(i, j))
            got = float(np.sum(rule.weights * rule.nodes_x ** i * rule.nodes_y ** j))
            # moments are normalized by the mass, so measuring the
            # exactly-zero odd moments against scale one keeps the
            # comparison mass-relative
            rel = abs(got - exact) / max(abs(exact), 1.0)
            worst = max(worst, rel)
    moments_ok = worst <= 1e-12

    props = ("a", "b", "c", "d", "e")
    base = verify_all(f, nmax=3, mmax=1, mode="numeric", properties=props,
                      quad_order=order)
    doubled = verify_all(f, nmax=3, mmax=1, mode="numeric", properties=props,
                         quad_order=2 * order)
    key = lambda r: (r.property, r.n, r.m)
    stable = {key(r): r.status for r in base} == {key(r): r.status for r in doubled}

    ok = moments_ok and stable
    verdict(8, "quadrature fidelity and verdict stability", ok,
            f"worst moment error {worst:.2e}; verdicts stable: {stable}")
    assert moments_ok, worst
    assert stable


def test_criterion_09_rodrigues_reconstruction():
    results = {}
    for ref in ("product_hermite", "product_laguerre(0,0)"):
        f = builtin(ref)
        out = rodrigues_reconstruct(build_monic(f, 3), 2)
        results[ref] = out
    exact = all(out["reconstruction_exact"] for out in results.values())
    signs = {out["final_sign"] for out in results.values()}
    consistent = len(signs) == 1
    ok = exact and consistent
    verdict(9, "degree-two Rodrigues reconstruction", ok,
            f"recorded sign {signs.pop() if consistent else sorted(signs)}")
    assert exact, results
    assert consistent, results


def test_criterion_10_cli_byte_determinism():
    argv = [sys.executable, "-m", "copoly2d.cli", "verify",
            "--family", "product_hermite", "--nmax", "4", "--mmax", "2",
            "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and first.stdout)
    verdict(10, "verify CLI byte determinism", bool(ok),
            f"{len(first.stdout)} bytes")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
