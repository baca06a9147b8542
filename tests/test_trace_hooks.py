"""The library names that the benchmark's per-layer tracer wraps.

bench/tracing.py times the library from outside: for one traced pass it
replaces each function below at every module global or class attribute
that holds it, and its wrappers read some arguments by name.  A
refactor that renames or removes one of them, or changes those
parameters, breaks `python3 bench/run.py --trace 1` without failing any
other test.
"""
from __future__ import annotations

import inspect

import pytest

from copoly2d import basisops, characterize, cli, matpoly, orthosys, polycore, weights
from copoly2d.weights import builtin

# (owner, name, leading parameter names the tracer's hook relies on)
HOOKS = [
    (polycore, "_mul_into", ("acc", "ta", "tb")),
    (matpoly, "rat_solve", ("a", "b")),
    (matpoly, "det_exact", ()),
    (matpoly, "rank_exact", ()),
    (matpoly, "solve_columns", ()),
    (matpoly, "kron_power", ("a", "m")),
    (matpoly.PolyMatrix, "__matmul__", ()),
    (orthosys, "build_monic", ()),
    (orthosys, "inner", ("a", "b", "m", "f", "mode", "rule")),
    (orthosys, "integrate_matrix", ()),
    (orthosys, "eval_entries", ()),
    (orthosys, "integrate_matrix_numeric", ()),
    (weights, "make_quadrature", ()),
    (weights.WeightFamily, "moment", ("self", "i", "j")),
    (basisops, "identity_suite", ()),
    *[(characterize, name, ()) for name in (
        "check_b", "check_c", "check_d", "check_e", "psi_tower",
        "lambda_via_operator", "lambda_via_formula")],
    (cli, "render_json", ()),
]


@pytest.mark.parametrize("owner, name, params", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n, _ in HOOKS])
def test_traced_name_exists(owner, name, params):
    fn = getattr(owner, name, None)
    assert callable(fn), f"{name} is gone; bench/tracing.py wraps it"
    got = tuple(inspect.signature(fn).parameters)[:len(params)]
    assert got == params


def test_moment_cache_is_where_the_tracer_reads_misses():
    f = builtin("product_hermite")
    f.moment(2, 0)
    assert (2, 0) in f._mcache
