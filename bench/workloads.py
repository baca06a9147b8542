"""Workload definitions, seeded inputs and output checks for the benchmark.

A workload is a list of jobs, one per family instance, plus a checker.
The jobs drive the library from outside, through the names a user
reaches (`cli.main`, `characterize.verify_all`, `orthosys.build_monic`),
and build every family afresh with `weights.builtin`, because nothing
is cached at module level and a CLI user pays the moment-cache fill on
every run.

The seed picks the rational parameters of each parametrised family from
a small fixed pool; seed 0 gives the canonical instance (the first pool
entry) of every family.  The pools hold instances of similar cost, so
that runs with different seeds measure comparable amounts of work.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from typing import Callable, NamedTuple

POOLS = {
    "product_hermite": [()],
    "product_laguerre": [("1", "2"), ("2", "1"), ("1", "1"), ("0", "1")],
    "hermite_laguerre": [("1",), ("2",)],
    "product_jacobi": [("1/2", "1/2", "1/2", "1/2"), ("3/2", "3/2", "3/2", "3/2")],
    "triangle": [("1", "1", "1"), ("1", "2", "1")],
}

FIVE = ("product_hermite", "product_laguerre", "hermite_laguerre",
        "product_jacobi", "triangle")

DEFAULT_GRID = (4, 2)
STRETCH_GRID = (5, 3)
DEEP_DEGREE = 12
QUAD_ORDER = 20

# Properties that hold for every built-in family on the whole grid, for
# any parameters (README, "What actually holds").
ALWAYS_PASS = ("a", "b", "phi_conditions", "lemma1", "lemma2", "prop1")
EXACT_ONLY = ("a", "phi_conditions", "lemma1", "lemma2", "prop1")


def draw_params(seed: int) -> dict:
    """Family name -> parameter strings; seed 0 is the canonical set."""
    if seed == 0:
        return {name: pool[0] for name, pool in POOLS.items()}
    rng = random.Random(seed)
    return {name: pool[rng.randrange(len(pool))] for name, pool in POOLS.items()}


def instance_key(name: str, params) -> str:
    return f"{name}({','.join(params)})" if params else name


def _cells(reports) -> list:
    return [[r.property, r.n, r.m, r.status, r.notes] for r in reports]


# ---------------------------------------------------------------------------
# passes: a pass is a list of jobs, one per family instance; each job
# returns that instance's raw output and does all of its work inside.
# Jobs call the library through module attributes, looked up at call
# time, so that tracing.py sees its wrappers.


def cli_verify_json(name: str, params) -> tuple:
    """`copoly2d verify --family NAME --params P --format json`, in-process."""
    from copoly2d import cli
    argv = ["verify", "--family", name, "--format", "json"]
    if params:
        argv += ["--params", ",".join(params)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def jobs_verify_default(params: dict) -> list:
    return [(instance_key(n, params[n]), lambda n=n: cli_verify_json(n, params[n]))
            for n in FIVE]


def jobs_verify_stretch(params: dict) -> list:
    from copoly2d import characterize, weights
    nmax, mmax = STRETCH_GRID
    p = params["triangle"]
    return [(instance_key("triangle", p), lambda: characterize.verify_all(
        weights.builtin("triangle", p), nmax=nmax, mmax=mmax, mode="exact"))]


def jobs_construct_deep(params: dict) -> list:
    from copoly2d import orthosys, weights
    return [(instance_key(n, params[n]), lambda n=n: orthosys.build_monic(
        weights.builtin(n, params[n]), DEEP_DEGREE))
        for n in ("triangle", "product_jacobi")]


def jobs_verify_numeric(params: dict) -> list:
    from copoly2d import characterize, weights
    nmax, mmax = DEFAULT_GRID
    return [(instance_key(n, params[n]), lambda n=n: characterize.verify_all(
        weights.builtin(n, params[n]), nmax=nmax, mmax=mmax, mode="numeric",
        quad_order=QUAD_ORDER))
        for n in FIVE]


def run_pass(jobs: list, job_context=contextlib.nullcontext) -> dict:
    out = {}
    for key, job in jobs:
        with job_context():
            out[key] = job()
    return out


# ---------------------------------------------------------------------------
# output digests, shared by the checks and by make_refs.py


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def poly_text(p) -> str:
    return ";".join(f"{i},{j}:{c}" for (i, j), c in sorted(p.terms.items()))


def degree_digests(system) -> list:
    """sha256 of the exact coefficients of P_1 .. P_N, one per degree."""
    out = []
    for n in range(1, system.nmax + 1):
        col = system.p(n)
        text = "|".join(poly_text(col[r, 0]) for r in range(col.rows))
        out.append(hashlib.sha256(text.encode("ascii")).hexdigest())
    return out


def coeff_bits_max(system) -> int:
    """Largest numerator or denominator bit length in P_0 .. P_N."""
    best = 0
    for n in range(system.nmax + 1):
        col = system.p(n)
        for r in range(col.rows):
            for c in col[r, 0].terms.values():
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def reference_of(kind: str, output) -> dict:
    """The pinned form of one instance's output (see make_refs.py)."""
    if kind == "verify":
        status, text = output
        doc = json.loads(text)
        cells = [[r["property"], r["n"], r["m"], r["status"], r["notes"]]
                 for r in doc["reports"]]
        return {"exit": status, "report_sha256": report_digest(text), "cells": cells}
    if kind == "stretch":
        return {"cells": _cells(output)}
    if kind == "construct":
        return {"degrees": degree_digests(output),
                "p_coeff_bits_max": coeff_bits_max(output)}
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# checks


class Check:
    """Outcome of checking one pass: ops attempted, ops failed, problems.

    A failed op is a cell (a degree for construct-deep) whose verdict
    differs from its reference.  A problem makes the run incorrect: an
    exact output that differs from its pinned reference, a checker that
    crashed, or a broken parameter-independent invariant.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.failed_ops: list = []
        self.unpinned: list = []

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.failed_ops += other.failed_ops
        self.unpinned += other.unpinned


def _invariants(key: str, cells, must_pass, check: Check) -> int:
    """Record broken invariants; returns the number of crashed cells."""
    crashed = 0
    for prop, n, m, status, notes in cells:
        if notes.startswith("error:"):
            crashed += 1
            check.problems.append(f"{key}: {prop} at ({n},{m}) crashed: {notes}")
        elif prop in must_pass and status != "pass":
            check.problems.append(f"{key}: {prop} at ({n},{m}) does not pass")
    return crashed


def _unpinned(key: str, cells, crashed: int, check: Check) -> None:
    check.attempted += len(cells)
    check.failed += crashed
    check.unpinned.append(key)


def _compare_cells(key: str, got, want, check: Check, fields: slice,
                   exact: bool) -> None:
    """Count cells whose verdict differs; exact mismatches are problems."""
    check.attempted += len(got)
    if len(got) != len(want):
        check.failed += len(got)
        check.problems.append(f"{key}: {len(got)} cells, reference has {len(want)}")
        return
    for g, w in zip(got, want):
        if g[:3] != w[:3]:
            check.failed += 1
            check.problems.append(f"{key}: cell {g[:3]} where reference has {w[:3]}")
        elif g[fields] != w[fields]:
            check.failed += 1
            check.failed_ops.append(f"{key}: {g[0]} at ({g[1]},{g[2]}) "
                                    f"{g[3]}, exact reference {w[3]}")
            if exact:
                check.problems.append(f"{key}: {g[0]} at ({g[1]},{g[2]}) "
                                      f"reads {g[3:]} where reference has {w[3:]}")


def check_verify_default(out: dict, refs: dict) -> Check:
    check = Check()
    for key, (status, text) in out.items():
        got = reference_of("verify", (status, text))
        crashed = _invariants(key, got["cells"], ALWAYS_PASS, check)
        want = refs["verify"].get(key)
        if want is None:
            _unpinned(key, got["cells"], crashed, check)
            continue
        _compare_cells(key, got["cells"], want["cells"], check, slice(3, 5), True)
        if got["exit"] != want["exit"]:
            check.problems.append(f"{key}: exit status {got['exit']}, want {want['exit']}")
        if got["report_sha256"] != want["report_sha256"]:
            check.problems.append(f"{key}: JSON report digest differs from reference")
    return check


def check_verify_stretch(out: dict, refs: dict) -> Check:
    check = Check()
    for key, reports in out.items():
        cells = _cells(reports)
        crashed = _invariants(key, cells, ALWAYS_PASS, check)
        want = refs["stretch"].get(key)
        if want is None:
            _unpinned(key, cells, crashed, check)
            continue
        _compare_cells(key, cells, want["cells"], check, slice(3, 5), True)
    return check


def check_verify_numeric(out: dict, refs: dict) -> Check:
    """Numeric verdicts are judged against the exact verdict of the cell.

    A disagreement is a failed op, not a problem: it is the numeric
    mode's own error, which the benchmark counts and lists.
    """
    check = Check()
    for key, reports in out.items():
        cells = _cells(reports)
        crashed = _invariants(key, cells, EXACT_ONLY, check)
        want = refs["verify"].get(key)
        if want is None:
            _unpinned(key, cells, crashed, check)
            continue
        _compare_cells(key, cells, want["cells"], check, slice(3, 4), False)
    return check


def check_construct_deep(out: dict, refs: dict) -> Check:
    check = Check()
    for key, system in out.items():
        for n in range(1, system.nmax + 1):
            col = system.p(n)
            lead = all(col[r, 0].coeff(n - r, r) == 1 for r in range(n + 1))
            extra = any(i + j >= n and (i, j) != (n - r, r)
                        for r in range(n + 1) for (i, j) in col[r, 0].terms)
            if not lead or extra:
                check.problems.append(f"{key}: P_{n} is not monic")
        got = degree_digests(system)
        check.attempted += len(got)
        want = refs["construct"].get(key)
        if want is None:
            check.unpinned.append(key)
            continue
        for n, (g, w) in enumerate(zip(got, want["degrees"]), start=1):
            if g != w:
                check.failed += 1
                check.failed_ops.append(f"{key}: P_{n} differs from reference")
                check.problems.append(f"{key}: P_{n} differs from reference")
        if len(got) != len(want["degrees"]):
            check.problems.append(f"{key}: {len(got)} degrees, reference has "
                                  f"{len(want['degrees'])}")
    return check


class Workload(NamedTuple):
    jobs: Callable      # params -> [(instance key, job)]
    check: Callable     # (output, refs) -> Check
    families: tuple     # families the workload builds


# why each workload was chosen: the "why" of BENCHMARK.json
WORKLOADS = {
    "verify-default": Workload(jobs_verify_default, check_verify_default, FIVE),
    "verify-stretch": Workload(jobs_verify_stretch, check_verify_stretch, ("triangle",)),
    "construct-deep": Workload(jobs_construct_deep, check_construct_deep,
                               ("triangle", "product_jacobi")),
    "verify-numeric": Workload(jobs_verify_numeric, check_verify_numeric, FIVE),
}
