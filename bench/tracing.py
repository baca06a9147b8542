"""Per-layer tracing by wrapping the library's functions from outside.

`from ... import` binds a copy of a function in the importing module, so
a function is wrapped at every name a caller looks it up by: each module
global or class attribute of copoly2d that holds the same function
object is replaced for the duration of one traced pass, then restored.
The library source is not modified.

Spans (name, start, end, parent, job) are kept in memory.  The one hot
leaf, polycore._mul_into, is not recorded per call: its calls are
summed per parent span (count, seconds, term products), which is enough
to derive every self time.  A span's self time is its duration minus
the durations of its child spans and leaf sums, so the self times of
all spans and leaves add up to the root span, the traced pass.
"""
from __future__ import annotations

import contextlib
import statistics
import time

from workloads import coeff_bits_max

# metric name -> unit; the per_layer list of BENCHMARK.json, in order
LAYER_METRICS = {
    "polycore.mul_into.calls": "count",
    "polycore.mul_into.term_products": "count",
    "polycore.mul_into.self_s": "s",
    "matpoly.matmul.calls": "count",
    "matpoly.matmul.self_s": "s",
    "matpoly.rat_solve.calls": "count",
    "matpoly.rat_solve.self_s": "s",
    "matpoly.rat_solve.max_dim": "rows",
    "matpoly.det_exact.self_s": "s",
    "matpoly.rank_exact.self_s": "s",
    "matpoly.solve_columns.self_s": "s",
    "matpoly.kron_power.calls": "count",
    "matpoly.kron_power.repeat_share": "share",
    "orthosys.build_monic.s": "s",
    "orthosys.inner.calls": "count",
    "orthosys.inner.s": "s",
    "orthosys.inner.repeat_share": "share",
    "orthosys.integrate_matrix.calls": "count",
    "orthosys.integrate_matrix.self_s": "s",
    "orthosys.eval_entries.self_s": "s",
    "orthosys.integrate_matrix_numeric.self_s": "s",
    "orthosys.p_coeff_bits_max": "bits",
    "weights.moment.calls": "count",
    "weights.moment.miss_share": "share",
    "weights.make_quadrature.s": "s",
    "basisops.identity_suite.s": "s",
    **{f"characterize.check_{p}.{k}": "s"
       for p in "bcde" for k in ("s", "cell_max_s")},
    "characterize.psi_tower.s": "s",
    "characterize.lambda_via_operator.s": "s",
    "characterize.lambda_via_formula.s": "s",
    "cli.render_json.s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_share": "share",
}

ROOT = "bench.pass"
JOB = "bench.job"
LEAF = "polycore.mul_into"


class Tracer:
    """Wraps the library for one traced pass and derives layer metrics."""

    def __init__(self):
        import copoly2d
        from copoly2d import basisops, characterize, cli, matpoly, orthosys, polycore, weights
        self.modules = (copoly2d, polycore, matpoly, basisops, weights, orthosys,
                        characterize, cli)
        self.spans: list = []      # [name, start, end, parent index, job index]
        self.leaves: dict = {}     # parent index -> [calls, seconds, term products]
        self.stack: list = []
        self.job = -1
        self.counts = {"moment.calls": 0, "moment.misses": 0,
                       "kron_power.repeats": 0, "inner.repeats": 0,
                       "rat_solve.max_dim": 0, "report_bytes": 0}
        self.seen_kron: set = set()
        self.seen_inner: dict = {}
        self.systems: list = []
        self._patched: list = []
        self._targets = [
            (polycore._mul_into, self._leaf(polycore._mul_into)),
            (matpoly.rat_solve, self._span("matpoly.rat_solve", matpoly.rat_solve,
                                           before=self._note_dim)),
            (matpoly.det_exact, self._span("matpoly.det_exact", matpoly.det_exact)),
            (matpoly.rank_exact, self._span("matpoly.rank_exact", matpoly.rank_exact)),
            (matpoly.solve_columns, self._span("matpoly.solve_columns",
                                               matpoly.solve_columns)),
            (matpoly.kron_power, self._span("matpoly.kron_power", matpoly.kron_power,
                                            before=self._note_kron)),
            (orthosys.build_monic, self._span("orthosys.build_monic",
                                              orthosys.build_monic,
                                              after=self.systems.append)),
            (orthosys.inner, self._span("orthosys.inner", orthosys.inner,
                                        before=self._note_inner)),
            (orthosys.integrate_matrix, self._span("orthosys.integrate_matrix",
                                                   orthosys.integrate_matrix)),
            (orthosys.eval_entries, self._span("orthosys.eval_entries",
                                               orthosys.eval_entries)),
            (orthosys.integrate_matrix_numeric,
             self._span("orthosys.integrate_matrix_numeric",
                        orthosys.integrate_matrix_numeric)),
            (weights.make_quadrature, self._span("weights.make_quadrature",
                                                 weights.make_quadrature)),
            (basisops.identity_suite, self._span("basisops.identity_suite",
                                                 basisops.identity_suite)),
            *[(getattr(characterize, f), self._span(f"characterize.{f}",
                                                    getattr(characterize, f)))
              for f in ("check_b", "check_c", "check_d", "check_e", "psi_tower",
                        "lambda_via_operator", "lambda_via_formula")],
            (cli.render_json, self._span("cli.render_json", cli.render_json,
                                         after=self._note_report)),
        ]
        self._methods = [
            (matpoly.PolyMatrix, "__matmul__",
             self._span("matpoly.matmul", matpoly.PolyMatrix.__matmul__)),
            (weights.WeightFamily, "moment", self._moment(weights.WeightFamily.moment)),
        ]

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out
        return wrapper

    def _leaf(self, fn):
        leaves, stack, clock = self.leaves, self.stack, time.perf_counter

        def wrapper(acc, ta, tb):
            t0 = clock()
            fn(acc, ta, tb)
            dt = clock() - t0
            agg = leaves.get(stack[-1])
            if agg is None:
                leaves[stack[-1]] = [1, dt, len(ta) * len(tb)]
            else:
                agg[0] += 1
                agg[1] += dt
                agg[2] += len(ta) * len(tb)
        return wrapper

    def _moment(self, fn):
        counts = self.counts

        def wrapper(family, i, j):
            counts["moment.calls"] += 1
            if (i, j) not in family._mcache:
                counts["moment.misses"] += 1
            return fn(family, i, j)
        return wrapper

    def _note_dim(self, a, b):
        self.counts["rat_solve.max_dim"] = max(self.counts["rat_solve.max_dim"], a.rows)

    def _note_kron(self, a, m):
        # the operand is held by the family for the whole job, so its id is stable
        key = (self.job, id(a), m)
        if key in self.seen_kron:
            self.counts["kron_power.repeats"] += 1
        self.seen_kron.add(key)

    def _note_inner(self, a, b, m, f, mode="exact", rule=None):
        key = (self.job, id(a), id(b), m, mode)
        if key in self.seen_inner:
            self.counts["inner.repeats"] += 1
        else:
            self.seen_inner[key] = (a, b)  # keep operands alive: ids stay unique

    def _note_report(self, text):
        self.counts["report_bytes"] += len(text.encode("utf-8"))

    # -- patching -------------------------------------------------------

    def __enter__(self):
        for orig, wrapper in self._targets:
            for mod in self.modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for cls, attr, wrapper in self._methods:
            self._patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
        self.spans.append([ROOT, time.perf_counter(), 0.0, None, -1])
        self.stack.append(0)
        return self

    def __exit__(self, *exc):
        self.spans[0][2] = time.perf_counter()
        self.stack.clear()
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        return False

    @contextlib.contextmanager
    def job_span(self):
        """One job (one family): repeat shares count within a job."""
        self.job = len(self.spans)
        rec = [JOB, time.perf_counter(), 0.0, 0, self.job]
        self.stack.append(self.job)
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            self.job = -1

    # -- derived metrics ------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name, derived from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans[1:]:
            child[parent] += end - start
        leaf_total = 0.0
        for parent, (_calls, secs, _terms) in self.leaves.items():
            child[parent] += secs
            leaf_total += secs
        out = {LEAF: leaf_total}
        for (name, start, end, _p, _j), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def pass_seconds(self) -> float:
        return self.spans[0][2] - self.spans[0][1]

    def metrics(self, scale: float = 1.0) -> dict:
        """Every layer metric except trace.overhead_share; seconds * scale."""
        selfs = self.self_times()
        total = sum(selfs.values())
        if abs(total - self.pass_seconds()) > 1e-6 * max(self.pass_seconds(), 1.0):
            raise RuntimeError(f"self times sum to {total}, pass took {self.pass_seconds()}")
        calls: dict = {}
        incl: dict = {}
        longest: dict = {}
        for name, start, end, _p, _j in self.spans:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (end - start)
            longest[name] = max(longest.get(name, 0.0), end - start)
        c = self.counts

        def share(part, whole):
            return part / whole if whole else 0.0

        out = {
            "polycore.mul_into.calls": sum(v[0] for v in self.leaves.values()),
            "polycore.mul_into.term_products": sum(v[2] for v in self.leaves.values()),
            "polycore.mul_into.self_s": selfs[LEAF],
            "matpoly.rat_solve.max_dim": c["rat_solve.max_dim"],
            "matpoly.kron_power.repeat_share":
                share(c["kron_power.repeats"], calls.get("matpoly.kron_power", 0)),
            "orthosys.inner.repeat_share":
                share(c["inner.repeats"], calls.get("orthosys.inner", 0)),
            "orthosys.p_coeff_bits_max": max(
                (coeff_bits_max(s) for s in self.systems), default=0),
            "weights.moment.calls": c["moment.calls"],
            "weights.moment.miss_share": share(c["moment.misses"], c["moment.calls"]),
            "cli.report_bytes": c["report_bytes"],
        }
        for metric in LAYER_METRICS:
            if metric in out or metric == "trace.overhead_share":
                continue
            name, kind = metric.rsplit(".", 1)
            if kind == "calls":
                out[metric] = calls.get(name, 0)
            elif kind == "self_s":
                out[metric] = selfs.get(name, 0.0)
            elif kind == "s":
                out[metric] = incl.get(name, 0.0)
            elif kind == "cell_max_s":
                out[metric] = longest.get(name, 0.0)
            else:
                raise KeyError(metric)
        for metric, unit in LAYER_METRICS.items():
            if unit == "s":
                out[metric] *= scale
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [{"parent": p, "name": LEAF, "calls": v[0], "seconds": v[1],
                        "term_products": v[2]} for p, v in self.leaves.items()],
            "counts": self.counts,
            "self_s": self.self_times(),
        }


def combine(per_pass: list, overhead_share: float) -> dict:
    """Median of each layer metric over traced passes, plus the overhead."""
    out = {k: statistics.median(p[k] for p in per_pass)
           for k in LAYER_METRICS if k != "trace.overhead_share"}
    out["trace.overhead_share"] = overhead_share
    return out
