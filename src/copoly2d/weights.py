"""Weight families: Pearson data, exact moment oracles and quadrature.

A weight family packages everything the verification layer needs about a
weight function rho on a planar domain without ever materializing rho
itself: the symmetric 2x2 polynomial matrix phi, the drift polynomials
psi1/psi2 from the divergence identity div(rho phi) = rho (psi1, psi2),
the logarithmic gradient (dx rho / rho, dy rho / rho) as exact rational
functions, a normalized moment oracle (i, j) -> mu_ij / mu_00, and a
Gauss quadrature factory for the domain.

Built-in families:

  product_hermite             exp(-x^2-y^2) on the plane
  product_laguerre(a, b)      x^a y^b exp(-x-y) on the open quadrant
  hermite_laguerre(a)         exp(-x^2) y^a exp(-y) on a half plane
  product_jacobi(a, b, c, d)  (1-x)^a (1+x)^b (1-y)^c (1+y)^d on the square
  triangle(a, b, c)           x^a y^b (1-x-y)^c on the unit simplex

Moment oracles are exact Fractions whenever the parameters are rational,
which lets every downstream orthogonality check run in exact arithmetic.
numpy is imported inside the quadrature code only (QuadRule.powers and
the Gauss rule builders), so loading or exporting a family and every
exact run leave it unloaded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from .matpoly import PolyMatrix, const_matrix, det_exact
from .polycore import BivariatePoly, RationalFn, parse_poly

if TYPE_CHECKING:
    import numpy as np


class UnknownFamilyError(KeyError):
    """Family name not in the built-in registry."""


class InvalidParameterError(ValueError):
    """Family parameters outside the admissible range."""


class OracleUnavailableError(RuntimeError):
    """No exact moment value exists for the request.

    moment is the index (i, j) the family's oracle could not give, set
    by WeightFamily.moment; it stays None for a family without an
    oracle, which mode "auto" runs numerically instead.
    """

    moment = None


class FamilyLoadError(ValueError):
    """A family definition file failed validation."""


DOMAIN_KINDS = {
    "plane": 0,
    "quadrant": 2,
    "halfplane_x_quadrant": 1,
    "square": 4,
    "triangle": 3,
}


@dataclass(frozen=True)
class Domain:
    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise FamilyLoadError(f"unknown domain kind {self.kind!r}")
        if len(self.params) != DOMAIN_KINDS[self.kind]:
            raise FamilyLoadError(
                f"domain {self.kind!r} takes {DOMAIN_KINDS[self.kind]} parameters, "
                f"got {len(self.params)}"
            )


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Tensor Gauss rule; weights are normalized so they sum to one.

    Sums of w * f(x, y) therefore approximate integral(f rho) / mu_00,
    exactly (up to roundoff) for polynomial f of total degree at most
    2 * order - 1.  Rules compare and hash by identity, so a rule can
    key a memo entry that no other rule hits.  The rule keeps the powers
    of its nodes (see powers), so they live exactly as long as it does.
    """

    nodes_x: np.ndarray
    nodes_y: np.ndarray
    weights: np.ndarray
    order: int
    _pow: Optional[tuple] = field(default=None, repr=False, init=False)

    def powers(self, d: int):
        """(nodes_x**i, nodes_y**i for i = 0 .. at least d) as two 2-D arrays.

        Row i of each is the i-th power of the nodes, computed as
        ``nodes**i`` like a per-term evaluation would.  The tables are
        kept on the rule and rebuilt to degree d when a call asks for
        more than they hold.
        """
        got = self._pow
        if got is None or len(got[0]) <= d:
            import numpy as np

            xs, ys = self.nodes_x, self.nodes_y
            got = (np.array([xs**i for i in range(d + 1)]),
                   np.array([ys**i for i in range(d + 1)]))
            object.__setattr__(self, "_pow", got)
        return got


@dataclass(frozen=True, eq=False)
class WeightFamily:
    """Pearson data and oracles for one weight on one domain."""

    name: str
    phi: PolyMatrix
    psi1: BivariatePoly
    psi2: BivariatePoly
    log_grad_x: RationalFn
    log_grad_y: RationalFn
    domain: Domain
    moment_fn: Optional[Callable[[int, int], Fraction]] = None
    boundary_assumed: bool = True
    _mcache: dict = field(default_factory=dict, repr=False, compare=False, init=False)

    # -- drift structure ------------------------------------------------

    def d_matrix(self) -> PolyMatrix:
        """2x2 constant matrix whose columns are the linear parts of psi1, psi2."""
        return const_matrix(
            [[self.psi1.coeff(1, 0), self.psi2.coeff(1, 0)],
             [self.psi1.coeff(0, 1), self.psi2.coeff(0, 1)]]
        )

    def has_oracle(self) -> bool:
        return self.moment_fn is not None

    def moment(self, i: int, j: int) -> Fraction:
        """Normalized moment mu_ij / mu_00, exact."""
        if i < 0 or j < 0:
            raise ValueError("moment indices must be nonnegative")
        if self.moment_fn is None:
            raise OracleUnavailableError(f"{self.name}: no exact moment oracle")
        key = (i, j)
        v = self._mcache.get(key)
        if v is None:
            try:
                v = self.moment_fn(i, j)
            except OracleUnavailableError as exc:
                exc.moment = key
                raise
            self._mcache[key] = v
        return v


# ---------------------------------------------------------------------------
# small exact helpers


def _pochhammer(a: Fraction):
    """k -> the rising factorial (a)_k = a (a+1) .. (a+k-1), from a table.

    The table is kept by the returned function and extended on demand,
    so the family holding it fills it once.
    """
    ps = [Fraction(1)]

    def poch(k: int) -> Fraction:
        while len(ps) <= k:
            ps.append(ps[-1] * (a + len(ps) - 1))
        return ps[k]
    return poch


def _hermite_moments():
    """k -> moment k of exp(-x^2) on the line, normalized.

    Odd moments vanish; moment 2j is the product of (2t-1)/2 over
    t = 1 .. j, which is the rising factorial (1/2)_j, read from a
    table that the returned function extends on demand.
    """
    half = _pochhammer(Fraction(1, 2))
    zero = Fraction(0)
    return lambda k: zero if k % 2 else half(k // 2)


def _jacobi_moments(a: Fraction, b: Fraction):
    """k -> moment k of (1-x)^a (1+x)^b on (-1,1), normalized.

    Integrating d/dx[(1-x)^(a+1) (1+x)^(b+1) x^k] over (-1,1) gives the
    two-term recurrence (a+b+k+2) m_(k+1) = (b-a) m_k + k m_(k-1) with
    m_0 = 1.  The sequence is kept in a table that the returned function
    extends on demand, so one family fills it once.
    """
    ms = [Fraction(1)]

    def moment(k: int) -> Fraction:
        while len(ms) <= k:
            n = len(ms) - 1
            prev = ms[n - 1] if n else 0
            ms.append(((b - a) * ms[n] + n * prev) / (a + b + n + 2))
        return ms[k]
    return moment


def _as_params(params) -> tuple:
    """params as Fractions; anything but a list or tuple, or a bool entry, raises ValueError.

    A string would otherwise be read one character at a time, a dict by
    its keys, a set in no fixed order, and a bool as 0 or 1.
    """
    if not isinstance(params, (list, tuple)):
        raise ValueError(f"parameters {params!r} are no list or tuple")
    for p in params:
        if isinstance(p, bool):
            raise ValueError(f"parameter {p!r} is a bool, not a number")
    return tuple(Fraction(p) for p in params)


def _require_gt(params, bound, what):
    for p in params:
        if p <= bound:
            raise InvalidParameterError(f"{what} parameters must exceed {bound}, got {p}")


# ---------------------------------------------------------------------------
# built-in registry


def _build_product_hermite(params) -> WeightFamily:
    two_x = parse_poly("-2*x")
    two_y = parse_poly("-2*y")
    hm = _hermite_moments()
    return WeightFamily(
        name="product_hermite",
        phi=PolyMatrix.identity(2),
        psi1=two_x,
        psi2=two_y,
        log_grad_x=RationalFn(two_x),
        log_grad_y=RationalFn(two_y),
        domain=Domain("plane", ()),
        moment_fn=lambda i, j: hm(i) * hm(j),
    )


def _build_product_laguerre(params) -> WeightFamily:
    a, b = _as_params(params)
    _require_gt((a, b), -1, "product_laguerre")
    x, y = BivariatePoly.x(), BivariatePoly.y()
    pa, pb = _pochhammer(a + 1), _pochhammer(b + 1)  # moment k of x^a exp(-x): (a+1)_k
    return WeightFamily(
        name="product_laguerre",
        phi=PolyMatrix.from_rows([[x, 0], [0, y]]),
        psi1=BivariatePoly.const(a + 1) - x,
        psi2=BivariatePoly.const(b + 1) - y,
        log_grad_x=RationalFn(BivariatePoly.const(a) - x, x),
        log_grad_y=RationalFn(BivariatePoly.const(b) - y, y),
        domain=Domain("quadrant", (a, b)),
        moment_fn=lambda i, j: pa(i) * pb(j),
    )


def _build_hermite_laguerre(params) -> WeightFamily:
    (a,) = _as_params(params)
    _require_gt((a,), -1, "hermite_laguerre")
    x, y = BivariatePoly.x(), BivariatePoly.y()
    hm, pa = _hermite_moments(), _pochhammer(a + 1)
    return WeightFamily(
        name="hermite_laguerre",
        phi=PolyMatrix.from_rows([[1, 0], [0, y]]),
        psi1=parse_poly("-2*x"),
        psi2=BivariatePoly.const(a + 1) - y,
        log_grad_x=RationalFn(parse_poly("-2*x")),
        log_grad_y=RationalFn(BivariatePoly.const(a) - y, y),
        domain=Domain("halfplane_x_quadrant", (a,)),
        moment_fn=lambda i, j: hm(i) * pa(j),
    )


def _build_product_jacobi(params) -> WeightFamily:
    a, b, c, d = _as_params(params)
    _require_gt((a, b, c, d), -1, "product_jacobi")
    x, y = BivariatePoly.x(), BivariatePoly.y()
    one = BivariatePoly.one()
    phi11 = one - x * x
    phi22 = one - y * y
    mx, my = _jacobi_moments(a, b), _jacobi_moments(c, d)
    return WeightFamily(
        name="product_jacobi",
        phi=PolyMatrix.from_rows([[phi11, 0], [0, phi22]]),
        psi1=BivariatePoly.const(b - a) - (a + b + 2) * x,
        psi2=BivariatePoly.const(d - c) - (c + d + 2) * y,
        log_grad_x=RationalFn(BivariatePoly.const(b - a) - (a + b) * x, phi11),
        log_grad_y=RationalFn(BivariatePoly.const(d - c) - (c + d) * y, phi22),
        domain=Domain("square", (a, b, c, d)),
        moment_fn=lambda i, j: mx(i) * my(j),
    )


def _build_triangle(params) -> WeightFamily:
    a, b, c = _as_params(params)
    _require_gt((a, b, c), -1, "triangle")
    x, y = BivariatePoly.x(), BivariatePoly.y()
    one = BivariatePoly.one()
    rim = one - x - y  # vanishes on the slanted edge
    s = a + b + c + 3
    # mu_ij = (a+1)_i (b+1)_j / (s)_(i+j), the three factors from tables
    pa, pb, ps = _pochhammer(a + 1), _pochhammer(b + 1), _pochhammer(s)
    return WeightFamily(
        name="triangle",
        phi=PolyMatrix.from_rows([[x * (one - x), -(x * y)], [-(x * y), y * (one - y)]]),
        psi1=BivariatePoly.const(a + 1) - s * x,
        psi2=BivariatePoly.const(b + 1) - s * y,
        log_grad_x=RationalFn(BivariatePoly.const(a) * rim - c * x, x * rim),
        log_grad_y=RationalFn(BivariatePoly.const(b) * rim - c * y, y * rim),
        domain=Domain("triangle", (a, b, c)),
        moment_fn=lambda i, j: pa(i) * pb(j) / ps(i + j),
    )


_BUILTINS = {
    "product_hermite": (_build_product_hermite, "plane"),
    "product_laguerre": (_build_product_laguerre, "quadrant"),
    "hermite_laguerre": (_build_hermite_laguerre, "halfplane_x_quadrant"),
    "product_jacobi": (_build_product_jacobi, "square"),
    "triangle": (_build_triangle, "triangle"),
}


def split_params(text: str) -> tuple:
    """Comma separated parameters, stripped; a blank text has none, an empty slot raises."""
    params = tuple(t.strip() for t in text.split(",")) if text.strip() else ()
    if "" in params:
        raise InvalidParameterError(f"empty parameter slot in {text!r}")
    return params


def parse_family_ref(ref: str):
    """Split 'name' or 'name(p1,p2)' into (name, params tuple of str)."""
    ref = ref.strip()
    if "(" in ref:
        if not ref.endswith(")"):
            raise UnknownFamilyError(f"malformed family reference {ref!r}")
        name, body = ref[:-1].split("(", 1)
        return name.strip(), split_params(body)
    return ref, ()


def builtin(name: str, params=()) -> WeightFamily:
    """Construct a built-in family; name may carry parameters inline."""
    base, inline = parse_family_ref(name)
    if inline:
        if params:
            raise InvalidParameterError("parameters given twice")
        params = inline
    if base not in _BUILTINS:
        raise UnknownFamilyError(f"unknown family {base!r}; see list_builtins()")
    maker, kind = _BUILTINS[base]
    try:
        params = _as_params(params)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"unparseable parameters {params!r}") from exc
    if len(params) != DOMAIN_KINDS[kind]:
        raise InvalidParameterError(
            f"{base} takes {DOMAIN_KINDS[kind]} parameters, got {len(params)}"
        )
    f = maker(params)
    validate_family(f)
    return f


def list_builtins():
    """(name, parameter count, domain kind) for every built-in family."""
    return [(name, DOMAIN_KINDS[kind], kind) for name, (_, kind) in sorted(_BUILTINS.items())]


# ---------------------------------------------------------------------------
# structural checks


def cleared_divergence(f: WeightFamily, num: PolyMatrix, e: int = 0) -> PolyMatrix:
    """delta^(e+1) rho^-1 div(rho num / delta^e), a polynomial matrix.

    num has an even row count; its top half is differentiated in x and
    its bottom half in y, column by column.  delta = gxd * gyd is the
    product of the two logarithmic gradient denominators, so rho^-1
    div(rho W) = dx W_top + dy W_bot + gx W_top + gy W_bot cleared by
    delta^(e+1) reads, with N_top, N_bot the halves of num,

        delta (dx N_top + dy N_bot) + gxn gyd N_top + gyn gxd N_bot
            - e (N_top dx delta + N_bot dy delta).

    Every density-divided identity (Pearson, lifted Pearson, each step
    of the divergence tower) is an exact comparison of this numerator
    with the right side times a power of delta; iterating it with e = 0,
    1, 2, ... divides through the tower without rational functions.
    """
    gxn, gxd = f.log_grad_x.num, f.log_grad_x.den
    gyn, gyd = f.log_grad_y.num, f.log_grad_y.den
    delta = gxd * gyd
    top = num.top_half()
    bot = num.bottom_half()
    out = (top.dx() + bot.dy()).scale(delta) + top.scale(gxn * gyd) + bot.scale(gyn * gxd)
    if e:
        out = out - (top.scale(delta.dx()) + bot.scale(delta.dy())).scale(e)
    return out


def check_pearson(f: WeightFamily) -> bool:
    """Exact test of div(rho phi) = rho (psi1, psi2), divided through by rho.

    Entry j of the 1x2 residual is phi_1j gx + phi_2j gy + dx phi_1j +
    dy phi_2j - psi_j, with (gx, gy) the logarithmic gradient, cleared by
    delta (see cleared_divergence).
    """
    delta = f.log_grad_x.den * f.log_grad_y.den
    return (cleared_divergence(f, f.phi) - PolyMatrix.row([f.psi1, f.psi2]).scale(delta)).is_zero


def grad_cols(p: BivariatePoly, q: BivariatePoly) -> PolyMatrix:
    """2x2 matrix of partials with columns indexed by (p, q)."""
    return PolyMatrix.from_rows([[p.dx(), q.dx()], [p.dy(), q.dy()]])


def check_phi_conditions(f: WeightFamily) -> bool:
    """Differential compatibility of phi with its own columns, exactly.

    For each column j the 2x2 residual phi_1j dx(phi) + phi_2j dy(phi) -
    phi @ grad_cols(phi_1j, phi_2j) vanishes.  Its row j is zero for any
    symmetric phi; its other row is the Lie bracket of phi's two columns
    read as vector fields, so the condition says the columns commute.
    """
    phi = f.phi
    return all((phi.dx().scale(p) + phi.dy().scale(q) - phi @ grad_cols(p, q)).is_zero
               for p, q in zip(phi.row_list(0), phi.row_list(1)))


def validate_family(f: WeightFamily) -> None:
    """Structural invariants: shape, symmetry, degree bounds, drift rank."""
    if f.phi.shape != (2, 2):
        raise FamilyLoadError("phi must be 2x2")
    if f.phi[0, 1] != f.phi[1, 0]:
        raise FamilyLoadError("phi must be symmetric")
    if f.phi.degree > 2:
        raise FamilyLoadError("phi entries must have degree <= 2")
    for nm, p in (("psi1", f.psi1), ("psi2", f.psi2)):
        if p.total_degree > 1:
            raise FamilyLoadError(f"{nm} must have degree <= 1")
    if det_exact(f.d_matrix()) == 0:
        raise FamilyLoadError("drift matrix (D1, D2) is singular")
    if f.moment_fn is not None and f.moment(0, 0) != 1:
        raise FamilyLoadError("normalized moment (0,0) must equal 1")


# ---------------------------------------------------------------------------
# quadrature


def _golub_welsch(diag, offdiag) -> tuple:
    import numpy as np

    q = len(diag)
    jm = np.zeros((q, q))
    for i in range(q):
        jm[i, i] = diag[i]
    for i in range(q - 1):
        jm[i, i + 1] = jm[i + 1, i] = offdiag[i]
    vals, vecs = np.linalg.eigh(jm)
    return vals, vecs[0, :] ** 2


def gauss_hermite_1d(order: int):
    diag = [0.0] * order
    off = [math.sqrt(k / 2.0) for k in range(1, order)]
    return _golub_welsch(diag, off)


def gauss_laguerre_1d(order: int, a: float):
    diag = [2 * k + a + 1 for k in range(order)]
    off = [math.sqrt(k * (k + a)) for k in range(1, order)]
    return _golub_welsch(diag, off)


def gauss_jacobi_1d(order: int, a: float, b: float):
    diag = []
    for k in range(order):
        if k == 0:
            diag.append((b - a) / (a + b + 2))
        else:
            s = 2 * k + a + b
            diag.append((b * b - a * a) / (s * (s + 2)))
    off = []
    for k in range(1, order):
        if k == 1:
            v = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
        else:
            s = 2 * k + a + b
            v = 4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1))
        off.append(math.sqrt(v))
    return _golub_welsch(diag, off)


def _tensor_rule(xs, wx, ys, wy, order: int) -> QuadRule:
    import numpy as np

    nx = np.repeat(xs, len(ys))
    ny = np.tile(ys, len(xs))
    w = np.repeat(wx, len(ys)) * np.tile(wy, len(xs))
    return QuadRule(nodes_x=nx, nodes_y=ny, weights=w, order=order)


def check_quadrature_domain(f: WeightFamily) -> None:
    """Raise InvalidParameterError unless the domain has a Gauss rule.

    Every Gauss exponent, the domain parameters, must exceed -1.
    """
    _require_gt(f.domain.params, -1, f"{f.domain.kind} quadrature")


def make_quadrature(f: WeightFamily, order: int) -> QuadRule:
    """Gauss rule matched to the family's domain and parameters."""
    if order < 1:
        raise InvalidParameterError("quadrature order must be >= 1")
    check_quadrature_domain(f)
    kind = f.domain.kind
    p = [float(v) for v in f.domain.params]
    if kind == "plane":
        xs, wx = gauss_hermite_1d(order)
        ys, wy = gauss_hermite_1d(order)
    elif kind == "quadrant":
        xs, wx = gauss_laguerre_1d(order, p[0])
        ys, wy = gauss_laguerre_1d(order, p[1])
    elif kind == "halfplane_x_quadrant":
        xs, wx = gauss_hermite_1d(order)
        ys, wy = gauss_laguerre_1d(order, p[0])
    elif kind == "square":
        xs, wx = gauss_jacobi_1d(order, p[0], p[1])
        ys, wy = gauss_jacobi_1d(order, p[2], p[3])
    elif kind == "triangle":
        a, b, c = p
        tu, wx = gauss_jacobi_1d(order, b + c + 1, a)
        tv, wy = gauss_jacobi_1d(order, c, b)
        xs, ys = (1 + tu) / 2, (1 + tv) / 2
    else:  # pragma: no cover - Domain guards kinds
        raise FamilyLoadError(f"no quadrature for domain {kind!r}")
    rule = _tensor_rule(xs, wx, ys, wy, order)
    if kind == "triangle":
        # collapsed-square map of the tensor nodes (u, v): x = u, y = v (1 - u);
        # weights already absorb the Jacobian: the u rule carries the extra (1 - u)
        rule = QuadRule(rule.nodes_x, rule.nodes_y * (1 - rule.nodes_x), rule.weights, order)
    return rule


# ---------------------------------------------------------------------------
# family definition files


def _rf_to_dict(rf: RationalFn) -> dict:
    return {"num": rf.num.to_text(), "den": rf.den.to_text()}


def export_family(f: WeightFamily, moment_degree: int = 24) -> dict:
    """Serializable definition; moments tabulated up to the given degree."""
    doc = {
        "name": f.name,
        "phi": [[f.phi[i, j].to_text() for j in (0, 1)] for i in (0, 1)],
        "psi1": f.psi1.to_text(),
        "psi2": f.psi2.to_text(),
        "log_grad_x": _rf_to_dict(f.log_grad_x),
        "log_grad_y": _rf_to_dict(f.log_grad_y),
        "domain": {"kind": f.domain.kind, "params": [str(v) for v in f.domain.params]},
    }
    if f.moment_fn is not None:
        table = []
        for d in range(moment_degree + 1):
            for i in range(d + 1):
                table.append([i, d - i, str(f.moment(i, d - i))])
        doc["moments"] = table
    return doc


def _parse_rf(obj, label: str) -> RationalFn:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise FamilyLoadError(f"{label} must be an object with num and den")
    try:
        return RationalFn(parse_poly(obj["num"]), parse_poly(obj["den"]))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FamilyLoadError(f"bad {label}: {exc}") from exc


def load_family(source) -> WeightFamily:
    """Load a family from a dict, a JSON string, or a file path.

    A str that parses as JSON is the document itself, and so is one
    that starts with "{" or "[" (it must then parse); any other str, and
    any path-like, names a JSON file.  Any other source is taken as the
    document.  A document that is not a JSON object raises
    FamilyLoadError.
    """
    doc = source
    path = os.fspath(source) if isinstance(source, os.PathLike) else None
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError:
            if source.lstrip().startswith(("{", "[")):
                raise
            path = source
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FamilyLoadError("bad family document: want a JSON object, got "
                              f"{json.dumps(doc, default=repr)[:40]}")
    required = {"name", "phi", "psi1", "psi2", "log_grad_x", "log_grad_y", "domain"}
    missing = required - set(doc)
    if missing:
        raise FamilyLoadError(f"missing fields: {sorted(missing)}")
    phi_rows = doc["phi"]
    if not (isinstance(phi_rows, list) and len(phi_rows) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in phi_rows)):
        raise FamilyLoadError("phi must be a 2x2 list of polynomial strings")
    try:
        phi = PolyMatrix.from_rows([[parse_poly(p) for p in row] for row in phi_rows])
        psi1 = parse_poly(doc["psi1"])
        psi2 = parse_poly(doc["psi2"])
    except (ValueError, IndexError, TypeError) as exc:
        raise FamilyLoadError(f"bad polynomial field: {exc}") from exc
    dom = doc["domain"]
    if not isinstance(dom, dict) or "kind" not in dom:
        raise FamilyLoadError("domain must carry a kind")
    try:
        domain = Domain(str(dom["kind"]), _as_params(dom.get("params", ())))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FamilyLoadError(f"bad domain parameters: {exc}") from exc

    moment_fn = None
    if "moments" in doc:
        table = {}
        try:
            for i, j, v in doc["moments"]:
                if type(i) is not int or type(j) is not int or min(i, j) < 0:
                    raise TypeError(f"entry {[i, j, v]!r} needs nonnegative int indices")
                if (i, j) in table:
                    raise ValueError(f"entry {[i, j, v]!r} repeats moment ({i},{j})")
                if isinstance(v, bool) or not isinstance(v, (str, int)):
                    raise TypeError(f"moment ({i},{j}) is {v!r}, not a \"p/q\" string")
                try:
                    table[(i, j)] = Fraction(v)
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"moment ({i},{j}) is {v!r}, not a rational number") from None
        except (ValueError, TypeError) as exc:
            raise FamilyLoadError(f"bad moments table: {exc}") from exc

        def moment_fn(i, j, _table=table):
            try:
                return _table[(i, j)]
            except KeyError:
                raise OracleUnavailableError(
                    f"moment ({i},{j}) beyond the tabulated degree"
                ) from None

    f = WeightFamily(
        name=str(doc["name"]),
        phi=phi,
        psi1=psi1,
        psi2=psi2,
        log_grad_x=_parse_rf(doc["log_grad_x"], "log_grad_x"),
        log_grad_y=_parse_rf(doc["log_grad_y"], "log_grad_y"),
        domain=domain,
        moment_fn=moment_fn,
    )
    try:
        validate_family(f)
    except OracleUnavailableError as exc:
        raise FamilyLoadError(f"moments table too shallow: {exc}") from exc
    return f
