"""Mappings between the equation classes: the f=g gauge, the imaged and
double-imaged maps, tabulated preimages, equivalence-group actions,
additional equivalence maps between classification cases, the pullback of
operators and the push-forward of solutions.

Every constructed map can be checked against the PDEs themselves with
`map_residual_check`, which transports jet coordinates through the change
of variables and evaluates the target equation on the source manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .expr import (
    Expr,
    EvalDomainError,
    const,
    diff,
    evaluate_points,
    exp,
    free_variables,
    func,
    ln,
    num_equal,
    pow_,
    sample_residual,
    simplify,
    sqrt,
    substitute,
    var,
)
from .model import (
    DoubleImagedEquation,
    Equation,
    ImagedEquation,
    Interval,
    PointTransformation,
    RDEquation,
    VectorField,
    ValidationError,
    constant_on,
    inferred_assumptions,
    require_valid,
    sign_on,
)
from .sampling import halton_scaled
from .symmetry import VerificationReport, sampled_verification, total_derivative
from .tables import alpha_of, beta_of, initial_fh, t3_case

X = var("x")
T = var("t")


class UnsupportedBranch(ValidationError):
    """Parameter branch outside the implemented real-kernel range
    (negative Whittaker argument, oscillatory-index coefficient)."""


# -- antiderivative and inverse rule tables -----------------------------------

def antiderivative(e: Expr) -> Expr | None:
    """Small rule table: constants, exponentials, powers (incl. 1/x),
    plain trig/hyperbolic waves, linearity.  None when no rule matches."""
    e = simplify(e)
    k = e.kind
    if k == "const":
        return e * X
    if k == "var" and e.name == "x":
        return X ** 2 / 2
    if k == "neg":
        a = antiderivative(e.args[0])
        return None if a is None else -a
    if k in ("add", "sub"):
        a = antiderivative(e.args[0])
        b = antiderivative(e.args[1])
        if a is None or b is None:
            return None
        return a + b if k == "add" else a - b
    if k == "mul":
        a, b = e.args
        if a.kind == "const":
            inner = antiderivative(b)
            return None if inner is None else a * inner
        if b.kind == "const":
            inner = antiderivative(a)
            return None if inner is None else b * inner
        return None
    if k == "div" and e.args[1].kind == "const":
        inner = antiderivative(e.args[0])
        return None if inner is None else inner / e.args[1]
    if k == "pow" and e.args[1].kind == "const":
        base = e.args[0]
        slope = simplify(diff(base, "x"))
        if slope.kind == "const" and slope.value != 0.0 \
                and free_variables(base) <= {"x"} \
                and simplify(diff(slope, "x")) == const(0.0):
            n = e.args[1].value
            if n == -1.0:
                return ln(base) / slope
            return pow_(base, const(n + 1.0)) / const(slope.value * (n + 1.0))
    if k == "div" and e.args[0].kind == "const":
        den = e.args[1]
        slope = simplify(diff(den, "x"))
        if slope.kind == "const" and slope.value != 0.0 \
                and free_variables(den) <= {"x"} \
                and simplify(diff(slope, "x")) == const(0.0):
            return e.args[0] * ln(den) / slope
    if k == "call" and len(e.args) == 1:
        u = e.args[0]
        # linear inner argument a x + b
        a_coeff = simplify(diff(u, "x"))
        if a_coeff.kind == "const" and a_coeff.value != 0.0 and \
                free_variables(u) <= {"x"} and simplify(diff(a_coeff, "x")) == const(0.0):
            a = a_coeff.value
            table = {
                "exp": exp(u) / a,
                "cos": func("sin", u) / a,
                "sin": -func("cos", u) / a,
                "cosh": func("sinh", u) / a,
                "sinh": func("cosh", u) / a,
            }
            if e.name in table:
                return table[e.name]
    return None


def invert_monotone(phi: Expr) -> Expr | None:
    """Symbolic inverse y -> x of simple monotone shapes: affine,
    a*exp(bx)+c, a*x^b+c, a*ln(x)+c.  The returned expression uses the
    variable name x for the new coordinate."""
    phi = simplify(phi)
    # peel affine wrappers: phi = a*core + b
    scale, shift = 1.0, 0.0
    core = phi
    changed = True
    while changed:
        changed = False
        if core.kind in ("add", "sub"):
            a, b = core.args
            s = 1.0 if core.kind == "add" else -1.0
            if b.kind == "const":
                shift += s * b.value
                core, changed = a, True
            elif a.kind == "const" and core.kind == "add":
                shift += a.value
                core, changed = b, True
        elif core.kind == "mul":
            a, b = core.args
            if a.kind == "const":
                scale *= a.value
                core, changed = b, True
            elif b.kind == "const":
                scale *= b.value
                core, changed = a, True
        elif core.kind == "neg":
            scale *= -1.0
            core, changed = core.args[0], True
        elif core.kind == "div" and core.args[1].kind == "const":
            scale /= core.args[1].value
            core, changed = core.args[0], True
    if scale == 0.0:
        return None
    # y = scale*core(x) + shift  =>  core(x) = (y - shift)/scale
    y = (X - const(shift)) / const(scale)
    if core == X:
        return simplify(y)
    if core.kind == "call" and core.name == "exp":
        u = core.args[0]
        du = simplify(diff(u, "x"))
        if du.kind == "const" and du.value != 0.0:
            u0 = simplify(substitute(u, "x", const(0.0)))
            if u0.kind == "const":
                return simplify((ln(y) - u0) / du)
    if core.kind == "call" and core.name == "ln" and core.args[0] == X:
        return simplify(exp(y))
    if core.kind == "pow" and core.args[0] == X and core.args[1].kind == "const":
        b = core.args[1].value
        if b != 0.0:
            return simplify(y ** (1.0 / b))
    return None


def _hermite(xs: list, ys: list, ds: list, cs: list) -> Expr:
    """Quintic-Hermite table of x -> y through values ys, slopes ds and
    second derivatives cs at the knots xs."""
    grid, coeffs = special.hermite_table(xs, ys, ds, cs)
    return Expr("interp", args=(X,), data=(grid, coeffs, 0))


def _hermite_inverse(xs: list, ys: list, ds: list, cs: list) -> Expr:
    """Table of the inverse y -> x of a monotone map with values ys, slopes
    ds and second derivatives cs at the knots xs: x' = 1/y', x'' = -y''/y'^3."""
    if all(b < a for a, b in zip(ys, ys[1:])):
        xs, ys, ds, cs = xs[::-1], ys[::-1], ds[::-1], cs[::-1]
    elif not all(b > a for a, b in zip(ys, ys[1:])):
        raise ValidationError("coordinate map is not monotone on the domain")
    return _hermite(ys, xs, [1.0 / d for d in ds], [-c / d ** 3 for c, d in zip(cs, ds)])


def _tabulated_inverse(phi: Expr, lo: float, hi: float, knots: int = 129) -> Expr:
    """Inverse table of a monotone expression map x -> phi(x) on [lo, hi],
    with exact derivative data at the knots."""
    d1 = diff(phi, "x")
    xs = [lo + (hi - lo) * i / (knots - 1) for i in range(knots)]
    vals, ok = evaluate_points([phi, d1, diff(d1, "x")], ("x",), xs)
    if not ok.all():
        raise EvalDomainError("coordinate map is undefined at a knot of its inverse table")
    return _hermite_inverse(xs, *vals.tolist())


# Gauss-Legendre orders of the gauge quadrature: the higher one gives the
# integrals, their disagreement bounds the error of the lower one
_GAUSS_ORDERS = (10, 20)
# largest disagreement accepted, relative to max(1, |whole integral|); on an
# integrand that is smooth on the scale of a knot interval both orders are
# exact to rounding (<= 1e-15)
_QUADRATURE_TOL = 1e-10


def _quadrature_map(integrand: Expr, lo: float, hi: float, x0: float) -> tuple[Expr, Expr]:
    """phi(x) = x0 + int_x0^x integrand and its inverse, as quintic Hermite
    tables on 129 uniform knots of [lo, hi].

    Each knot interval, and the piece from the knot below x0 to x0, is
    integrated by composite Gauss-Legendre rules of both _GAUSS_ORDERS.  One
    batch evaluates the integrand at every node and the integrand and its
    derivative at the knots.  Raises ValidationError when the two orders
    disagree by more than _QUADRATURE_TOL: the integrand then varies too
    fast for the knot spacing, which the table could not follow either.
    """
    # numpy.polynomial is imported here: it costs ~5 ms at start-up and
    # only this fallback uses it
    from numpy.polynomial.legendre import leggauss

    knots = 129
    xs = lo + (hi - lo) * np.arange(knots) / (knots - 1)
    j = min(int(np.searchsorted(xs, x0, side="right")) - 1, knots - 2)
    a, b = np.append(xs[:-1], xs[j]), np.append(xs[1:], x0)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    rules = [leggauss(n) for n in _GAUSS_ORDERS]
    nodes = [(mid[:, None] + half[:, None] * t).ravel() for t, _ in rules]
    vals, ok = evaluate_points([integrand, diff(integrand, "x")], ("x",),
                               np.concatenate([xs, *nodes]))
    if not ok.all():
        raise EvalDomainError("the gauge integrand is undefined on the domain")
    ys = []
    for (_, w), fv in zip(rules, np.split(vals[0, knots:], [nodes[0].size])):
        pieces = half * (fv.reshape(len(a), -1) @ w)
        cum = np.concatenate([[0.0], np.cumsum(pieces[:-1])])
        ys.append(x0 + cum - (cum[j] + pieces[-1]))   # anchored: phi(x0) = x0
    est = float(np.abs(ys[0] - ys[1]).max())
    bound = _QUADRATURE_TOL * max(1.0, abs(ys[1][-1] - ys[1][0]))
    if est > bound:
        raise ValidationError(
            f"gauge quadrature error estimate {est:.2e} exceeds {bound:.2e}: Gauss-Legendre "
            f"orders {_GAUSS_ORDERS[0]} and {_GAUSS_ORDERS[1]} disagree on the knot intervals")
    table = (xs.tolist(), ys[1].tolist(), vals[0, :knots].tolist(), vals[1, :knots].tolist())
    return _hermite(*table), _hermite_inverse(*table)


def _image_of_ends(e: Expr, names: tuple[str, ...], ends) -> tuple[float, float]:
    """(min, max) of e at the two points `ends`, the images of a domain's
    ends, in one batch."""
    (vals,), ok = evaluate_points([e], names, ends)
    if not ok.all():
        raise EvalDomainError("the map is undefined at an end of the domain")
    return float(vals.min()), float(vals.max())


# -- point maps ------------------------------------------------------------------

def _point_map(fwd_T: Expr, fwd_X: Expr, inv_t: Expr, inv_x: Expr, mul: Expr,
               shift: Expr | None = None, dep: str = "u", new_dep: str | None = None,
               law: str = "") -> PointTransformation:
    """t~ = fwd_T, x~ = fwd_X, dep~ = mul*dep (+ shift).  inv_t and inv_x
    give t and x in the new variables; the inverse
    dep = (dep~ - shift)/mul is derived by composing mul and shift with them."""
    new_dep = new_dep or dep
    back = {"t": inv_t, "x": inv_x}
    V, old = mul * var(dep), var(new_dep)
    if shift is not None:
        V, old = V + shift, old - substitute(shift, back)
    return PointTransformation(fwd_T, fwd_X, simplify(V),
                               inv_t, inv_x, simplify(old / substitute(mul, back)),
                               dep=dep, new_dep=new_dep, law=law)


def _drift_coords(a: float) -> tuple[Expr, Expr, Expr, Expr]:
    """t~ = t, x~ = x + 2at, and the inverse t = t~, x = x~ - 2at~."""
    return T, simplify(X + const(2 * a) * T), T, simplify(X - const(2 * a) * T)


def _exp_coords(beta: float) -> tuple[Expr, Expr, Expr, Expr]:
    """t~ = -e^(-4 beta t)/(4 beta), x~ = e^(-2 beta t) x, and the inverse
    t = -ln(-4 beta t~)/(4 beta), x = x~/sqrt(-4 beta t~)."""
    return (simplify(const(-1.0 / (4 * beta)) * exp(const(-4 * beta) * T)),
            simplify(exp(const(-2 * beta) * T) * X),
            simplify(const(-1.0 / (4 * beta)) * ln(const(-4 * beta) * T)),
            simplify(X / (const(-4 * beta) * T) ** 0.5))


# -- the mapping chain ---------------------------------------------------------

def gauge_fg(eq: RDEquation, x0: float) -> tuple[RDEquation, PointTransformation]:
    """Gauge g=f by t' = sign(fg) t, x' = int_x0^x sqrt|f/g| dy + x0.

    New elements: f'=g'=sign(g)|fg|^(1/2), h'=sqrt|g/f| h, composed with
    the inverse coordinate map.  The integral uses the antiderivative rule
    table when it matches, otherwise composite Gauss-Legendre quadrature
    tabulated as a quintic Hermite table with its inverse (see
    `_quadrature_map`).
    """
    require_valid(eq)
    sf, sg = eq.sign_f(), eq.sign_g()
    if sf == 0 or sg == 0:
        raise ValidationError("f and g must be sign-constant on the domain")
    if eq.f == eq.g:
        return eq, _point_map(T, X, T, X, const(1), dep=eq.dep, law="identity (f=g already)")
    s_fg = sf * sg

    asm = eq.assumptions()
    ratio = simplify(const(sf) * eq.f / (const(sg) * eq.g))   # |f/g|
    integrand = simplify(sqrt(ratio), asm)
    anti = antiderivative(integrand)
    if anti is not None:
        phi = simplify(anti - substitute(anti, "x", const(x0)) + const(x0))
        inv = invert_monotone(phi)
    else:
        phi, inv = None, None
    if phi is None or inv is None:
        if not (eq.domain.lo <= x0 <= eq.domain.hi):
            raise ValidationError("x0 must lie inside the domain for the "
                                  "quadrature fallback")
        phi, inv = _quadrature_map(integrand, eq.domain.lo, eq.domain.hi, x0)

    sqrt_fg = simplify(sqrt(simplify(const(sf) * eq.f * const(sg) * eq.g)), asm)
    new_f = simplify(const(sg) * substitute(sqrt_fg, "x", inv))
    hw = simplify(sqrt(simplify(const(sg) * eq.g / (const(sf) * eq.f))) * eq.h, asm)
    new_h = simplify(substitute(hw, "x", inv))

    new_domain = Interval(*_image_of_ends(phi, ("x",), [eq.domain.lo, eq.domain.hi]))
    new_eq = RDEquation(new_f, new_f, new_h, eq.m, new_domain, eq.dep)

    t_map = simplify(const(s_fg) * T)   # t or -t, its own inverse
    tr = _point_map(t_map, phi, t_map, inv, const(1), dep=eq.dep,
                    law="f'=g'=sign(g)|fg|^(1/2), h'=sqrt|g/f| h")
    return new_eq, tr


def sqrt_resolved(f: Expr, domain: Interval, extra: tuple[Expr, ...] = ()):
    """sqrt|f| with the sign of f resolved on the domain, together with
    the sign assumptions needed to differentiate through it."""
    s = sign_on(f, domain)
    if s == 0:
        raise ValidationError("coefficient must be sign-constant on the domain")
    r0 = simplify(sqrt(simplify(const(s) * f)))
    asm = inferred_assumptions((r0, f) + tuple(extra), domain)
    return simplify(r0, asm), s, asm


def to_imaged(eq: RDEquation) -> tuple[ImagedEquation, PointTransformation]:
    """Map the gauged class onto v_t = v_xx + H v^m + F v via v = sqrt|f| u:
    F = -(sqrt|f|)_xx / sqrt|f|,  H = h sign(f) / (sqrt|f|)^(m+1).
    """
    if eq.f != eq.g:
        raise ValidationError("to_imaged requires the f=g gauge (apply gauge_fg first)")
    require_valid(eq)
    return image_of_valid(eq)


def image_of_valid(eq: RDEquation) -> tuple[ImagedEquation, PointTransformation]:
    """to_imaged of an f=g equation that has passed validation."""
    r, s, asm = sqrt_resolved(eq.f, eq.domain, (eq.h,))
    F = simplify(-diff(diff(r, "x", asm), "x", asm) / r, asm)
    H = simplify(eq.h * const(s) / pow_(r, const(eq.m + 1.0)), asm)
    img = ImagedEquation(F, H, eq.m, eq.domain)
    tr = _point_map(T, X, T, X, r, dep=eq.dep, new_dep="v",
                    law="F=-(sqrt|f|)_xx/sqrt|f|, H=h sign(f)/(sqrt|f|)^(m+1)")
    return img, tr


def to_double_imaged(eq: ImagedEquation) -> tuple[DoubleImagedEquation, PointTransformation]:
    """Map the m=2 imaged class onto w_t = w_xx + H w^2 + G via
    w = v + F/(2H):  G = -(F/(2H))_xx - F^2/(4H)."""
    if eq.m != 2.0:
        raise ValidationError("the double-imaged map applies only to m=2")
    require_valid(eq)
    asm = eq.assumptions()
    shift = simplify(eq.F / (const(2) * eq.H))
    G = simplify(-diff(diff(shift, "x", asm), "x", asm) - eq.F ** 2 / (const(4) * eq.H))
    dbl = DoubleImagedEquation(eq.H, G, eq.domain)
    tr = _point_map(T, X, T, X, const(1), shift, dep=eq.dep, new_dep="w",
                    law="G=-(F/(2H))_xx - F^2/(4H)")
    return dbl, tr


def _whittaker_domain(beta: float, lo: float = 0.4, hi: float = 2.4) -> Interval:
    cap = math.sqrt(28.0 / beta)
    return Interval(lo, min(hi, cap))


def imaged_preimage(row: int, params: dict, m: float,
                    domain: Interval | None = None) -> RDEquation:
    """A gauged-class preimage of an imaged-class row: the T3 case of
    tables.t3_case, initial_fh(case) with x -> w x."""
    if row in (4, 5, 6):
        if beta_of(params["p"], m) <= 0.0:
            raise UnsupportedBranch(
                "beta=2p/(m-1) must be positive: the negative-argument Whittaker "
                "branch is not implemented")
        if row == 4 and params["a2"] > 0.25:
            raise UnsupportedBranch(
                "a2>1/4 needs the oscillatory-index Whittaker branch, "
                "which the real kernel does not cover")
    case, pr, w = t3_case(row, params, m)
    f, h = initial_fh(case, pr, m)
    if w != 1.0:
        f, h = (simplify(substitute(e, "x", const(w) * X)) for e in (f, h))
    if domain is None:
        if case == "1.2":
            domain = Interval(0.1, 1.35 / w)
        elif case == "3.2":
            span = 1.2 / pr["rho"]
            domain = Interval(max(0.35, math.exp(-span)), min(2.8, math.exp(span)))
        elif case in ("4", "5", "6"):
            domain = _whittaker_domain(beta_of(pr["p"], m))
        else:
            domain = Interval(0.5, 2.5)
    return RDEquation(f, f, h, m, domain)


def preimage_ode_residual(eq: RDEquation, F: Expr, n: int = 64) -> float:
    """Max relative residual of (sqrt|f|)_xx + F sqrt|f| = 0 on the domain."""
    r, _, asm = sqrt_resolved(eq.f, eq.domain)
    terms = [simplify(diff(diff(r, "x", asm), "x", asm)), simplify(F * r)]
    return _ode_residual(terms, eq.domain, n)


# -- equivalence groups ---------------------------------------------------------

GROUPS = ("general", "general-extended", "general-m2",
          "gauged", "gauged-m2", "imaged", "imaged-m2", "double")

_ODE_TOL = 1e-8


def psi_from_constants(g: Expr, c1: float, c2: float, x0: float) -> Expr:
    """The closed-form multiplier psi = (c1 * int_x0^x dy/g + c2)^(-1)."""
    anti = antiderivative(simplify(const(1) / g))
    if anti is None:
        raise ValidationError("no antiderivative rule for 1/g; supply psi directly")
    integral = simplify(anti - substitute(anti, "x", const(x0)))
    return simplify((const(c1) * integral + const(c2)) ** -1.0)


def _ode_residual(terms: list[Expr], domain: Interval, n: int = 48) -> float:
    return sample_residual(terms, ("x",), halton_scaled([(domain.lo, domain.hi)], n)).max_rel


def _check_psi_second_order(g: Expr, psi: Expr, domain: Interval):
    """(g psi_x / psi^2)_x = 0."""
    inner = simplify(g * diff(psi, "x") / psi ** 2)
    res = _ode_residual([simplify(diff(inner, "x"))], domain)
    if res > _ODE_TOL:
        raise ValidationError(f"psi does not solve its second-order ODE (residual {res:.2e})")


def _check_psi_fourth_order(g: Expr, h: Expr, psi: Expr, domain: Interval):
    """[g/psi^2 (psi^2/(2h) (g psi_x/psi^2)_x)_x]_x = psi/(4h) [(g psi_x/psi^2)_x]^2."""
    inner = simplify(diff(simplify(g * diff(psi, "x") / psi ** 2), "x"))
    lhs = diff(simplify(g / psi ** 2 * diff(simplify(psi ** 2 / (const(2) * h) * inner), "x")), "x")
    rhs = simplify(psi / (const(4) * h) * inner ** 2)
    res = _ode_residual([simplify(lhs), simplify(-rhs)], domain)
    if res > _ODE_TOL:
        raise ValidationError(f"psi does not solve its fourth-order ODE (residual {res:.2e})")


def chi_for_m2(g: Expr, h: Expr, psi: Expr) -> Expr:
    """chi = -psi^2/(2h) (g psi_x/psi^2)_x, the shift paired with psi."""
    inner = simplify(diff(simplify(g * diff(psi, "x") / psi ** 2), "x"))
    return simplify(-psi ** 2 / (const(2) * h) * inner)


def _affine_map(d1: float, d2: float, d3: float, dep: str, mul: Expr,
                shift: Expr | None = None) -> PointTransformation:
    """t~ = d1^2 t + d2, x~ = d1 x + d3, u~ = mul*u (+ shift)."""
    return _point_map(const(d1 ** 2) * T + const(d2), const(d1) * X + const(d3),
                      simplify((T - const(d2)) / const(d1 ** 2)),
                      simplify((X - const(d3)) / const(d1)), mul, shift, dep)


def _compose_inverse(e: Expr, inv_x: Expr) -> Expr:
    return simplify(substitute(e, "x", inv_x))


def _affine_domain(domain: Interval, d1: float, d3: float) -> Interval:
    a, b = d1 * domain.lo + d3, d1 * domain.hi + d3
    return Interval(min(a, b), max(a, b))


def apply_equiv(eq: Equation, params, group: str):
    """Act with one equivalence-group element; returns
    (transformed equation, point transformation).

    `group` selects the transformation law; psi/chi inputs are checked to
    solve their defining ODEs by numeric residual <= 1e-8.
    """
    if group not in GROUPS:
        raise ValidationError(f"unknown equivalence group {group!r}; choose from {GROUPS}")
    d = params.d
    if params.d(0) * params.d(1) == 0.0:
        raise ValidationError("delta0*delta1 must be nonzero")

    if group in ("general", "general-extended", "general-m2"):
        assert isinstance(eq, RDEquation)
        phi = params.phi if params.phi is not None else X
        phix = simplify(diff(phi, "x"))
        if sign_on(phix, eq.domain) == 0:
            raise ValidationError("phi must be strictly monotone on the domain")
        inv_x = invert_monotone(phi)
        if inv_x is None:
            inv_x = _tabulated_inverse(phi, eq.domain.lo, eq.domain.hi)
        if group == "general":
            if d(3) == 0.0:
                raise ValidationError("delta3 must be nonzero for the point group")
            new_f = _compose_inverse(simplify(const(d(0) * d(1)) / (const(d(3)) * phix) * eq.f), inv_x)
            new_g = _compose_inverse(simplify(const(d(0)) * phix / const(d(3)) * eq.g), inv_x)
            new_h = _compose_inverse(simplify(const(d(0)) / (const(d(3)) ** const(eq.m) * phix) * eq.h), inv_x)
            mul: Expr = const(d(3))
            shift = None
        else:
            psi = params.psi if params.psi is not None else const(1)
            if group == "general-extended":
                _check_psi_second_order(eq.g, psi, eq.domain)
                new_h = _compose_inverse(
                    simplify(const(d(0)) / (phix * psi ** const(eq.m + 1.0)) * eq.h), inv_x)
                shift = None
            else:
                if eq.m != 2.0:
                    raise ValidationError("the m=2 group applies only to m=2 equations")
                _check_psi_fourth_order(eq.g, eq.h, psi, eq.domain)
                new_h = _compose_inverse(simplify(const(d(0)) / (phix * psi ** 3) * eq.h), inv_x)
                shift = params.chi if params.chi is not None else chi_for_m2(eq.g, eq.h, psi)
            new_f = _compose_inverse(simplify(const(d(0) * d(1)) / (phix * psi ** 2) * eq.f), inv_x)
            new_g = _compose_inverse(simplify(const(d(0)) * phix / psi ** 2 * eq.g), inv_x)
            mul = psi
        new_dom = Interval(*_image_of_ends(phi, ("x",), [eq.domain.lo, eq.domain.hi]))
        tr = _point_map(const(d(1)) * T + const(d(2)), phi,
                        simplify((T - const(d(2))) / const(d(1))), inv_x, mul, shift, eq.dep)
        return RDEquation(new_f, new_g, new_h, eq.m, new_dom, eq.dep), tr

    if group in ("gauged", "gauged-m2"):
        assert isinstance(eq, RDEquation) and eq.f == eq.g
        d1, d2, d3 = d(1), d(2), d(3)
        psi = params.psi if params.psi is not None else const(1)
        if group == "gauged":
            _check_psi_second_order(eq.f, psi, eq.domain)
            chi = None
            new_h_pre = simplify(const(d(0)) / (const(d1) * psi ** const(eq.m + 1.0)) * eq.h)
        else:
            if eq.m != 2.0:
                raise ValidationError("the m=2 group applies only to m=2 equations")
            _check_psi_fourth_order(eq.f, eq.h, psi, eq.domain)
            chi = params.chi if params.chi is not None else chi_for_m2(eq.f, eq.h, psi)
            new_h_pre = simplify(const(d(0)) / (const(d1) * psi ** 3) * eq.h)
        tr = _affine_map(d1, d2, d3, eq.dep, psi, chi)
        new_f = _compose_inverse(simplify(const(d(0) * d1) / psi ** 2 * eq.f), tr.inv_X)
        new_h = _compose_inverse(new_h_pre, tr.inv_X)
        return (RDEquation(new_f, new_f, new_h, eq.m,
                           _affine_domain(eq.domain, d1, d3), eq.dep), tr)

    if group == "imaged":
        assert isinstance(eq, ImagedEquation)
        d1, d2, d3, d4 = d(1), d(2), d(3), d(4)
        if d1 * d4 == 0.0:
            raise ValidationError("delta1*delta4 must be nonzero")
        tr = _affine_map(d1, d2, d3, eq.dep, const(d4))
        new_F = _compose_inverse(simplify(eq.F / const(d1 ** 2)), tr.inv_X)
        new_H = _compose_inverse(
            simplify(eq.H / (const(d1 ** 2) * const(d4) ** const(eq.m - 1.0))), tr.inv_X)
        return (ImagedEquation(new_F, new_H, eq.m,
                               _affine_domain(eq.domain, d1, d3), eq.dep), tr)

    if group == "imaged-m2":
        assert isinstance(eq, ImagedEquation) and eq.m == 2.0
        d1, d2, d3, d4 = d(1), d(2), d(3), d(4)
        chi = params.chi if params.chi is not None else const(0)
        res = _ode_residual(
            [simplify(diff(diff(chi, "x"), "x")),
             simplify(-(eq.H * chi ** 2 / const(d4) - eq.F * chi))], eq.domain)
        if res > _ODE_TOL:
            raise ValidationError(f"chi does not solve chi_xx = H chi^2/delta4 - F chi "
                                  f"(residual {res:.2e})")
        tr = _affine_map(d1, d2, d3, eq.dep, const(d4), chi)
        new_F = _compose_inverse(
            simplify(eq.F / const(d1 ** 2)
                     - const(2) * eq.H * chi / const(d1 ** 2 * d4)), tr.inv_X)
        new_H = _compose_inverse(simplify(eq.H / const(d1 ** 2 * d4)), tr.inv_X)
        return (ImagedEquation(new_F, new_H, 2.0,
                               _affine_domain(eq.domain, d1, d3), eq.dep), tr)

    # double-imaged class
    assert isinstance(eq, DoubleImagedEquation)
    d1, d2, d3, d4 = d(1), d(2), d(3), d(4)
    if d1 * d4 == 0.0:
        raise ValidationError("delta1*delta4 must be nonzero")
    tr = _affine_map(d1, d2, d3, eq.dep, const(d4))
    new_G = _compose_inverse(simplify(const(d4) * eq.G / const(d1 ** 2)), tr.inv_X)
    new_H = _compose_inverse(simplify(eq.H / const(d1 ** 2 * d4)), tr.inv_X)
    return (DoubleImagedEquation(new_H, new_G,
                                 _affine_domain(eq.domain, d1, d3), eq.dep), tr)


# -- generic change-of-variables laws for the imaged classes -------------------

def _projectable_parts(tr: PointTransformation, coeffs: tuple[Expr, ...], domain: Interval):
    """For t~=T(t), x~=X(t,x), dep~ = V1(t,x)*dep + V0(t,x): V1, V0, T_t,
    the operator L W = (W_t X_x - W_x X_t - W_xx X_x)/(T_t X_x), and the
    composition of an element with the inverse map.  Errors when V is not
    affine in the dependent variable."""
    dep = tr.dep
    V1 = simplify(diff(tr.V, dep))
    if dep in free_variables(V1):
        raise ValidationError("transformation must be affine in the dependent variable")
    V0 = simplify(substitute(tr.V, dep, const(0.0)))
    asm = inferred_assumptions((V1, V0) + coeffs, domain)
    T_t = simplify(diff(tr.T, "t", asm))
    X_x = simplify(diff(tr.X, "x", asm))
    X_t = simplify(diff(tr.X, "t", asm))

    def L(W: Expr) -> Expr:
        return simplify((diff(W, "t", asm) * X_x - diff(W, "x", asm) * X_t
                         - diff(diff(W, "x", asm), "x", asm) * X_x) / (T_t * X_x))

    def back(e: Expr) -> Expr:
        return simplify(substitute(e, {"t": tr.inv_T, "x": tr.inv_X}))

    return V1, V0, T_t, L, back


def imaged_image_elements(eq: ImagedEquation, tr: PointTransformation) -> tuple[Expr, Expr]:
    """New (F, H) of the imaged class under t~=T(t), x~=X(t,x), v~=V1 v:
    H~ = V1^(1-m) H / T_t,  F~ = F/T_t + L V1 / V1, composed with the
    inverse map."""
    V1, V0, T_t, L, back = _projectable_parts(tr, (eq.F, eq.H), eq.domain)
    if V0 != const(0.0):
        raise ValidationError("this law takes v~ = V1 v; a shift of v (m=2) acts "
                              "through the imaged-m2 group of apply_equiv")
    H_new = simplify(V1 ** const(1.0 - eq.m) / T_t * eq.H)
    F_new = simplify(eq.F / T_t + L(V1) / V1)
    return back(F_new), back(H_new)


def double_image_elements(eq: DoubleImagedEquation,
                          tr: PointTransformation) -> tuple[Expr, Expr]:
    """New (H, G) of the double-imaged class under t~=T, x~=X, w~=V1 w+V0:
    H~ = H/(V1 T_t),  G~ = V1 G/T_t + L V0 - H~ V0^2."""
    V1, V0, T_t, L, back = _projectable_parts(tr, (eq.G, eq.H), eq.domain)
    H_new = simplify(eq.H / (V1 * T_t))
    G_new = simplify(V1 * eq.G / T_t + L(V0) - H_new * V0 ** 2)
    return back(H_new), back(G_new)


_T_REF_CANDIDATES = (1.0, 0.4, 2.0, -0.05, -0.4, -1.3, -2.6)


def strip_time_dependence(e: Expr, domain: Interval,
                          tol: float = 1e-8) -> Expr:
    """Fix t at a reference value in an element that must be a function of
    x alone, verifying time-independence numerically first.  The reference
    is probed, since inverse maps may only exist on a half-line of t."""
    if "t" not in free_variables(e):
        return e
    mid = 0.5 * (domain.lo + domain.hi)
    _, ok = evaluate_points([e], ("t", "x"), [(t, mid) for t in _T_REF_CANDIDATES])
    valid = [t for t, good in zip(_T_REF_CANDIDATES, ok) if good]
    if len(valid) < 2:
        raise ValidationError("cannot find reference times to pin the element")
    a = simplify(substitute(e, "t", const(valid[0])))
    b = simplify(substitute(e, "t", const(valid[1])))
    box = {"x": (domain.lo, domain.hi)}
    if not num_equal(a, b, box, 48, tol):
        raise ValidationError("transformed element retains time dependence")
    return a


# -- additional equivalence transformations ------------------------------------

ADDITIONAL_MAPS = (
    "imaged:1->1", "imaged:2->2", "imaged:4->3", "imaged:6->2",
    "double:1->1", "double:2->2", "double:4->3", "double:6->2",
    "initial:1.2->1.1", "initial:1.3->1.1", "initial:1.3->1.3",
    "initial:2.2->2.1", "initial:4->3.1", "initial:4->3.2", "initial:6->2.1",
)


@dataclass(frozen=True)
class AdditionalMap:
    which: str
    source: Equation
    target: Equation
    transformation: PointTransformation
    target_case: str
    target_params: dict


def _imaged_drift_map(alpha: float) -> PointTransformation:
    """t~=t, x~=x+2 alpha t, v~=e^(-alpha x) v."""
    return _point_map(*_drift_coords(alpha), exp(const(-alpha) * X), dep="v")


def _imaged_exp_map(beta: float, k: float, m: float) -> PointTransformation:
    """t~=-e^(-4 beta t)/(4 beta), x~=e^(-2 beta t) x,
    v~=exp(beta x^2/2 + 2 beta (k+2) t/(m-1)) v."""
    c = 2.0 * beta * (k + 2.0) / (m - 1.0)
    return _point_map(*_exp_coords(beta), exp(const(beta / 2) * X ** 2 + const(c) * T), dep="v")


def _double_drift_map(q: float, delta: float) -> PointTransformation:
    """t~=t, x~=x-2qt, w~=e^(qx) w + q^2/(2 delta)."""
    return _point_map(*_drift_coords(-q), exp(const(q) * X), const(q * q / (2.0 * delta)), "w")


def _double_exp_map(p: float, k: float, delta: float) -> PointTransformation:
    """t~=-e^(-8pt)/(8p), x~=e^(-4pt) x,
    w~=e^(4p(k+2)t) (e^(p x^2) w + p(2 p x^2 + 2k + 3)/(delta x^k))."""
    grow = exp(const(4 * p * (k + 2.0)) * T)
    shift = const(p / delta) * (const(2 * p) * X ** 2 + const(2 * k + 3.0)) * pow_(X, const(-k))
    return _point_map(*_exp_coords(2 * p), grow * exp(const(p) * X ** 2), grow * shift, "w")


def _match_template(actual: Expr, shape: Expr, domain: Interval, what: str) -> float:
    """The constant c in actual = c * shape, read off the sampled ratio."""
    c = constant_on(simplify(actual / shape), domain, 1e-7)
    if c is None:
        raise ValidationError(f"{what} is undefined at a sample point or does "
                              "not match its target shape")
    return c


def _scaled_drift_map(k: float, sig: float, mul: Expr) -> PointTransformation:
    """t~=k^2 t, x~=k(x+2 sig t), u~=mul*u."""
    inv_t = T / const(k ** 2)
    return _point_map(simplify(const(k ** 2) * T), simplify(const(k) * (X + const(2 * sig) * T)),
                      simplify(inv_t), simplify(X / const(k) - const(2 * sig) * inv_t), mul)


def apply_additional(eq: Equation, which: str, params: dict | None = None) -> AdditionalMap:
    """Apply one of the named additional equivalence maps between
    classification cases; the source must structurally match the source
    case of the map."""
    from .tables import build_imaged, imaged_F, imaged_H

    if which not in ADDITIONAL_MAPS:
        raise ValidationError(f"unknown additional map {which!r}")
    params = dict(params or {})
    box = {"x": (eq.domain.lo, eq.domain.hi)}

    def must_match(a: Expr, b: Expr, label: str, tol: float = 1e-9):
        if not num_equal(a, b, box, 64, tol):
            raise ValidationError(f"source does not match the {label} template")

    if which.startswith("imaged:"):
        assert isinstance(eq, ImagedEquation)
        m = eq.m
        if which == "imaged:1->1":
            q, a1, d = params["q"], params["a1"], params["delta"]
            must_match(eq.H, imaged_H(1, {"delta": d, "q": q}), "T1/1 H")
            must_match(eq.F, const(a1), "T1/1 F")
            tr = _imaged_drift_map(alpha_of(q, m))
            tgt_params = {"delta": d, "q": 0.0, "a1": a1 + alpha_of(q, m) ** 2}
            tgt_case = "T1/1"
        elif which == "imaged:2->2":
            q, d = params["q"], params["delta"]
            must_match(eq.H, imaged_H(2, {"delta": d, "q": q}), "T1/2 H")
            must_match(eq.F, imaged_F(2, {"q": q}, m), "T1/2 F")
            tr = _imaged_drift_map(alpha_of(q, m))
            tgt_params, tgt_case = {"delta": d, "q": 0.0}, "T1/2"
        elif which == "imaged:4->3":
            d, k, p, a2 = params["delta"], params["k"], params["p"], params["a2"]
            must_match(eq.H, imaged_H(4, {"delta": d, "k": k, "p": p}), "T1/4 H")
            must_match(eq.F, imaged_F(4, {"k": k, "p": p, "a2": a2}, m), "T1/4 F")
            tr = _imaged_exp_map(beta_of(p, m), k, m)
            tgt_params, tgt_case = {"delta": d, "k": k, "a2": a2}, "T1/3"
        else:  # imaged:6->2
            d, p = params["delta"], params["p"]
            must_match(eq.H, imaged_H(6, {"delta": d, "p": p}), "T1/6 H")
            must_match(eq.F, imaged_F(6, {"p": p}, m), "T1/6 F")
            tr = _imaged_exp_map(beta_of(p, m), 0.0, m)
            tgt_params, tgt_case = {"delta": d, "q": 0.0}, "T1/2"
        F_new, H_new = imaged_image_elements(eq, tr)
        # the image is autonomous; pin t and check
        tgt_row = int(tgt_case.split("/")[1])
        tgt_eq, _ = build_imaged(tgt_row, tgt_params, m, _image_domain(eq.domain, tr))
        F_new = strip_time_dependence(F_new, tgt_eq.domain)
        H_new = strip_time_dependence(H_new, tgt_eq.domain)
        target = ImagedEquation(F_new, H_new, m, tgt_eq.domain)
        return AdditionalMap(which, eq, target, tr, tgt_case, tgt_params)

    if which.startswith("double:"):
        assert isinstance(eq, DoubleImagedEquation)
        from .tables import double_G, double_H

        if which in ("double:1->1", "double:2->2"):
            q, d = params["q"], params["delta"]
            row = 1 if which == "double:1->1" else 2
            pr = dict(params)
            must_match(eq.H, double_H(row, pr), f"T2/{row} H")
            must_match(eq.G, double_G(row, pr), f"T2/{row} G")
            tr = _double_drift_map(q, d)
            if row == 1:
                tgt_params = {"delta": d, "q": 0.0,
                              "b1": params["b1"] - q ** 4 / (4 * d)}
                tgt_case = "T2/1"
            else:
                tgt_params, tgt_case = {"delta": d, "q": 0.0}, "T2/2"
        elif which == "double:4->3":
            d, k, p, b2 = params["delta"], params["k"], params["p"], params["b2"]
            must_match(eq.H, double_H(4, params), "T2/4 H")
            must_match(eq.G, double_G(4, params), "T2/4 G")
            tr = _double_exp_map(p, k, d)
            tgt_params, tgt_case = {"delta": d, "k": k, "b2": b2}, "T2/3"
        else:  # double:6->2
            d, p = params["delta"], params["p"]
            must_match(eq.H, double_H(6, params), "T2/6 H")
            must_match(eq.G, double_G(6, params), "T2/6 G")
            tr = _double_exp_map(p, 0.0, d)
            tgt_params, tgt_case = {"delta": d, "q": 0.0}, "T2/2"
        H_new, G_new = double_image_elements(eq, tr)
        tgt_dom = _image_domain(eq.domain, tr)
        H_new = strip_time_dependence(H_new, tgt_dom)
        G_new = strip_time_dependence(G_new, tgt_dom)
        target = DoubleImagedEquation(H_new, G_new, tgt_dom)
        return AdditionalMap(which, eq, target, tr, tgt_case, tgt_params)

    # initial-class maps; the targets are rows of tables.initial_fh
    assert isinstance(eq, RDEquation)
    m = eq.m
    if which == "initial:4->3.2":
        raise UnsupportedBranch(
            "initial:4->3.2 needs the oscillatory branch a2>1/4 of case 4, "
            "which the real Whittaker kernel does not cover")

    def check_source(case: str, *names: str):
        f_t, h_t = initial_fh(case, {n: params[n] for n in ("delta",) + names}, m)
        must_match(eq.f, f_t, f"T3/{case} f")
        must_match(eq.h, h_t, f"T3/{case} h")

    d = params["delta"]
    if which == "initial:2.2->2.1":
        check_source("2.2")
        tr = _point_map(T, X + T, T, X - T, const(1))
        tgt_case, tgt_params = "2.1", {"delta": d}
    elif which == "initial:1.2->1.1":
        check_source("1.2", "q")
        q = params["q"]
        qt = math.sqrt(q * q + (m - 1.0) ** 2)
        sig = (q - qt) / (1.0 - m)
        tr = _scaled_drift_map(qt, sig, const(qt ** (2.0 / (1.0 - m)))
                               * exp(const(-sig) * X - const(1 + sig ** 2) * T)
                               * func("cos", X))
        tgt_case, tgt_params = "1.1", {"delta": d, "q": 1.0}
    elif which == "initial:1.3->1.1":
        check_source("1.3", "r")
        q = params["r"] - (m + 1.0) / 2.0
        disc = q * q - (m - 1.0) ** 2 / 4.0
        if disc < 0.0:
            raise ValidationError("this branch needs 4 alpha^2 >= 1; "
                                  "use initial:1.3->1.3 instead")
        qt = math.sqrt(disc)
        sig = (q - qt) / (1.0 - m)
        tr = _scaled_drift_map(qt, sig, const(qt ** (2.0 / (1.0 - m)))
                               * exp(const(0.5 - sig) * X + const(0.25 - sig ** 2) * T))
        tgt_case, tgt_params = "1.1", {"delta": d, "q": 1.0}
    elif which == "initial:1.3->1.3":
        check_source("1.3", "r")
        a = alpha_of(params["r"] - (m + 1.0) / 2.0, m)
        if 4.0 * a * a >= 1.0:
            raise ValidationError("this branch needs 4 alpha^2 < 1; "
                                  "use initial:1.3->1.1 instead")
        nu = math.sqrt(1.0 - 4.0 * a * a)
        tr = _scaled_drift_map(nu, a, const(nu ** (2.0 / (1.0 - m)))
                               * exp(const(0.5 - a - nu / 2.0) * X - const(a * nu) * T))
        tgt_case, tgt_params = "1.3", {"delta": d, "r": (m + 1.0) / 2.0}
    elif which == "initial:4->3.1":
        check_source("4", "p", "s", "a2")
        b, s = beta_of(params["p"], m), params["s"]
        mu1 = math.sqrt(1.0 - 4.0 * params["a2"]) / 4.0
        kap1 = (s + 3.0) / (2.0 * (1.0 - m))
        f1 = func("whitM", const(kap1), const(mu1), const(b) * X ** 2)
        mul = (exp(const(b / 2) * X ** 2 + const(2 * b * (1 + 2 * mu1 - 2 * kap1)) * T)
               * f1 / pow_(X, const(1 + 2 * mu1)))
        tr = _point_map(*_exp_coords(b), mul)
        tgt_case, tgt_params = "3.1", {"delta": 1.0, "lam": 1.0 + 4.0 * mu1,
                                       "gam": s + (m + 1.0) * (1.0 + 2.0 * mu1)}
    else:  # initial:6->2.1
        check_source("6", "p")
        b = beta_of(params["p"], m)
        kap3 = (5.0 - m) / (4.0 * (1.0 - m))
        w = func("whitM", const(kap3), const(0.25), const(b) * X ** 2)
        mul = (exp(const(b / 2) * X ** 2 + const(4 * b / (m - 1.0)) * T)
               * w / sqrt(func("abs", X)))
        tr = _point_map(*_exp_coords(b), mul)
        tgt_case, tgt_params = "2.1", {"delta": 1.0}
    tgt_dom = _image_domain(eq.domain, tr)

    def target() -> RDEquation:
        f_t, h_t = initial_fh(tgt_case, tgt_params, m)
        return RDEquation(f_t, f_t, h_t, m, tgt_dom, "u")

    if which in ("initial:4->3.1", "initial:6->2.1"):
        # delta~ is read off the image of the unit-delta target
        tgt_params["delta"] = _extract_scale(eq, tr, target())
    return AdditionalMap(which, eq, target(), tr, f"T3/{tgt_case}", tgt_params)


def _image_domain(domain: Interval, tr: PointTransformation,
                  t_ref: float = 1.0) -> Interval:
    """Image of the x-domain at a reference time."""
    lo, hi = _image_of_ends(tr.X, ("t", "x"), [(t_ref, domain.lo), (t_ref, domain.hi)])
    if hi - lo < 1e-9:
        hi = lo + 1e-3
    return Interval(lo, hi)


def _extract_scale(src: RDEquation, tr: PointTransformation,
                   target_shape: RDEquation) -> float:
    """Determine the target h-scale by lifting the map to the imaged
    level: delta~ = H~ / (h-shape mapped through v~ = sqrt|f~| u~)."""
    img, _ = to_imaged(src)
    lift = tr_imaged_from_initial(tr, src, target_shape)
    _, H_new = imaged_image_elements(img, lift)
    dom = target_shape.domain
    H_new = strip_time_dependence(H_new, dom)
    r, s, _ = sqrt_resolved(target_shape.f, dom)
    shape_H = simplify(target_shape.h * const(s) / pow_(r, const(src.m + 1.0)))
    return _match_template(H_new, shape_H, dom, "target h scale")


def tr_imaged_from_initial(tr: PointTransformation, src: RDEquation,
                           tgt: RDEquation) -> PointTransformation:
    """Lift an initial-class map u -> u~ to the imaged level
    v = sqrt|f| u, v~ = sqrt|f~| u~."""
    r_src, _, _ = sqrt_resolved(src.f, src.domain)
    r_tgt, _, _ = sqrt_resolved(tgt.f, tgt.domain)
    V1 = simplify(diff(tr.V, "u"))
    # v~ = sqrt|f~|(X) * V1 * u = sqrt|f~|(X) * V1 / sqrt|f|(x) * v
    mul = simplify(substitute(r_tgt, "x", tr.X) * V1 / r_src)
    return _point_map(tr.T, tr.X, tr.inv_T, tr.inv_X, mul, dep="v")


# -- operator pullback, solution push-forward ------------------------------------

def pullback_operators(ops, tr: PointTransformation,
                       domain: Interval) -> tuple[VectorField, ...]:
    """Pull operators of the target equation back through a map with
    t~ = T(t), x~ = X(t, x), dep~ = V(t, x, dep) on the source domain:

        tau = tau~∘Φ / T_t
        xi  = (xi~∘Φ - tau X_t) / X_x
        eta = (eta~∘Φ - tau V_t - xi V_x) / V_dep

    where ∘Φ puts (T, X, V) in place of the new variables.  The map is
    differentiated once for all operators, under the signs of the domain."""
    t_vars = free_variables(tr.T)
    if "x" in t_vars or tr.dep in t_vars | free_variables(tr.X):
        raise ValidationError("the operator pullback needs t~ = T(t) and "
                              "x~ = X(t, x)")
    asm = inferred_assumptions((tr.T, tr.X, tr.V), domain)
    T_t, X_t, X_x, V_t, V_x, V_dep = (
        simplify(diff(e, n, asm)) for e, n in
        ((tr.T, "t"), (tr.X, "t"), (tr.X, "x"), (tr.V, "t"), (tr.V, "x"), (tr.V, tr.dep)))
    phi = {"t": tr.T, "x": tr.X, tr.new_dep: tr.V}
    out = []
    for Q in ops:
        if Q.dep != tr.new_dep:
            raise ValidationError(f"operator acts on {Q.dep!r}, the map yields {tr.new_dep!r}")
        tau = simplify(substitute(Q.tau, phi) / T_t)
        xi = simplify((substitute(Q.xi, phi) - tau * X_t) / X_x)
        eta = simplify((substitute(Q.eta, phi) - tau * V_t - xi * V_x) / V_dep)
        out.append(VectorField(tau, xi, eta, tr.dep))
    return tuple(out)


def pushforward_solution(sol: Expr, tr: PointTransformation) -> Expr:
    """Transport a solution u = sol(t, x) of the source equation to a
    solution of the target: compose the V component with the inverse
    coordinate map."""
    if not tr.invertible():
        raise ValidationError("solution push-forward needs an invertible map")
    old_sol = substitute(sol, {"t": tr.inv_T, "x": tr.inv_X})
    new = substitute(tr.V, {"t": tr.inv_T, "x": tr.inv_X, tr.dep: old_sol})
    return simplify(new)


# -- generic jet-level map verification ------------------------------------------

def map_residual_check(src: Equation, tgt: Equation, tr: PointTransformation,
                       n: int = 64, tol: float = 1e-8,
                       box: dict | None = None) -> VerificationReport:
    """Check that `tr` maps solutions of `src` to solutions of `tgt` by
    transporting jet coordinates through the change of variables and
    evaluating the target equation on the source manifold."""
    names = ("t", "x", "u", "u_x", "u_xx")
    dep = src.dep
    E_src = src.rhs()
    E_src = substitute(E_src, {dep: var("u"), dep + "_x": var("u_x"),
                               dep + "_xx": var("u_xx")})
    trr = tr.renamed("u")
    Tc, Xc, V = trr.T, trr.X, trr.V
    asm = inferred_assumptions((V, Xc, E_src), src.domain)
    T_t = simplify(diff(Tc, "t", asm))
    X_x = simplify(diff(Xc, "x", asm))
    X_t = simplify(diff(Xc, "t", asm))
    DxV = simplify(total_derivative(V, "x", asm))
    ux_new = simplify(DxV / X_x)
    uxx_new = simplify(total_derivative(ux_new, "x", asm) / X_x)
    DtV = simplify(total_derivative(V, "t", asm))
    ut_new = simplify((DtV - ux_new * X_t) / T_t)

    tdep = tgt.dep
    E_tgt = tgt.rhs()
    E_tgt = substitute(E_tgt, {tdep: var("u"), tdep + "_x": var("u_x"),
                               tdep + "_xx": var("u_xx"), "x": var("x")})
    E_tgt_sub = substitute(E_tgt, {"x": Xc, "u": V, "u_x": ux_new,
                                   "u_xx": uxx_new})

    def on_shell(e: Expr) -> Expr:
        return simplify(substitute(e, {"u_t": E_src}))

    terms = [on_shell(ut_new), simplify(-on_shell(E_tgt_sub))]
    return sampled_verification(terms, names, src.domain, box, n, tol)
