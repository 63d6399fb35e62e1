"""Row templates of the three classification tables and the reduction
operators of the cubic-source family.

Case ids follow the serialized scheme "T1/<row>" for the imaged class,
"T2/<row>" for the double-imaged class and "T3/<case>" for the initial
(f=g) class; row 0 is always the common kernel <d_t>.

Builders return fully instantiated equations together with the operator
basis for the given numeric parameters.  Parameter admissibility mirrors
the table footnotes and is checked by `constraint_violations`.
"""

from __future__ import annotations

import math

from .expr import Expr, const, diff, exp, func, ln, pow_, simplify, var
from .model import (
    DoubleImagedEquation,
    ImagedEquation,
    Interval,
    RDEquation,
    ValidationError,
    VectorField,
    sign_on,
)

X = var("x")
T = var("t")

DEFAULT_DOMAIN = Interval(0.5, 2.5)
# the cosine templates need a domain clear of zeros of cos
COS_DOMAIN = Interval(0.1, 1.2)
# the trig T4 family: zeta = c1 sin x + c2 cos x (eps = 1, c1, c2 > 0) first
# vanishes at x = pi - atan(c2/c1), which lies beyond 1.8 while c2 < 4.2 c1
TRIG_DOMAIN = Interval(0.5, 1.8)

T1_ROWS = (1, 2, 3, 4, 5, 6)
T2_ROWS = (1, 2, 3, 4, 5, 6)
T3_CASES = ("1.1", "1.2", "1.3", "2.1", "2.2", "3.1", "3.2", "4", "5", "6")


def alpha_of(q: float, m: float) -> float:
    return q / (1.0 - m)


def beta_of(p: float, m: float) -> float:
    return 2.0 * p / (m - 1.0)


def _dt(dep: str) -> VectorField:
    return VectorField(const(1), const(0), const(0), dep)


def _vf(tau, xi, eta, dep) -> VectorField:
    return VectorField(simplify(tau), simplify(xi), simplify(eta), dep)


# -- imaged class ------------------------------------------------------------

def imaged_H(row: int, params: dict) -> Expr:
    d = const(params["delta"])
    if row in (1, 2):
        return simplify(d * exp(const(params["q"]) * X))
    if row == 3:
        return simplify(d * pow_(X, const(params["k"])))
    if row == 4:
        return simplify(d * pow_(X, const(params["k"])) * exp(const(params["p"]) * X ** 2))
    return simplify(d * exp(const(params["p"]) * X ** 2))


def imaged_F(row: int, params: dict, m: float) -> Expr:
    if row == 1:
        return const(params["a1"])
    if row == 2:
        return const(-alpha_of(params["q"], m) ** 2)
    if row == 3:
        return simplify(const(params["a2"]) * X ** -2.0)
    b = beta_of(params["p"], m)
    if row == 4:
        c0 = b * (2.0 * params["k"] + 5.0 - m) / (1.0 - m)
        return simplify(const(-b * b) * X ** 2 + const(c0) + const(params["a2"]) * X ** -2.0)
    if row == 5:
        return simplify(const(-b * b) * X ** 2 + const(b * params["a3"]))
    c0 = b * (5.0 - m) / (1.0 - m)
    return simplify(const(-b * b) * X ** 2 + const(c0))


def imaged_operators(row: int, params: dict, m: float) -> tuple[VectorField, ...]:
    v = var("v")
    one, zero = const(1), const(0)
    ops = [_dt("v")]
    if row in (1, 2):
        a = alpha_of(params["q"], m)
        ops.append(_vf(zero, one, const(a) * v, "v"))
        if row == 2:
            xi = X - const(2 * a) * T
            eta = (const(a) * (X - const(2 * a) * T) + const(2.0 / (1.0 - m))) * v
            ops.append(_vf(const(2) * T, xi, eta, "v"))
    elif row == 3:
        eta = const((params["k"] + 2.0) / (1.0 - m)) * v
        ops.append(_vf(const(2) * T, X, eta, "v"))
    elif row == 4:
        b = beta_of(params["p"], m)
        g = exp(const(4 * b) * T)
        eta = const(-2 * b) * (const(b) * X ** 2 - const((params["k"] + 2.0) / (1.0 - m))) * v
        ops.append(_vf(g, const(2 * b) * X * g, eta * g, "v"))
    else:
        b = beta_of(params["p"], m)
        g2 = exp(const(2 * b) * T)
        ops.append(_vf(zero, g2, const(-b) * X * v * g2, "v"))
        if row == 6:
            g4 = exp(const(4 * b) * T)
            eta = const(-2 * b) * (const(b) * X ** 2 - const(2.0 / (1.0 - m))) * v
            ops.append(_vf(g4, const(2 * b) * X * g4, eta * g4, "v"))
    return tuple(ops)


def build_imaged(row: int, params: dict, m: float,
                 domain: Interval = DEFAULT_DOMAIN) -> tuple[ImagedEquation, tuple[VectorField, ...]]:
    eq = ImagedEquation(imaged_F(row, params, m), imaged_H(row, params), m, domain)
    return eq, imaged_operators(row, params, m)


def t1_constraint_violations(row: int, params: dict, m: float) -> list[str]:
    out = []
    if m in (0.0, 1.0):
        out.append("m in {0,1}")
    if params.get("delta", 1.0) == 0.0:
        out.append("delta=0")
    if row == 1:
        a = alpha_of(params["q"], m)
        if params["a1"] == -a * a:
            out.append("a1 = -alpha^2 belongs to row 2")
        if params["q"] == 0.0 and params["a1"] == 0.0:
            out.append("q=a1=0 belongs to row 2 with q=0")
    if row == 3 and params["k"] ** 2 + params["a2"] ** 2 == 0.0:
        out.append("k=a2=0 degenerates to row 2 with q=0")
    if row in (4, 5, 6) and params["p"] == 0.0:
        out.append("p=0 degenerates the exponential-square template")
    if row == 5:
        a3 = params["a3"]
        if a3 == (5.0 - m) / (1.0 - m):
            out.append("a3 boundary belongs to row 6")
        if m == 2.0 and a3 == 5.0:
            out.append("a3=5 excluded for m=2")
    return out


# -- double-imaged class ------------------------------------------------------

def t2_poly_P(params: dict) -> Expr:
    p, k, b2 = params["p"], params["k"], params["b2"]
    x2 = X ** 2
    return simplify(
        const(p * p) * (const(2 * p) * x2 + const(1)) * (const(2 * p) * x2 - const(11)) * X ** 4
        + const(8 * k * p ** 3) * X ** 6
        + const(2 * k * (3 * k - 5) * p * p) * X ** 4
        + const(k * (k + 1) * (2 * k + 3) * p) * x2
        + const(b2)
    )


def double_H(row: int, params: dict) -> Expr:
    return imaged_H(row, params)


def double_G(row: int, params: dict) -> Expr:
    d = params["delta"]
    if row == 1:
        return simplify(const(params["b1"]) * exp(const(-params["q"]) * X))
    if row == 2:
        q = params["q"]
        return simplify(const(q ** 4 / (4 * d)) * exp(const(-q) * X))
    if row == 3:
        return simplify(const(params["b2"] / d) * pow_(X, const(-params["k"] - 4.0)))
    if row == 4:
        p, k = params["p"], params["k"]
        return simplify(
            const(1.0 / d) * pow_(X, const(-k - 4.0)) * exp(const(-p) * X ** 2) * t2_poly_P(params)
        )
    p = params["p"]
    b3 = params["b3"] if row == 5 else -11.0
    return simplify(
        const(p * p / d)
        * (const(4 * p * p) * X ** 4 - const(20 * p) * X ** 2 + const(b3))
        * exp(const(-p) * X ** 2)
    )


def double_operators(row: int, params: dict) -> tuple[VectorField, ...]:
    w = var("w")
    one, zero = const(1), const(0)
    d = params["delta"]
    ops = [_dt("w")]
    if row in (1, 2):
        q = params["q"]
        ops.append(_vf(zero, one, const(-q) * w, "w"))
        if row == 2:
            xi = X + const(2 * q) * T
            eta = -((const(q) * X + const(2 * q * q) * T + const(2)) * w
                    + const(q * q / d) * exp(const(-q) * X))
            ops.append(_vf(const(2) * T, xi, eta, "w"))
    elif row == 3:
        ops.append(_vf(const(2) * T, X, const(-(params["k"] + 2.0)) * w, "w"))
    elif row == 4:
        p, k = params["p"], params["k"]
        g = exp(const(8 * p) * T)
        eta = const(-4 * p) * (
            (const(2 * p) * X ** 2 + const(k + 2.0)) * w
            + const(2 * p / d) * (const(4 * p) * X ** 2 + const(2 * k + 3.0))
            * pow_(X, const(-k)) * exp(const(-p) * X ** 2)
        )
        ops.append(_vf(g, const(4 * p) * X * g, eta * g, "w"))
    else:
        p = params["p"]
        g4 = exp(const(4 * p) * T)
        eta5 = const(-2 * p) * X * (w + const(2 * p / d) * exp(const(-p) * X ** 2))
        ops.append(_vf(zero, g4, eta5 * g4, "w"))
        if row == 6:
            g8 = exp(const(8 * p) * T)
            eta = const(-8 * p) * (
                (const(p) * X ** 2 + const(1)) * w
                + const(p / d) * (const(4 * p) * X ** 2 + const(3)) * exp(const(-p) * X ** 2)
            )
            ops.append(_vf(g8, const(4 * p) * X * g8, eta * g8, "w"))
    return tuple(ops)


def build_double(row: int, params: dict,
                 domain: Interval = DEFAULT_DOMAIN) -> tuple[DoubleImagedEquation, tuple[VectorField, ...]]:
    eq = DoubleImagedEquation(double_H(row, params), double_G(row, params), domain)
    return eq, double_operators(row, params)


def t2_constraint_violations(row: int, params: dict) -> list[str]:
    out = []
    if params.get("delta", 1.0) == 0.0:
        out.append("delta=0")
    if row == 1 and params["b1"] == params["q"] ** 4 / (4 * params["delta"]):
        out.append("b1 boundary belongs to row 2")
    if row == 3 and (params["k"], params["b2"]) == (0.0, 0.0):
        out.append("k=b2=0 degenerates")
    if row in (4, 5, 6) and params["p"] == 0.0:
        out.append("p=0")
    if row == 5 and params["b3"] == -11.0:
        out.append("b3=-11 belongs to row 6")
    return out


# -- initial class -------------------------------------------------------------

def initial_fh(case: str, params: dict, m: float) -> tuple[Expr, Expr]:
    d = const(params["delta"])
    mp1 = m + 1.0
    if case == "1.1":
        return const(1), simplify(d * exp(const(params.get("q", 1.0)) * X))
    if case == "1.2":
        f = func("cos", X) ** 2
        h = d * exp(const(params["q"]) * X) * func("abs", func("cos", X)) ** mp1
        return simplify(f), simplify(h)
    if case == "1.3":
        return exp(X), simplify(d * exp(const(params["r"]) * X))
    if case == "2.1":
        return const(1), d
    if case == "2.2":
        return exp(X), simplify(d * exp(X))
    if case == "3.1":
        return pow_(X, const(params["lam"])), simplify(d * pow_(X, const(params["gam"])))
    if case == "3.2":
        rho = const(params["rho"])
        c = func("cos", rho * ln(X))
        f = X * c ** 2
        h = d * pow_(X, const(params["l"])) * func("abs", c) ** mp1
        return simplify(f), simplify(h)
    # Whittaker cases 4/5/6
    p = params["p"]
    b = beta_of(p, m)
    if case == "4":
        s = params["s"]
        kap = (s + 3.0) / (2.0 * (1.0 - m))
        mu = math.sqrt(1.0 - 4.0 * params["a2"]) / 4.0
        w = func("whitM", const(kap), const(mu), const(b) * X ** 2)
        f = X ** -1.0 * w ** 2
        h = d * pow_(X, const(s)) * exp(const(p) * X ** 2) * func("abs", w) ** mp1
        return simplify(f), simplify(h)
    kap = params["a3"] / 4.0 if case == "5" else (5.0 - m) / (4.0 * (1.0 - m))
    w = func("whitM", const(kap), const(0.25), const(b) * X ** 2)
    f = X ** -1.0 * w ** 2
    h = (d * pow_(X, const(-mp1 / 2.0)) * exp(const(p) * X ** 2)
         * func("abs", w) ** mp1)
    return simplify(f), simplify(h)


def t3_case(row: int, params: dict, m: float) -> tuple[str, dict, float]:
    """(case, case params, w) of the T3 case that the preimages of
    imaged-class row `row` under to_imaged fall in: initial_fh(case, case
    params) with x -> w x is such a preimage, its sqrt|f| solving
    (sqrt|f|)_xx + F sqrt|f| = 0 and its h = (sqrt|f|)^(m+1) H.

    Row 1 splits by the sign of a1 (1.1, 1.2, 1.3), row 2 by q = 0
    (2.1, 2.2), row 3 by a2 <= 1/4 (3.1, 3.2); rows 4-6 are cases 4-6.
    """
    d = params["delta"]
    mp1 = m + 1.0
    if row == 1:
        q, a1 = params["q"], params["a1"]
        if a1 == 0.0:
            return "1.1", {"delta": d, "q": q}, 1.0
        w = math.sqrt(abs(a1))
        if a1 > 0.0:
            return "1.2", {"delta": d, "q": q / w}, w
        return "1.3", {"delta": d, "r": (q + w * mp1) / (2.0 * w)}, 2.0 * w
    if row == 2:
        if params["q"] == 0.0:
            return "2.1", {"delta": d}, 1.0
        return "2.2", {"delta": d}, 2.0 * alpha_of(params["q"], m)
    if row == 3:
        k, a2 = params["k"], params["a2"]
        if a2 <= 0.25 + 1e-9:
            lam = 1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * a2))
            return "3.1", {"delta": d, "lam": lam, "gam": k + lam * mp1 / 2.0}, 1.0
        rho = math.sqrt(4.0 * a2 - 1.0) / 2.0
        return "3.2", {"delta": d, "rho": rho, "l": k + mp1 / 2.0}, 1.0
    if row == 4:
        return "4", {"delta": d, "p": params["p"], "s": params["k"] - mp1 / 2.0,
                     "a2": params["a2"]}, 1.0
    if row == 5:
        return "5", {"delta": d, "p": params["p"], "a3": params["a3"]}, 1.0
    if row == 6:
        return "6", {"delta": d, "p": params["p"]}, 1.0
    raise ValidationError(f"unknown imaged-class row {row}")


def initial_operators(case: str, params: dict, m: float) -> tuple[VectorField, ...]:
    u = var("u")
    one, zero = const(1), const(0)
    ops = [_dt("u")]
    if case == "1.1":
        a = alpha_of(params.get("q", 1.0), m)
        ops.append(_vf(zero, one, const(a) * u, "u"))
    elif case == "1.2":
        a = alpha_of(params["q"], m)
        ops.append(_vf(zero, one, (const(a) + func("tan", X)) * u, "u"))
    elif case == "1.3":
        ops.append(_vf(zero, one, const((params["r"] - 1.0) / (1.0 - m)) * u, "u"))
    elif case == "2.1":
        ops.append(_vf(zero, one, zero, "u"))
        ops.append(_vf(const(2) * T, X, const(2.0 / (1.0 - m)) * u, "u"))
    elif case == "2.2":
        ops.append(_vf(zero, one, zero, "u"))
        ops.append(_vf(const(2) * T, X - T, const(2.0 / (1.0 - m)) * u, "u"))
    elif case == "3.1":
        c = (2.0 - params["lam"] + params["gam"]) / (1.0 - m)
        ops.append(_vf(const(2) * T, X, const(c) * u, "u"))
    elif case == "3.2":
        rho, l = params["rho"], params["l"]
        eta = (const(rho) * func("tan", const(rho) * ln(X))
               + const((l + 1.0) / (1.0 - m))) * u
        ops.append(_vf(const(2) * T, X, eta, "u"))
    elif case == "4":
        p, s = params["p"], params["s"]
        b = beta_of(p, m)
        kap = (s + 3.0) / (2.0 * (1.0 - m))
        mu = math.sqrt(1.0 - 4.0 * params["a2"]) / 4.0
        w = func("whitM", const(kap), const(mu), const(b) * X ** 2)
        g1 = diff(w, "x") / w
        g4 = exp(const(4 * b) * T)
        eta = const(-2 * b) * (const(b) * X ** 2 - const(2 * kap) + X * g1) * u
        ops.append(_vf(g4, const(2 * b) * X * g4, eta * g4, "u"))
    elif case == "5":
        p, a3 = params["p"], params["a3"]
        b = beta_of(p, m)
        kap = a3 / 4.0
        w = func("whitM", const(kap), const(0.25), const(b) * X ** 2)
        w1 = func("whitM", const(kap + 1.0), const(0.25), const(b) * X ** 2)
        g2 = w1 / w
        g2t = exp(const(2 * b) * T)
        eta = -(const(4 * b) * X ** 2 - const(1.0 + a3) + const(a3 + 3.0) * g2) \
            * u / (const(2) * X)
        ops.append(_vf(zero, g2t, eta * g2t, "u"))
    elif case == "6":
        p = params["p"]
        b = beta_of(p, m)
        kap = (5.0 - m) / (4.0 * (1.0 - m))
        cg = 2.0 * (2.0 - m) / (1.0 - m)
        w = func("whitM", const(kap), const(0.25), const(b) * X ** 2)
        w1 = func("whitM", const(kap + 1.0), const(0.25), const(b) * X ** 2)
        g3 = w1 / w
        g2t = exp(const(2 * b) * T)
        eta2 = -(const(2 * b) * X ** 2 + const((m - 3.0) / (1.0 - m)) + const(cg) * g3) \
            * u / X
        ops.append(_vf(zero, g2t, eta2 * g2t, "u"))
        g4t = exp(const(4 * b) * T)
        eta3 = const(-2 * b) * (const(2 * b) * X ** 2 - const(4 * kap) + const(cg) * g3) * u
        ops.append(_vf(g4t, const(2 * b) * X * g4t, eta3 * g4t, "u"))
    return tuple(ops)


def _initial_domain(case: str) -> Interval:
    return COS_DOMAIN if case in ("1.2",) else DEFAULT_DOMAIN


def build_initial(case: str, params: dict, m: float,
                  domain: Interval | None = None) -> tuple[RDEquation, tuple[VectorField, ...]]:
    f, h = initial_fh(case, params, m)
    eq = RDEquation(f, f, h, m, domain or _initial_domain(case))
    return eq, initial_operators(case, params, m)


def t3_constraint_violations(case: str, params: dict, m: float) -> list[str]:
    out = []
    if m in (0.0, 1.0):
        out.append("m in {0,1}")
    if params.get("delta", 1.0) == 0.0:
        out.append("delta=0")
    if case == "1.1" and params.get("q", 1.0) == 0.0:
        out.append("q=0 belongs to case 2.1")
    if case == "1.3" and params["r"] in (1.0, m):
        out.append("r in {1, m} is excluded")
    if case == "3.1":
        pair = (params["lam"], params["gam"])
        excluded = [(0.0, 0.0), (2.0, m + 1.0)]
        if m == 2.0:
            excluded += [(-6.0, -9.0), (2.0, 3.0), (8.0, 12.0)]
        if pair in excluded:
            out.append(f"(lambda,gamma)={pair} is equivalent to case 2.1")
    if case == "3.2" and params["rho"] == 0.0:
        out.append("rho=0")
    if case == "4":
        if params["a2"] > 0.25:
            out.append("a2>1/4 oscillatory branch not instantiated")
        if params["a2"] == 0.0 and params["s"] == -(m + 1.0) / 2.0:
            out.append("s=-(m+1)/2 with a2=0 excluded")
        if beta_of(params["p"], m) <= 0.0:
            out.append("beta<=0 branch unverified (argument of whitM must be positive)")
    if case in ("5", "6") and beta_of(params["p"], m) <= 0.0:
        out.append("beta<=0 branch unverified (argument of whitM must be positive)")
    if case == "5":
        a3 = params["a3"]
        if a3 == (5.0 - m) / (1.0 - m):
            out.append("a3 boundary belongs to case 6")
        if m == 2.0 and a3 == 5.0:
            out.append("a3=5 excluded for m=2")
    return out


# -- reduction operators of the cubic-source family ---------------------------

def cubic_source_equation(delta: float, eps: float,
                          domain: Interval = DEFAULT_DOMAIN) -> ImagedEquation:
    """v_t = v_xx + delta v^3 + eps v."""
    return ImagedEquation(const(eps), const(delta), 3.0, domain)


def cubic_reduction_operators(delta: float, eps: float) -> list[tuple[str, VectorField]]:
    """Reduction operators (tau=1) of v_t=v_xx+delta v^3+eps v.

    Labels name the branch; the sqrt(-2 delta) pair exists only for
    delta<0, the tan/tanh/coth branches depend on the sign of eps.
    """
    v = var("v")
    one = const(1)
    ops: list[tuple[str, VectorField]] = []
    if delta < 0:
        root = math.sqrt(-2.0 * delta)
        for sgn, tag in ((1.0, "wave+"), (-1.0, "wave-")):
            xi = const(sgn * 1.5 * root) * v
            eta = const(1.5) * (const(delta) * v ** 3 + const(eps) * v)
            ops.append((tag, _vf(one, xi, eta, "v")))
    if eps == 0.0:
        ops.append(("radial", _vf(one, const(-3) / X, const(-3) * v / X ** 2, "v")))
    elif eps < 0.0:
        mu = math.sqrt(-eps / 2.0)
        tn = func("tan", const(mu) * X)
        eta = const(-3 * mu * mu) * (const(1) + tn ** 2) * v
        ops.append(("tan", _vf(one, const(3 * mu) * tn, eta, "v")))
    else:
        mu = math.sqrt(eps / 2.0)
        th = func("tanh", const(mu) * X)
        eta_t = const(3 * mu * mu) * (const(1) - th ** 2) * v
        ops.append(("tanh", _vf(one, const(-3 * mu) * th, eta_t, "v")))
        sh = func("sinh", const(mu) * X)
        ch = func("cosh", const(mu) * X)
        eta_c = const(-3 * mu * mu) * v / sh ** 2
        ops.append(("coth", _vf(one, const(-3 * mu) * ch / sh, eta_c, "v")))
    return ops


T4_FAMILIES = ("linear", "trig", "hyperbolic")


def t4_zeta(family: str, params: dict) -> Expr:
    c1, c2 = const(params["c1"]), const(params["c2"])
    eps = params["eps"]
    if family == "linear":
        return simplify(c1 * X + c2)
    if family == "trig":
        r = const(math.sqrt(eps))
        return simplify(c1 * func("sin", r * X) + c2 * func("cos", r * X))
    r = const(math.sqrt(-eps))
    return simplify(c1 * func("sinh", r * X) + c2 * func("cosh", r * X))


def t4_equation(family: str, params: dict,
                domain: Interval | None = None) -> RDEquation:
    """f u_t = (f u_x)_x + delta f^2 u^3 with f = zeta^2; zeta must keep
    its sign on the domain (f = zeta^2 has a double zero, which sampling
    the sign of f cannot see)."""
    domain = domain or (TRIG_DOMAIN if family == "trig" else DEFAULT_DOMAIN)
    z = t4_zeta(family, params)
    if sign_on(z, domain) == 0:
        raise ValidationError(f"zeta = {z} vanishes or changes sign on {domain}")
    f = simplify(z ** 2)
    h = simplify(const(params["delta"]) * f ** 2)
    return RDEquation(f, f, h, 3.0, domain)


def t4_operators(family: str, params: dict) -> list[tuple[str, VectorField]]:
    """Reduction operators of the variable-coefficient cubic equations."""
    u = var("u")
    one = const(1)
    delta, eps = params["delta"], params["eps"]
    z = t4_zeta(family, params)
    zx = diff(z, "x")
    ops: list[tuple[str, VectorField]] = []
    if delta < 0:
        root = math.sqrt(-2.0 * delta)
        for sgn, tag in ((1.0, "wave+"), (-1.0, "wave-")):
            xi = const(sgn * 1.5 * root) * z * u
            eta = const(1.5) * (const(delta) * z ** 2 * u ** 3
                                - const(sgn * root) * zx * u ** 2
                                + const(eps) * u)
            ops.append((tag, _vf(one, xi, eta, "u")))
    if family == "linear":
        eta = const(-3.0 * params["c2"]) * u / (X ** 2 * z)
        ops.append(("radial", _vf(one, const(-3) / X, eta, "u")))
    elif family == "trig":
        mu = math.sqrt(eps / 2.0)
        th = func("tanh", const(mu) * X)
        sh = func("sinh", const(mu) * X)
        ch = func("cosh", const(mu) * X)
        eta_t = const(3 * mu) * (zx / z * th + const(mu) * (const(1) - th ** 2)) * u
        ops.append(("tanh", _vf(one, const(-3 * mu) * th, eta_t, "u")))
        eta_c = const(3 * mu) * (zx / z * ch / sh - const(mu) / sh ** 2) * u
        ops.append(("coth", _vf(one, const(-3 * mu) * ch / sh, eta_c, "u")))
    else:
        mu = math.sqrt(-eps / 2.0)
        tn = func("tan", const(mu) * X)
        eta = const(-3 * mu) * (zx / z * tn + const(mu) * (const(1) + tn ** 2)) * u
        ops.append(("tan", _vf(one, const(3 * mu) * tn, eta, "u")))
    return ops
