"""Machine-readable catalog of exact solutions with grid-based residual
verification and generation of new solutions through point transformations.

Every entry states its target equation, a closed-form solution with free
constants, admissible constant ranges, and a verification box.  The
defining acceptance property is that the residual of the solution in its
equation vanishes on the grid (relative to the largest term).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

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
    pow_,
    sample_residual,
    simplify,
    sqrt,
    substitute,
    to_str,
    var,
)
from .model import (
    Equation,
    ImagedEquation,
    Interval,
    PointTransformation,
    RDEquation,
    ValidationError,
)
from .sampling import halton_scaled
from .tables import build_double, build_imaged, build_initial, cubic_source_equation

X = var("x")
T = var("t")
SQ2 = math.sqrt(2.0)
HALF_SQ2 = SQ2 / 2.0

_POLE_GUARD = 1e-6


@dataclass(frozen=True)
class GridSpec:
    nt: int = 20
    nx: int = 20
    t_range: tuple[float, float] = (0.5, 2.0)
    x_range: tuple[float, float] | None = None   # defaults to the equation domain

    def as_dict(self) -> dict:
        return {"nt": self.nt, "nx": self.nx,
                "t_range": list(self.t_range),
                "x_range": list(self.x_range) if self.x_range else None}


@dataclass(frozen=True)
class GridReport:
    """Residual of a solution on a grid; `skipped` points split into
    domain errors and points at an elliptic pole (the guard)."""

    max_abs_residual: float
    max_rel_residual: float
    skipped: int
    total: int
    grid: GridSpec
    skipped_domain: int
    skipped_pole: int

    @property
    def skipped_fraction(self) -> float:
        return self.skipped / self.total if self.total else 1.0

    def as_dict(self) -> dict:
        return {
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "skipped": self.skipped,
            "skipped_domain": self.skipped_domain,
            "skipped_pole": self.skipped_pole,
            "total": self.total,
            "grid": self.grid.as_dict(),
        }


@dataclass(frozen=True)
class SolutionEntry:
    """A closed-form solution of one equation, with free constants."""

    name: str
    equation: Equation
    expr: Expr
    constants: dict = field(default_factory=dict)       # defaults
    constant_ranges: dict = field(default_factory=dict)  # admissible ranges
    constraints: tuple[str, ...] = ()
    grid: GridSpec = GridSpec()
    origin: str = "lie-reduction"

    def bound(self, constants: dict | None = None) -> Expr:
        vals = dict(self.constants)
        vals.update(constants or {})
        missing = [c for c in self.constants if c not in vals]
        if missing:
            raise ValidationError(f"missing constants {missing}")
        return simplify(substitute(self.expr,
                                   {k: const(v) for k, v in vals.items()}))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "equation": self.equation.as_dict(),
            "solution": to_str(self.expr),
            "constants": dict(self.constants),
            "constant_ranges": {k: list(v) for k, v in self.constant_ranges.items()},
            "constraints": list(self.constraints),
            "grid": self.grid.as_dict(),
            "origin": self.origin,
        }


def _elliptic_guards(e: Expr) -> list[Expr]:
    """Pole pre-pass expressions: |sn| and |1+cn| of every elliptic
    argument pair occurring in the solution."""
    seen = set()
    guards: list[Expr] = []
    stack = [e]
    while stack:
        n = stack.pop()
        if n.kind == "call" and n.name in ("sn", "cn", "dn", "ds", "sd"):
            key = (to_str(n.args[0]), to_str(n.args[1]))
            if key not in seen:
                seen.add(key)
                guards.append(func("abs", func("sn", n.args[0], n.args[1])))
                guards.append(func("abs", const(1) + func("cn", n.args[0], n.args[1])))
        stack.extend(n.args)
    return guards


def _box_assumptions(e: Expr, t_range, x_range):
    """Sign assumptions for abs/sign arguments in (t, x), sampled over the
    verification box; a sign is inferred only when every point evaluates."""
    from .expr import Assumption

    out = []
    seen = set()
    stack = [e]
    pts = halton_scaled([t_range, x_range], 16)
    while stack:
        n = stack.pop()
        if n.kind == "call" and n.name in ("abs", "sign"):
            arg = n.args[0]
            key = to_str(arg)
            if key not in seen and free_variables(arg) <= {"t", "x"}:
                seen.add(key)
                (vals,), ok = evaluate_points([arg], ("t", "x"), pts)
                if ok.all() and (vals > 0).all():
                    out.append(Assumption(arg, True))
                elif ok.all() and (vals < 0).all():
                    out.append(Assumption(arg, False))
        stack.extend(n.args)
    return tuple(out)


def residual_terms(entry: SolutionEntry, constants: dict | None = None,
                   box: tuple | None = None) -> list[Expr]:
    """[u_t, -rhs] for the bound solution, from fully symbolic derivatives."""
    eq = entry.equation
    sol = entry.bound(constants)
    asm = tuple(eq.assumptions())
    if box is not None:
        asm = asm + _box_assumptions(sol, box[0], box[1])
    sol_t = diff(sol, "t", asm)
    sol_x = diff(sol, "x", asm)
    sol_xx = diff(sol_x, "x", asm)
    dep = eq.dep
    E = eq.rhs()
    E_sub = substitute(E, {dep: sol, dep + "_x": sol_x, dep + "_xx": sol_xx})
    return [simplify(sol_t, asm), simplify(-E_sub, asm)]


def verify_on_grid(entry: SolutionEntry, constants: dict | None = None,
                   grid: GridSpec | None = None) -> GridReport:
    """Evaluate the residual on the cell centres of an (nt x nx) grid, in
    one batch; pole points are skipped deterministically (|sn| or |1+cn|
    below 1e-6), and more than 20% skipped points is an error."""
    grid = grid or entry.grid
    eq = entry.equation
    x_range = grid.x_range or (eq.domain.lo, eq.domain.hi)
    terms = residual_terms(entry, constants, box=(grid.t_range, x_range))
    guards = _elliptic_guards(entry.bound(constants))
    t0, t1 = grid.t_range
    x0, x1 = x_range
    ts = t0 + (t1 - t0) * (np.arange(grid.nt) + 0.5) / grid.nt
    xs = x0 + (x1 - x0) * (np.arange(grid.nx) + 0.5) / grid.nx
    points = np.column_stack([np.repeat(ts, grid.nx), np.tile(xs, grid.nt)])
    try:
        r = sample_residual(terms, ("t", "x"), points, guards, _POLE_GUARD)
    except EvalDomainError as exc:
        raise ValidationError(f"{entry.name}: grid {exc}") from exc
    return GridReport(r.max_abs, r.max_rel, r.attempted - r.valid, r.attempted, grid,
                      r.domain_skips, r.guard_skips)


def sample_constants(entry: SolutionEntry, count: int) -> list[dict]:
    """Deterministic admissible constant bindings from the entry ranges."""
    names = sorted(entry.constant_ranges)
    if not names:
        return [dict(entry.constants)] * min(count, 1) or [{}]
    pts = halton_scaled([entry.constant_ranges[nm] for nm in names], count)
    return [{**entry.constants, **dict(zip(names, pt))} for pt in pts]


def generate(entry: SolutionEntry, chain, target: Equation,
             name: str | None = None, grid: GridSpec | None = None,
             origin: str = "generated") -> SolutionEntry:
    """New entry whose solution is the push-forward of `entry` through a
    transformation chain (a PointTransformation or a list of them)."""
    from .transforms import pushforward_solution

    if isinstance(chain, PointTransformation):
        chain = [chain]
    sol = entry.expr
    for tr in chain:
        if not tr.invertible():
            raise ValidationError("generation requires invertible maps")
        sol = pushforward_solution(sol, tr)
    return SolutionEntry(
        name=name or entry.name + ">generated",
        equation=target,
        expr=simplify(sol),
        constants=dict(entry.constants),
        constant_ranges=dict(entry.constant_ranges),
        constraints=entry.constraints,
        grid=grid or entry.grid,
        origin=origin,
    )


# -- catalog -------------------------------------------------------------------

def _power(base: Expr, p: float) -> Expr:
    return simplify(pow_(base, const(p)))


def _entry(name, eq, expr, origin, constants=None, ranges=None,
           constraints=(), grid=None) -> SolutionEntry:
    return SolutionEntry(
        name=name, equation=eq, expr=simplify(expr),
        constants=dict(constants or {}), constant_ranges=dict(ranges or {}),
        constraints=tuple(constraints), grid=grid or GridSpec(),
        origin=origin)


def _imaged_entries() -> list[SolutionEntry]:
    out = []
    C = var("C")
    m, d = 3.0, -1.0
    # x-free and stationary reductions of v_t = v_xx + delta v^m
    eq, _ = build_imaged(2, {"delta": d, "q": 0.0}, m)
    out.append(_entry(
        "imaged/x-free", eq, _power(const(d * (1 - m)) * T + C, 1 / (1 - m)),
        "lie-reduction", {"C": 0.0}, {"C": (0.0, 1.0)},
        ("delta(1-m)t + C must stay positive on the grid",)))
    amp = (-d * (1 - m) ** 2 / (2 * (1 + m))) ** (1 / (1 - m))
    out.append(_entry(
        "imaged/stationary-power", eq, const(amp) * _power(X, 2 / (1 - m)),
        "lie-reduction"))
    # linear-source case: v_t = v_xx + delta v^m + a1 v
    a1 = -1.0
    eq, _ = build_imaged(1, {"delta": 1.0, "q": 0.0, "a1": a1}, m)
    out.append(_entry(
        "imaged/linear-source-decay", eq,
        _power(C * exp(const(a1 * (1 - m)) * T) - const(1.0 / a1), 1 / (1 - m)),
        "lie-reduction", {"C": 1.0}, {"C": (0.5, 2.0)}))
    # power-coefficient stationary solution
    k, a2 = 1.0, 0.3
    eq, _ = build_imaged(3, {"delta": d, "k": k, "a2": a2}, m)
    ampl = (-(k + 2) * (m + k + 1) / (d * (1 - m) ** 2) - a2 / d) ** (1 / (m - 1))
    out.append(_entry(
        "imaged/power-stationary", eq,
        const(ampl) * _power(X, (k + 2) / (1 - m)), "lie-reduction"))
    # Gaussian-row decay: v = (delta/(beta(1-a3)) + C e^{2pt(1-a3)})^{1/(1-m)} e^{-beta x^2/2}
    p, a3 = 0.5, -1.0
    beta = 2 * p / (m - 1)
    eq, _ = build_imaged(5, {"delta": 1.0, "p": p, "a3": a3}, m)
    out.append(_entry(
        "imaged/gaussian-decay", eq,
        _power(const(1.0 / (beta * (1 - a3))) + C * exp(const(2 * p * (1 - a3)) * T),
               1 / (1 - m)) * exp(const(-beta / 2) * X ** 2),
        "lie-reduction", {"C": 1.0}, {"C": (0.5, 2.0)}))
    # generated drift variants (images of the above under the drift map)
    q = 1.0
    alpha = q / (1 - m)
    a1d = -1.0
    eq, _ = build_imaged(1, {"delta": 1.0, "q": q, "a1": a1d}, m)
    s = alpha * alpha + a1d
    out.append(_entry(
        "imaged/drift-linear-source", eq,
        exp(const(alpha) * X)
        * _power(C * exp(const(s * (1 - m)) * T) - const(1.0 / s), 1 / (1 - m)),
        "generated:drift", {"C": 1.0}, {"C": (0.5, 2.0)}))
    eq, _ = build_imaged(2, {"delta": d, "q": q}, m)
    out.append(_entry(
        "imaged/drift-x-free", eq,
        exp(const(alpha) * X) * _power(const(d * (1 - m)) * T + C, 1 / (1 - m)),
        "generated:drift", {"C": 0.0}, {"C": (0.0, 1.0)}))
    qm = -1.0
    alpham = qm / (1 - m)
    eq, _ = build_imaged(2, {"delta": d, "q": qm}, m)
    out.append(_entry(
        "imaged/drift-stationary", eq,
        const(amp) * _power(X + const(2 * alpham) * T, 2 / (1 - m))
        * exp(const(alpham) * X),
        "generated:drift"))
    # Gaussian-power stationary (row 4) and row-6 pair
    eq, _ = build_imaged(4, {"delta": d, "k": k, "p": p, "a2": a2}, m)
    out.append(_entry(
        "imaged/gaussian-power-stationary", eq,
        const(ampl) * _power(X, (k + 2) / (1 - m)) * exp(const(-beta / 2) * X ** 2),
        "generated:exp-map"))
    eq, _ = build_imaged(6, {"delta": 1.0, "p": p}, m)
    out.append(_entry(
        "imaged/gaussian-row6-decay", eq,
        _power(const((m - 1) / (4 * beta)) + C * exp(const(4 * beta) * T), 1 / (1 - m))
        * exp(const(-beta / 2) * X ** 2),
        "generated:exp-map", {"C": 1.0}, {"C": (0.5, 2.0)}))
    eq, _ = build_imaged(6, {"delta": d, "p": p}, m)
    out.append(_entry(
        "imaged/gaussian-row6-stationary", eq,
        const(amp) * _power(X, 2 / (1 - m)) * exp(const(-beta / 2) * X ** 2),
        "generated:exp-map"))
    return out


def _kpp_identities(m: float, delta: float, eps: float) -> tuple[float, float, float]:
    lam = eps * (1 - m) * (m + 3) / (2 * (m + 1))
    mu2 = eps * (1 - m) ** 2 / (2 * (m + 1))
    beta2 = -delta / eps
    if mu2 < 0 or beta2 < 0:
        raise ValidationError("KPP family needs eps>0 and delta/eps<0")
    return lam, math.sqrt(mu2), math.sqrt(beta2)


def _kpp_entries() -> list[SolutionEntry]:
    out = []
    C = var("C")
    for m in (3.0, 2.0):
        delta, eps = -1.0, 1.0
        lam, mu, beta = _kpp_identities(m, delta, eps)
        eq = ImagedEquation(const(eps), const(delta), m, Interval(0.5, 2.5))
        out.append(_entry(
            f"imaged/kpp-wave-m{m:g}", eq,
            _power(const(beta) + C * exp(const(lam) * T + const(mu) * X), 2 / (1 - m)),
            "traveling-wave", {"C": 1.0}, {"C": (0.5, 2.0)},
            ("lambda = eps(1-m)(m+3)/(2(m+1))",
             "mu^2 = eps(1-m)^2/(2(m+1))",
             "beta^2 = -delta/eps")))
    # the classical m=2 traveling wave in tanh form
    m = 2.0
    eq = ImagedEquation(const(1.0), const(-1.0), m, Interval(0.5, 2.5))
    arg = const((m - 1) / (2 * math.sqrt(2 * m + 2))) \
        * (X - const((m + 3) / math.sqrt(2 * m + 2)) * T)
    out.append(_entry(
        "imaged/fisher-wave", eq,
        _power(const(0.5) - const(0.5) * func("tanh", arg), 2 / (m - 1)),
        "traveling-wave"))
    return out


def _double_entries() -> list[SolutionEntry]:
    out = []
    q, d = 1.0, 1.0

    def w_exp(chi: Expr) -> Expr:
        return -(const(q * q) + const(2) * chi) / (const(2 * d) * exp(const(q) * X))

    # Riccati kernel chi' = Delta - chi^2 over H = delta e^{qx}
    gam = 1.0
    b1_neg = (q ** 4 / 4 + gam ** 2) / d          # Delta = -gamma^2
    eq, _ = build_double(1, {"delta": d, "q": q, "b1": b1_neg})
    out.append(_entry(
        "double/exp-riccati-tan", eq,
        w_exp(const(-gam) * func("tan", const(gam) * T)),
        "lie-reduction", grid=GridSpec(t_range=(0.2, 1.3)),
        constraints=("chi = -gamma tan(gamma t) solves chi' = -gamma^2 - chi^2",)))
    eq2, _ = build_double(2, {"delta": d, "q": q})
    out.append(_entry("double/exp-riccati-recip", eq2, w_exp(const(1) / T),
                      "lie-reduction"))
    out.append(_entry("double/exp-riccati-zero", eq2, w_exp(const(0)),
                      "lie-reduction"))
    b1_pos = (q ** 4 / 4 - gam ** 2) / d          # Delta = +gamma^2
    eq3, _ = build_double(1, {"delta": d, "q": q, "b1": b1_pos})
    out.append(_entry("double/exp-riccati-tanh", eq3,
                      w_exp(const(gam) * func("tanh", const(gam) * T)),
                      "lie-reduction"))
    coth = func("cosh", const(gam) * T) / func("sinh", const(gam) * T)
    out.append(_entry("double/exp-riccati-coth", eq3, w_exp(const(gam) * coth),
                      "lie-reduction"))
    out.append(_entry("double/exp-riccati-const", eq3, w_exp(const(gam)),
                      "lie-reduction"))
    out.append(_entry("double/exp-riccati-const-neg", eq3, w_exp(const(-gam)),
                      "lie-reduction"))
    # power row: stationary pair
    k, b2 = 1.0, -7.0
    eq4, _ = build_double(3, {"delta": d, "k": k, "b2": b2})
    disc = math.sqrt((k + 2) ** 2 * (k + 3) ** 2 - 4 * b2)
    for sgn, tag in ((1.0, "plus"), (-1.0, "minus")):
        out.append(_entry(
            f"double/power-stationary-{tag}", eq4,
            const((-(k + 2) * (k + 3) + sgn * disc) / (2 * d))
            * _power(X, -(k + 2)), "lie-reduction"))
    # Gaussian-power row 4: stationary pair
    p = 0.5
    eq5, _ = build_double(4, {"delta": d, "k": k, "p": p, "b2": b2})
    for sgn, tag in ((1.0, "plus"), (-1.0, "minus")):
        numer = (const(2 * p) * X ** 2 * (const(2 * p) * X ** 2 + const(2 * k + 3))
                 + const((k + 2) * (k + 3) - sgn * disc))
        out.append(_entry(
            f"double/gaussian-power-stationary-{tag}", eq5,
            -numer / (const(2 * d) * _power(X, k + 2) * exp(const(p) * X ** 2)),
            "lie-reduction"))
    # Gaussian rows 5/6: Riccati in time again
    def w_gauss(chi: Expr) -> Expr:
        return -(const(2 * p * p) * X ** 2 - const(p) + chi) \
            / (const(d) * exp(const(p) * X ** 2))

    gam5 = p * math.sqrt(5.0 - 1.0)               # b3 = 1, Delta = p^2(5-b3)
    eq6, _ = build_double(5, {"delta": d, "p": p, "b3": 1.0})
    out.append(_entry("double/gaussian-riccati-tanh", eq6,
                      w_gauss(const(gam5) * func("tanh", const(gam5) * T)),
                      "lie-reduction"))
    coth5 = func("cosh", const(gam5) * T) / func("sinh", const(gam5) * T)
    out.append(_entry("double/gaussian-riccati-coth", eq6,
                      w_gauss(const(gam5) * coth5), "lie-reduction"))
    b3_neg = 9.0                                   # Delta = -4 p^2
    gam_n = p * math.sqrt(b3_neg - 5.0)
    eq7, _ = build_double(5, {"delta": d, "p": p, "b3": b3_neg})
    out.append(_entry("double/gaussian-riccati-tan", eq7,
                      w_gauss(const(-gam_n) * func("tan", const(gam_n) * T)),
                      "lie-reduction", grid=GridSpec(t_range=(0.2, 1.4))))
    gam6 = 4 * p                                   # row 6: Delta = 16 p^2
    eq8, _ = build_double(6, {"delta": d, "p": p})
    out.append(_entry("double/gaussian-row6-tanh", eq8,
                      w_gauss(const(gam6) * func("tanh", const(gam6) * T)),
                      "lie-reduction"))
    out.append(_entry(
        "double/gaussian-row6-stationary", eq8,
        -(const(p) * X ** 2 * (const(2 * p) * X ** 2 + const(3)) + const(6))
        / (const(d) * X ** 2 * exp(const(p) * X ** 2)),
        "lie-reduction"))
    return out


def _initial_entries() -> list[SolutionEntry]:
    out = []
    C = var("C")
    m = 3.0
    # cos^2 coefficients
    d, q = -1.0, 0.8
    alpha = q / (1 - m)
    eq, _ = build_initial("1.2", {"delta": d, "q": q}, m)
    s = alpha * alpha + 1.0
    out.append(_entry(
        "initial/cos2-decay", eq,
        _power(C * exp(const(s * (1 - m)) * T) - const(d / s), 1 / (1 - m))
        * exp(const(alpha) * X) / func("cos", X),
        "generated:image-pullback", {"C": 1.0}, {"C": (0.5, 2.0)}))
    # exponential pair f=e^x, h=delta e^{rx}
    d, r = 1.0, 2.0
    eq, _ = build_initial("1.3", {"delta": d, "r": r}, m)
    g = (r - 1) * (r - m) / (1 - m)
    out.append(_entry(
        "initial/exp-exp-decay", eq,
        _power(C * exp(const(g) * T) - const(d * (1 - m) ** 2 / ((r - 1) * (r - m))),
               1 / (1 - m)) * exp(const((r - 1) / (1 - m)) * X),
        "generated:image-pullback", {"C": 1.0}, {"C": (0.5, 2.0)}))
    # f = h = delta e^x
    d = -1.0
    eq, _ = build_initial("2.2", {"delta": d}, m)
    out.append(_entry(
        "initial/exp-x-free", eq, _power(C + const(d * (1 - m)) * T, 1 / (1 - m)),
        "generated:image-pullback", {"C": 0.0}, {"C": (0.0, 1.0)}))
    amp = (-d * (1 - m) ** 2 / (2 * (1 + m))) ** (1 / (1 - m))
    out.append(_entry(
        "initial/exp-traveling", eq, const(amp) * _power(X + T, 2 / (1 - m)),
        "generated:image-pullback"))
    # power coefficients
    d, lam, gam = -1.0, 1.4, 2.2
    eq, _ = build_initial("3.1", {"delta": d, "lam": lam, "gam": gam}, m)
    denom = (2 - lam + gam) * (m * (lam - 1) - gam - 1)
    out.append(_entry(
        "initial/power-stationary", eq,
        const((d * (1 - m) ** 2 / denom) ** (1 / (1 - m)))
        * _power(X, (2 - lam + gam) / (1 - m)),
        "generated:image-pullback"))
    # log-cosine coefficients
    d, rho, ell = -1.0, 0.9, 1.5
    eq, _ = build_initial("3.2", {"delta": d, "rho": rho, "l": ell}, m)
    denom = (2 * ell - m + 3) * (2 * ell + m + 1) + (1 + 4 * rho ** 2) * (1 - m) ** 2
    out.append(_entry(
        "initial/logcos-stationary", eq,
        const((-4 * d * (1 - m) ** 2 / denom) ** (1 / (1 - m)))
        * _power(X, (ell + 1) / (1 - m)) / func("cos", const(rho) * ln(X)),
        "generated:image-pullback"))
    # Whittaker families
    d, p, s_p, a2 = -1.0, 0.9, 0.5, 0.2
    beta = 2 * p / (m - 1)
    kap = (s_p + 3) / (2 * (1 - m))
    mu = math.sqrt(1 - 4 * a2) / 4
    eq, _ = build_initial("4", {"delta": d, "p": p, "s": s_p, "a2": a2}, m)
    whit = func("whitM", const(kap), const(mu), const(beta) * X ** 2)
    denom = (2 * s_p + m + 5) * (2 * s_p + 3 * m + 3) + (1 - 16 * mu * mu) * (1 - m) ** 2
    out.append(_entry(
        "initial/whittaker-similarity", eq,
        const((-4 * d * (1 - m) ** 2 / denom) ** (1 / (1 - m)))
        * _power(X, (s_p + 3) / (1 - m)) * exp(const(-beta / 2) * X ** 2) / whit,
        "generated:image-pullback"))
    d, p, a3 = 1.0, 0.7, 0.6
    beta = 2 * p / (m - 1)
    kap = a3 / 4
    eq, _ = build_initial("5", {"delta": d, "p": p, "a3": a3}, m)
    whit = func("whitM", const(kap), const(0.25), const(beta) * X ** 2)
    out.append(_entry(
        "initial/whittaker-decay", eq,
        _power(const(d / (beta * (1 - 4 * kap)))
               + C * exp(const(2 * p * (1 - 4 * kap)) * T), 1 / (1 - m))
        * sqrt(X) * exp(const(-beta / 2) * X ** 2) / whit,
        "generated:image-pullback", {"C": 1.0}, {"C": (0.5, 2.0)}))
    d, p = 1.0, 0.6
    beta = 2 * p / (m - 1)
    kap3 = (5 - m) / (4 * (1 - m))
    eq, _ = build_initial("6", {"delta": d, "p": p}, m)
    whit = func("whitM", const(kap3), const(0.25), const(beta) * X ** 2)
    out.append(_entry(
        "initial/whittaker-row6-decay", eq,
        _power(const(d * (m - 1) / (4 * beta)) + C * exp(const(4 * beta) * T),
               1 / (1 - m))
        * sqrt(X) * exp(const(-beta / 2) * X ** 2) / whit,
        "generated:image-pullback", {"C": 1.0}, {"C": (0.5, 2.0)}))
    d = -1.0
    eq, _ = build_initial("6", {"delta": d, "p": p}, m)
    out.append(_entry(
        "initial/whittaker-row6-stationary", eq,
        const(amp) * _power(X, 2 * kap3) * exp(const(-beta / 2) * X ** 2) / whit,
        "generated:image-pullback"))
    # m = 2 families through the double-imaged chain
    d, q = 1.0, 2.0
    gam2 = (q * q - q) / 2
    f = exp(X)
    h = simplify(const(d) * exp(const(q + 1.0) * X))
    eq = RDEquation(f, f, h, 2.0, Interval(0.5, 2.5))
    for chi, tag in ((const(gam2) * func("tanh", const(gam2) * T), "tanh"),
                     (const(gam2) * func("cosh", const(gam2) * T)
                      / func("sinh", const(gam2) * T), "coth"),
                     (const(gam2), "const")):
        out.append(_entry(
            f"initial/m2-exp-riccati-{tag}", eq,
            -(const(gam2) + chi) / (const(d) * exp(const(q) * X)),
            "generated:double-image-pullback"))
    q2 = 1.0
    gam3 = (q2 * q2 + 1) / 2
    f = func("cos", X) ** 2
    h = simplify(const(d) * exp(const(q2) * X) * func("cos", X) ** 3)
    eq = RDEquation(simplify(f), simplify(f), h, 2.0, Interval(0.1, 1.2))
    out.append(_entry(
        "initial/m2-cos-riccati-tanh", eq,
        -(const(gam3) + const(gam3) * func("tanh", const(gam3) * T))
        / (const(d) * exp(const(q2) * X) * func("cos", X)),
        "generated:double-image-pullback"))
    # KPP pullback through theta = c1 sin x + c2 cos x  (eps=1, delta=-1)
    mk = 3.0
    lam, mu_k, beta_k = _kpp_identities(mk, -1.0, 1.0)
    c1, c2 = 0.3, 1.0
    theta = simplify(const(c1) * func("sin", X) + const(c2) * func("cos", X))
    f = simplify(theta ** 2)
    h = simplify(const(-1.0) * theta ** 4)
    eq = RDEquation(f, f, h, mk, Interval(0.1, 1.2))
    out.append(_entry(
        "initial/kpp-trig", eq,
        _power(const(beta_k) + C * exp(const(lam) * T + const(mu_k) * X), 2 / (1 - mk))
        / theta,
        "generated:gauge-pullback", {"C": 1.0}, {"C": (0.5, 2.0)},
        ("u = v/|theta| with theta = c1 sin x + c2 cos x",)))
    # the sd solution on cosh^2 coefficients
    ch = func("cosh", X)
    f = simplify(ch ** 2)
    eq = RDEquation(f, f, simplify(ch ** 4), 3.0, Interval(0.5, 2.5))
    C1, C2 = var("C1"), var("C2")
    inner = C1 * exp(const(-1.5) * T) * func("cos", const(HALF_SQ2) * X) + C2
    out.append(_entry(
        "initial/cosh-sd", eq,
        const(0.5) * C1 * exp(const(-1.5) * T) * func("sin", const(HALF_SQ2) * X)
        * func("sd", inner, const(HALF_SQ2)) / ch,
        "generated:gauge-pullback", {"C1": 1.0, "C2": 0.0},
        {"C1": (0.5, 1.5), "C2": (0.0, 0.5)}, ("C1 must be nonzero",)))
    return out


def _cubic_entries() -> list[SolutionEntry]:
    """Exact solutions of v_t = v_xx + delta v^3 + eps v."""
    out = []
    C1, C1p, C2 = var("C1"), var("C1p"), var("C2")
    k2 = const(HALF_SQ2)
    ex = func("exp", const(HALF_SQ2) * X)
    exm = func("exp", const(-HALF_SQ2) * X)

    eq = cubic_source_equation(-1.0, 1.0)
    out.append(_entry(
        "cubic/pos-front", eq,
        (C1 * ex - C1p * exm) / (C2 * exp(const(-1.5) * T) + C1 * ex + C1p * exm),
        "reduction-operator", {"C1": 1.0, "C1p": 0.3, "C2": 1.0},
        {"C1": (0.8, 1.5), "C1p": (0.1, 0.5), "C2": (0.5, 1.5)}))
    sh = func("sinh", const(HALF_SQ2) * X)
    chh = func("cosh", const(HALF_SQ2) * X)
    e32 = exp(const(1.5) * T)
    out.append(_entry(
        "cubic/pos-ds-sinh", eq,
        C1 * e32 * sh * func("ds", C1 * e32 * chh + C2, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.0},
        {"C1": (0.6, 1.4), "C2": (0.0, 0.8)}))
    out.append(_entry(
        "cubic/pos-ds-cosh", eq,
        C1 * e32 * chh * func("ds", C1 * e32 * sh + C2, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.3},
        {"C1": (0.6, 1.4), "C2": (0.1, 0.8)}))
    arg = C1 * e32 * chh + C2
    out.append(_entry(
        "cubic/pos-cn-sn", eq,
        const(0.5) * C1 * e32 * sh * (const(1) + func("cn", arg, k2))
        / func("sn", arg, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.0},
        {"C1": (0.6, 1.4), "C2": (0.0, 0.8)}))

    eq = cubic_source_equation(-1.0, -1.0)
    e32m = exp(const(-1.5) * T)
    snx = func("sin", const(HALF_SQ2) * X)
    csx = func("cos", const(HALF_SQ2) * X)
    out.append(_entry(
        "cubic/neg-front", eq, snx / (C2 * exp(const(1.5) * T) + csx),
        "reduction-operator", {"C2": 1.0}, {"C2": (0.8, 2.0)}))
    out.append(_entry(
        "cubic/neg-ds", eq,
        C1 * e32m * snx * func("ds", C1 * e32m * csx + C2, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.0},
        {"C1": (0.6, 1.4), "C2": (0.0, 0.8)}))
    arg = C1 * e32m * snx + C2
    out.append(_entry(
        "cubic/neg-cn-sn", eq,
        const(0.5) * C1 * e32m * csx * (const(1) + func("cn", arg, k2))
        / func("sn", arg, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.0},
        {"C1": (0.6, 1.4), "C2": (0.0, 0.8)}))

    eq = cubic_source_equation(1.0, 1.0)
    out.append(_entry(
        "cubic/possrc-sd-sinh", eq,
        const(0.5) * C1 * e32 * sh * func("sd", C1 * e32 * chh + C2, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.0},
        {"C1": (0.6, 1.4), "C2": (0.0, 0.8)}))
    out.append(_entry(
        "cubic/possrc-sd-cosh", eq,
        const(0.5) * C1 * e32 * chh * func("sd", C1 * e32 * sh + C2, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.3},
        {"C1": (0.6, 1.4), "C2": (0.1, 0.8)}))

    eq = cubic_source_equation(1.0, -1.0)
    out.append(_entry(
        "cubic/negsrc-sd", eq,
        const(0.5) * C1 * e32m * snx * func("sd", C1 * e32m * csx + C2, k2),
        "reduction-operator", {"C1": 1.0, "C2": 0.0},
        {"C1": (0.6, 1.4), "C2": (0.0, 0.8)}))

    # eps = 0: the quadratic-argument and stationary families
    omega = X ** 2 + const(6) * T
    eq = cubic_source_equation(-1.0, 0.0)
    out.append(_entry(
        "cubic/zero-ds", eq, const(2 * SQ2) * X * func("ds", omega, k2),
        "reduction-operator"))
    out.append(_entry(
        "cubic/zero-cn-sn", eq,
        const(SQ2) * X * (const(1) + func("cn", omega, k2)) / func("sn", omega, k2),
        "reduction-operator"))
    out.append(_entry(
        "cubic/zero-scale-invariant", eq, const(2 * SQ2) * X / omega,
        "lie-reduction"))
    out.append(_entry("cubic/zero-recip", eq, const(SQ2) / X, "lie-reduction"))
    out.append(_entry("cubic/zero-ds-stationary", eq,
                      const(SQ2) * func("ds", X, k2), "lie-reduction",
                      grid=GridSpec(x_range=(0.4, 3.2))))
    out.append(_entry(
        "cubic/zero-cn-sn-stationary", eq,
        const(HALF_SQ2) * (const(1) + func("cn", X, k2)) / func("sn", X, k2),
        "lie-reduction", grid=GridSpec(x_range=(0.4, 3.2))))
    eq = cubic_source_equation(1.0, 0.0)
    out.append(_entry(
        "cubic/zero-sd", eq, const(SQ2) * X * func("sd", omega, k2),
        "reduction-operator"))
    out.append(_entry("cubic/zero-sd-stationary", eq,
                      const(HALF_SQ2) * func("sd", X, k2), "lie-reduction",
                      grid=GridSpec(x_range=(0.4, 3.2))))
    return out


def _generated_entries() -> list[SolutionEntry]:
    """Variable-coefficient images of the eps=0 cubic solutions under the
    inverse drift and inverse exponential maps."""
    out = []
    q = 1.0
    m = 3.0
    k2 = const(HALF_SQ2)
    zeta = X - const(q) * T
    omega = zeta ** 2 + const(6) * T
    eqm, _ = build_imaged(1, {"delta": -1.0, "q": q, "a1": -q * q / 4}, m)
    pre = exp(const(-q / 2) * X)
    out.append(_entry(
        "cubic-drift/ds", eqm, const(2 * SQ2) * pre * zeta * func("ds", omega, k2),
        "generated:inverse-drift"))
    out.append(_entry(
        "cubic-drift/sd", replace(eqm, H=simplify(const(1.0) * exp(const(q) * X))),
        const(SQ2) * pre * zeta * func("sd", omega, k2),
        "generated:inverse-drift"))
    out.append(_entry(
        "cubic-drift/scale-invariant", eqm,
        const(2 * SQ2) * pre * zeta / omega, "generated:inverse-drift"))
    out.append(_entry(
        "cubic-drift/ds-traveling", eqm,
        const(SQ2) * pre * func("ds", zeta, k2), "generated:inverse-drift",
        grid=GridSpec(t_range=(0.1, 0.9), x_range=(1.4, 3.4))))
    out.append(_entry(
        "cubic-drift/recip", eqm, const(SQ2) * pre / zeta,
        "generated:inverse-drift", grid=GridSpec(t_range=(0.1, 0.9), x_range=(1.4, 3.4))))
    # Gaussian-coefficient images
    p = 0.5
    eqg, _ = build_imaged(6, {"delta": -1.0, "p": p}, m)
    ghat = exp(const(-4 * p) * T) * (X ** 2 - const(3 / (2 * p)))
    gcheck = exp(const(-2 * p) * T) * X
    gpre = exp(const(-p / 2) * X ** 2)
    out.append(_entry(
        "cubic-gauss/ds", eqg,
        const(2 * SQ2) * X * gpre * exp(const(-4 * p) * T) * func("ds", ghat, k2),
        "generated:inverse-exp-map"))
    out.append(_entry(
        "cubic-gauss/recip", eqg, const(SQ2) * gpre / X,
        "generated:inverse-exp-map"))
    out.append(_entry(
        "cubic-gauss/ds-linear", eqg,
        const(SQ2) * gpre * exp(const(-2 * p) * T) * func("ds", gcheck, k2),
        "generated:inverse-exp-map", grid=GridSpec(t_range=(0.5, 2.0), x_range=(0.6, 2.9))))
    eqg2, _ = build_imaged(6, {"delta": 1.0, "p": p}, m)
    out.append(_entry(
        "cubic-gauss/sd", eqg2,
        const(SQ2) * X * gpre * exp(const(-4 * p) * T) * func("sd", ghat, k2),
        "generated:inverse-exp-map"))
    return out


_CATALOG: list[SolutionEntry] | None = None


def catalog() -> list[SolutionEntry]:
    """The full solution catalog (memoized)."""
    global _CATALOG
    if _CATALOG is None:
        entries = (_imaged_entries() + _kpp_entries() + _double_entries()
                   + _initial_entries() + _cubic_entries() + _generated_entries())
        names = [e.name for e in entries]
        if len(names) != len(set(names)):   # pragma: no cover
            raise ValidationError("duplicate catalog entry names")
        _CATALOG = entries
    return list(_CATALOG)


def catalog_json() -> str:
    return json.dumps([e.as_dict() for e in catalog()], indent=1)


def verify_all(n_bindings: int = 3, tol: float = 1e-7,
               entries: list[SolutionEntry] | None = None) -> dict:
    """Run the residual suite over the given entries (default: the whole
    catalog)."""
    results = {}
    failures = []
    for entry in catalog() if entries is None else entries:
        worst = 0.0
        for binding in sample_constants(entry, n_bindings):
            rep = verify_on_grid(entry, binding)
            worst = max(worst, rep.max_rel_residual)
        results[entry.name] = worst
        if worst > tol:
            failures.append(entry.name)
    return {"entries": len(results), "failures": failures,
            "max_rel_residual": max(results.values(), default=0.0),
            "per_entry": results}
