"""Second prolongation of vector fields, infinitesimal invariance
verification (Lie and nonclassical), and Lie-algebra operations.

Verification is sampling-based: residual expressions are built once
symbolically, then evaluated at quasi-random jet points.  Tolerances are
relative to the magnitude of the largest additive contribution at the
point, so genuine zeros pass even when individual terms are large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    Expr,
    EvalDomainError,
    const,
    diff,
    evaluate_points,
    free_variables,
    sample_residual,
    simplify,
    substitute,
    var,
)
from .model import Equation, Interval, VectorField
from .sampling import halton_scaled

# canonical jet coordinate names (dependent variable renamed to u)
_JET6 = ("t", "x", "u", "u_x", "u_xx", "u_xxx")
_DEFAULT_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class JetPoint:
    """Second-order jet coordinates extended by u_xxx (needed once u_t is
    replaced inside mixed derivatives)."""

    t: float
    x: float
    u: float
    u_x: float
    u_xx: float
    u_xxx: float = 0.0

    def as_tuple(self) -> tuple[float, ...]:
        return (self.t, self.x, self.u, self.u_x, self.u_xx, self.u_xxx)


@dataclass(frozen=True)
class ProlongedField:
    """Vector field with its first and second prolongation coefficients
    (expressions in jet coordinates)."""

    base: VectorField
    eta_t: Expr
    eta_x: Expr
    eta_xx: Expr


@dataclass(frozen=True)
class VerificationReport:
    """Verdict of a sampled check: `samples` of the `attempted` points
    were evaluated, the others left the residual's domain."""

    passed: bool
    max_residual: float
    samples: int
    worst_point: tuple[float, ...] | None = None
    attempted: int = 0

    def as_dict(self) -> dict:
        return {
            "pass": self.passed,
            "max_residual": self.max_residual,
            "samples": self.samples,
            "attempted": self.attempted,
            "worst_point": list(self.worst_point) if self.worst_point else None,
        }


def total_derivative(e: Expr, wrt: str, asm=()) -> Expr:
    """Total derivative on the jet space spanned by t, x, u, u_t, u_x,
    u_tt, u_tx, u_xx, u_txx, u_xxx (as far as second-order use needs)."""
    ladder = {
        "t": {"u": "u_t", "u_t": "u_tt", "u_x": "u_tx", "u_xx": "u_txx"},
        "x": {"u": "u_x", "u_t": "u_tx", "u_x": "u_xx", "u_tx": "u_txx",
              "u_xx": "u_xxx"},
    }[wrt]
    out = diff(e, wrt, asm)
    for name, lifted in ladder.items():
        if name in free_variables(e):
            out = out + diff(e, name, asm) * var(lifted)
    return simplify(out)


def prolong2(Q: VectorField, assumptions=()) -> ProlongedField:
    """Standard second prolongation via the characteristic recursion
    eta^J = D_J(eta - tau u_t - xi u_x) + tau u_{Jt} + xi u_{Jx}."""
    q = Q.renamed("u")
    asm = tuple(assumptions)
    u_t, u_x, u_xx, u_tx = var("u_t"), var("u_x"), var("u_xx"), var("u_tx")
    char = q.eta - q.tau * u_t - q.xi * u_x
    eta_t = simplify(total_derivative(char, "t", asm) + q.tau * var("u_tt") + q.xi * u_tx)
    eta_x = simplify(total_derivative(char, "x", asm) + q.tau * u_tx + q.xi * u_xx)
    eta_xx = simplify(total_derivative(total_derivative(char, "x", asm), "x", asm)
                      + q.tau * var("u_txx") + q.xi * var("u_xxx"))
    return ProlongedField(q, eta_t, eta_x, eta_xx)


def _rhs_in_jet(eq: Equation) -> Expr:
    """u_t = E(x, u, u_x, u_xx) with the dependent variable renamed u."""
    e = eq.rhs()
    if eq.dep != "u":
        e = substitute(e, {eq.dep: var("u"),
                           eq.dep + "_x": var("u_x"),
                           eq.dep + "_xx": var("u_xx")})
    return simplify(e)


def _invariance_terms(eq: Equation, Q: VectorField, chain) -> list[Expr]:
    """Top-level additive terms of Q_(2)(u_t - E) restricted to a
    manifold; their sum is the residual, their magnitudes set the
    cancellation scale.  chain(E, asm) gives the substitution dicts that
    restrict an expression, applied in order."""
    E = _rhs_in_jet(eq)
    asm = eq.assumptions()
    subs = chain(E, asm)

    def restrict(e: Expr) -> Expr:
        for s in subs:
            e = substitute(e, s)
        return simplify(e)

    pr = prolong2(Q, asm)
    q = pr.base
    dE = {n: diff(E, n, asm) for n in ("x", "u", "u_x", "u_xx")}
    terms = [restrict(pr.eta_t)]
    for coeff, d in ((q.xi, dE["x"]), (q.eta, dE["u"]),
                     (pr.eta_x, dE["u_x"]), (pr.eta_xx, dE["u_xx"])):
        terms.append(simplify(-restrict(coeff) * restrict(d)))
    return terms


def _lie_residual_terms(eq: Equation, Q: VectorField) -> list[Expr]:
    """Invariance terms on the equation manifold: the names u_tt and u_txx
    occur only with identically vanishing net coefficients in the
    characteristic-form prolongation, so they are zeroed first; then
    u_tx -> D_x E (which brings in u_xxx) and u_t -> E."""
    zero = const(0)
    return _invariance_terms(eq, Q, lambda E, asm: (
        {"u_tt": zero, "u_txx": zero},
        {"u_tx": simplify(total_derivative(E, "x", asm))},
        {"u_t": E}))


def _residual_at(terms: list[Expr], names: tuple[str, ...], pt: tuple) -> float:
    vals, ok = evaluate_points(terms, names, [pt])
    if not ok[0]:
        raise EvalDomainError(f"residual undefined at {pt}")
    return math.fsum(vals[:, 0].tolist())


def lie_residual(eq: Equation, Q: VectorField, jp: JetPoint) -> float:
    """Value of the invariance expression Q_(2)(u_t - E) on the equation
    manifold at one jet point."""
    return _residual_at(_lie_residual_terms(eq, Q), _JET6, jp.as_tuple())


def sampled_verification(terms: list[Expr], names: tuple[str, ...],
                         domain: Interval, box: dict | None, n: int,
                         tol: float) -> VerificationReport:
    """Residual terms sampled at n Halton points and judged against tol
    (see `sample_residual`).  A name missing from the box ranges over the
    domain (x) or over (0.5, 2)."""
    box = {"x": (domain.lo, domain.hi), **(box or {})}
    ranges = [box.get(nm, _DEFAULT_RANGE) for nm in names]
    r = sample_residual(terms, names, halton_scaled(ranges, n))
    return VerificationReport(r.max_rel <= tol, r.max_rel, r.valid, r.worst_point, r.attempted)


def verify_lie(eq: Equation, Q: VectorField, n: int = 64, tol: float = 1e-8,
               box: dict | None = None) -> VerificationReport:
    """Sampling check of the infinitesimal invariance criterion."""
    terms = _lie_residual_terms(eq, Q)
    return sampled_verification(terms, _JET6, eq.domain, box, n, tol)


# -- nonclassical (conditional) invariance ----------------------------------

_JET4 = ("t", "x", "u", "u_x")


def _conditional_residual_terms(eq: Equation, Q: VectorField) -> list[Expr]:
    """Terms of Q_(2)(u_t - E) on the joint manifold of the equation and
    the characteristic constraint, for tau normalized to 1.

    Substitution order (fixed for reproducibility): characteristic,
    equation solved for u_xx, x-derivative of the characteristic,
    t-derivative of the characteristic.
    """
    q = Q.renamed("u")
    one = const(1)
    from .expr import num_equal

    try:
        tau_is_one = num_equal(q.tau, one, {"t": (0.5, 2.0), "x": (0.5, 2.0),
                                            "u": (0.5, 2.0)}, 16, 1e-12)
    except EvalDomainError:
        tau_is_one = False
    if not tau_is_one:
        raise ValueError("conditional invariance requires tau normalized to 1")

    u_x = var("u_x")
    W = simplify(q.eta - q.xi * u_x)          # characteristic: u_t = W(t,x,u,u_x)
    zero = const(0)

    def chain(E: Expr, asm) -> tuple[dict, ...]:
        # E is affine in u_xx for every class here; solve E = W for u_xx
        E0 = simplify(substitute(E, {"u_xx": zero}))
        E1 = simplify(diff(E, "u_xx", asm))
        u_xx_val = simplify((W - E0) / E1)
        # x-derivative of the characteristic, already restricted to the manifold
        d_char_x = simplify(substitute(total_derivative(W, "x", asm), {"u_xx": u_xx_val}))
        # u_tt / u_txx / u_xxx carry identically vanishing net coefficients
        # in the characteristic-form prolongation
        return ({"u_tt": zero, "u_txx": zero, "u_xxx": zero}, {"u_t": W},
                {"u_tx": d_char_x}, {"u_xx": u_xx_val})

    terms = _invariance_terms(eq, q, chain)
    for t in terms:
        leftover = free_variables(t) - set(_JET4)
        if leftover:
            raise ValueError(f"inconsistent substitution, leftover jet names {leftover}")
    return terms


def conditional_residual(eq: Equation, Q: VectorField, jp: JetPoint) -> float:
    """Conditional invariance residual at a jet point restricted to
    (t, x, u, u_x)."""
    return _residual_at(_conditional_residual_terms(eq, Q), _JET4,
                        (jp.t, jp.x, jp.u, jp.u_x))


def verify_nonclassical(eq: Equation, Q: VectorField, n: int = 64,
                        tol: float = 1e-8,
                        box: dict | None = None) -> VerificationReport:
    """Sampling check of the conditional invariance criterion (tau=1)."""
    terms = _conditional_residual_terms(eq, Q)
    return sampled_verification(terms, _JET4, eq.domain, box, n, tol)


# -- algebra operations -------------------------------------------------------

def _apply(Q: VectorField, e: Expr) -> Expr:
    return (Q.tau * diff(e, "t") + Q.xi * diff(e, "x")
            + Q.eta * diff(e, Q.dep))


def commutator(Q1: VectorField, Q2: VectorField) -> VectorField:
    """Lie bracket [Q1, Q2], componentwise by symbolic differentiation."""
    q2 = Q2.renamed(Q1.dep)
    return VectorField(
        simplify(_apply(Q1, q2.tau) - _apply(q2, Q1.tau)),
        simplify(_apply(Q1, q2.xi) - _apply(q2, Q1.xi)),
        simplify(_apply(Q1, q2.eta) - _apply(q2, Q1.eta)),
        Q1.dep,
    )


def verify_algebra_closure(basis: list[VectorField], tol: float = 1e-10,
                           box: dict | None = None,
                           n: int = 24) -> dict:
    """Expand every commutator of the basis in the basis itself by least
    squares over sampled coefficient evaluations.

    Returns {"closed": bool, "constants": c[i][j][k], "max_residual": r,
    "failures": [(i, j), ...]}.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    dep = basis[0].dep
    basis = [q.renamed(dep) for q in basis]
    names = ("t", "x", dep)
    box = dict(box or {})
    ranges = [box.get(nm, _DEFAULT_RANGE) for nm in names]
    pts = halton_scaled(ranges, n)

    def column(q: VectorField) -> np.ndarray:
        vals, ok = evaluate_points([q.tau, q.xi, q.eta], names, pts)
        if not ok.all():
            raise EvalDomainError("an operator is undefined at a sample point")
        return vals.reshape(-1)

    cols = np.column_stack([column(q) for q in basis])
    k = len(basis)
    constants = [[[0.0] * k for _ in range(k)] for _ in range(k)]
    failures = []
    max_res = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            target = column(commutator(basis[i], basis[j]))
            coeffs, *_ = np.linalg.lstsq(cols, target, rcond=None)
            res = float(np.max(np.abs(cols @ coeffs - target)))
            scale = max(1.0, float(np.max(np.abs(target))))
            rel = res / scale
            max_res = max(max_res, rel)
            if rel > tol:
                failures.append((i, j))
            constants[i][j] = [float(c) for c in coeffs]
    return {
        "closed": not failures,
        "constants": constants,
        "max_residual": max_res,
        "failures": failures,
    }
