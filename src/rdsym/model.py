"""Domain types: equations of the three classes, symmetry operators,
point transformations, classification results, and their validation.

All values are immutable; `validate` returns violations as data instead of
raising, so callers can decide how strict to be.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .expr import (
    MAX_SKIP_FRACTION,
    Expr,
    EvalDomainError,
    ExprError,
    diff,
    evaluate_points,
    free_variables,
    parse,
    to_str,
)
from .sampling import halton_scaled, line_samples

_NONVANISH_SAMPLES = 64
_CONSTANT_SAMPLES = 32


class ValidationError(Exception):
    """Raised when an entity with recorded violations is used anyway."""


def _safe_str(e: Expr) -> str:
    """Grammar string of an expression; numeric-fallback tables have no
    grammar form and serialize as a marker."""
    try:
        return to_str(e)
    except ExprError:
        return "<tabulated>"


@dataclass(frozen=True)
class Interval:
    """Open interval on the x axis; every equation carries one."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def samples(self, n: int = _NONVANISH_SAMPLES) -> tuple[float, ...]:
        return line_samples(self.lo, self.hi, n)

    def as_json(self) -> str:
        return f"x:{self.lo}..{self.hi}"

    @staticmethod
    def from_json(text: str) -> "Interval":
        body = text.split(":", 1)[1] if ":" in text else text
        lo, hi = body.split("..")
        return Interval(float(lo), float(hi))


def sign_on(e: Expr, domain: Interval, name: str = "x") -> int:
    """Sign of a one-variable expression on a domain.

    Returns +1/-1 if the sampled sign is constant and nonvanishing;
    0 when the expression changes sign, vanishes or is undefined at a
    sample.
    """
    (vals,), ok = evaluate_points([e], (name,), domain.samples())
    if not ok.all():
        return 0
    if (vals > 0.0).all():
        return 1
    if (vals < 0.0).all():
        return -1
    return 0


def constant_on(e: Expr, domain: Interval, tol: float) -> float | None:
    """Value of an expression in x that is constant on a domain.

    Returns the median of 32 samples, or None when a sample is undefined
    or differs from the median by more than tol*max(1, |median|).
    """
    (vals,), ok = evaluate_points([e], ("x",), domain.samples(_CONSTANT_SAMPLES))
    if not ok.all():
        return None
    vals = sorted(vals.tolist())
    c = vals[len(vals) // 2]
    if max(abs(v - c) for v in vals) > tol * max(1.0, abs(c)):
        return None
    return c


def _nonvanishing(e: Expr, domain: Interval, label: str) -> list[str]:
    if sign_on(e, domain) == 0:
        return [f"{label} vanishes, changes sign or is undefined on {domain.as_json()}"]
    return []


def inferred_assumptions(coeffs: tuple[Expr, ...], domain: Interval):
    """Sign assumptions for abs/sign arguments of x-only subexpressions,
    sampled on the declared domain.

    This is how 'domains with declared coefficient signs' are realized:
    |cos x| on a domain clear of zeros differentiates as +-cos x.
    """
    from .expr import Assumption, parse as _parse

    found: dict[Expr, int] = {}
    if domain.lo >= 0.0:
        found[_parse("x")] = 1
    elif domain.hi <= 0.0:
        found[_parse("x")] = -1
    stack = list(coeffs)
    seen = set()
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if e.kind == "call" and e.name in ("abs", "sign"):
            arg = e.args[0]
            if free_variables(arg) <= {"x"} and arg not in found:
                s = sign_on(arg, domain)
                if s != 0:
                    found[arg] = s
        stack.extend(e.args)
    return tuple(Assumption(k, v > 0) for k, v in found.items())


@dataclass(frozen=True)
class RDEquation:
    """One member of the source class f(x)u_t = (g(x)u_x)_x + h(x)u^m."""

    f: Expr
    g: Expr
    h: Expr
    m: float
    domain: Interval
    dep: str = "u"

    def gauged(self) -> bool:
        """True when the f=g gauge holds structurally."""
        return self.f == self.g

    def sign_f(self) -> int:
        return sign_on(self.f, self.domain)

    def sign_g(self) -> int:
        return sign_on(self.g, self.domain)

    def assumptions(self):
        return inferred_assumptions((self.f, self.g, self.h), self.domain)

    def rhs(self) -> Expr:
        """u_t expressed through (x, u, u_x, u_xx)."""
        u, ux, uxx = parse(self.dep), parse(self.dep + "_x"), parse(self.dep + "_xx")
        flux = diff(self.g, "x", self.assumptions()) * ux + self.g * uxx
        return (flux + self.h * u ** self.m) / self.f

    def violations(self) -> list[str]:
        out = []
        if self.m in (0.0, 1.0):
            out.append("m is 0 or 1 (linear cases are excluded)")
        for e, label in ((self.f, "f"), (self.g, "g"), (self.h, "h")):
            out.extend(_nonvanishing(e, self.domain, label))
        return out

    def as_dict(self) -> dict:
        return {
            "class": "initial" if self.gauged() else "general",
            "f": _safe_str(self.f), "g": _safe_str(self.g), "h": _safe_str(self.h),
            "m": self.m, "domain": self.domain.as_json(),
        }


@dataclass(frozen=True)
class ImagedEquation:
    """One member of the imaged class v_t = v_xx + H(x)v^m + F(x)v."""

    F: Expr
    H: Expr
    m: float
    domain: Interval
    dep: str = "v"

    def assumptions(self):
        return inferred_assumptions((self.F, self.H), self.domain)

    def rhs(self) -> Expr:
        v, vxx = parse(self.dep), parse(self.dep + "_xx")
        return vxx + self.H * v ** self.m + self.F * v

    def violations(self) -> list[str]:
        out = []
        if self.m in (0.0, 1.0):
            out.append("m is 0 or 1 (linear cases are excluded)")
        out.extend(_nonvanishing(self.H, self.domain, "H"))
        return out

    def as_dict(self) -> dict:
        return {
            "class": "imaged",
            "F": _safe_str(self.F), "H": _safe_str(self.H),
            "m": self.m, "domain": self.domain.as_json(),
        }


@dataclass(frozen=True)
class DoubleImagedEquation:
    """One member of the double-imaged class w_t = w_xx + H(x)w^2 + G(x)."""

    H: Expr
    G: Expr
    domain: Interval
    dep: str = "w"
    m = 2.0

    def assumptions(self):
        return inferred_assumptions((self.G, self.H), self.domain)

    def rhs(self) -> Expr:
        w, wxx = parse(self.dep), parse(self.dep + "_xx")
        return wxx + self.H * w ** 2.0 + self.G

    def violations(self) -> list[str]:
        return _nonvanishing(self.H, self.domain, "H")

    def as_dict(self) -> dict:
        return {
            "class": "double",
            "H": _safe_str(self.H), "G": _safe_str(self.G),
            "domain": self.domain.as_json(),
        }


Equation = RDEquation | ImagedEquation | DoubleImagedEquation


@dataclass(frozen=True)
class VectorField:
    """First-order operator tau*d_t + xi*d_x + eta*d_dep with expression
    coefficients in (t, x, dep)."""

    tau: Expr
    xi: Expr
    eta: Expr
    dep: str = "u"

    def renamed(self, dep: str) -> "VectorField":
        if dep == self.dep:
            return self
        from .expr import substitute

        r = parse(dep)
        return VectorField(
            substitute(self.tau, self.dep, r),
            substitute(self.xi, self.dep, r),
            substitute(self.eta, self.dep, r),
            dep,
        )

    def violations(self) -> list[str]:
        # reduction-operator use requires (tau, xi) not identically 0
        from .expr import num_equal, ZERO

        box = {n: (0.5, 2.0) for n in
               free_variables(self.tau) | free_variables(self.xi)}
        try:
            if (num_equal(self.tau, ZERO, box or {"t": (0.5, 2.0)}, 16, 1e-12)
                    and num_equal(self.xi, ZERO, box or {"t": (0.5, 2.0)}, 16, 1e-12)):
                return ["(tau, xi) vanish identically"]
        except EvalDomainError:
            pass
        return []

    def as_dict(self) -> dict:
        return {"tau": to_str(self.tau), "xi": to_str(self.xi),
                "eta": to_str(self.eta), "dep": self.dep}

    @staticmethod
    def from_dict(d: dict) -> "VectorField":
        return VectorField(parse(d["tau"]), parse(d["xi"]), parse(d["eta"]),
                           d.get("dep", "u"))


@dataclass(frozen=True)
class PointTransformation:
    """Change of variables (t,x,u) -> (T,X,V) with explicit inverse.

    Components are expressions in (t, x, dep); the inverse components give
    the old variables in terms of the new ones (same names).  `law` is a
    short text record of how arbitrary elements transform.
    """

    T: Expr
    X: Expr
    V: Expr
    inv_T: Expr | None = None
    inv_X: Expr | None = None
    inv_V: Expr | None = None
    dep: str = "u"
    new_dep: str = "u"
    law: str = ""

    def invertible(self) -> bool:
        return None not in (self.inv_T, self.inv_X, self.inv_V)

    def renamed(self, dep: str) -> "PointTransformation":
        """Rename the source dependent variable in the forward components
        (the inverse components are written in the new variables already)."""
        if dep == self.dep:
            return self
        from .expr import substitute

        r = parse(dep)
        return replace(
            self,
            T=substitute(self.T, self.dep, r),
            X=substitute(self.X, self.dep, r),
            V=substitute(self.V, self.dep, r),
            dep=dep,
        )

    def inverse(self) -> "PointTransformation":
        if not self.invertible():
            raise ValidationError("transformation has no recorded inverse")
        return PointTransformation(
            self.inv_T, self.inv_X, self.inv_V, self.T, self.X, self.V,
            dep=self.new_dep, new_dep=self.dep,
            law=f"inverse of: {self.law}" if self.law else "",
        )

    def violations(self, domain: Interval | None = None) -> list[str]:
        """Sample the Jacobian det of (T,X,V) wrt (t,x,dep)."""
        names = ("t", "x", self.dep)
        rows = []
        try:
            for comp in (self.T, self.X, self.V):
                rows.append([diff(comp, n) for n in names])
        except ExprError as exc:
            return [f"cannot differentiate components: {exc}"]
        xlo, xhi = (domain.lo, domain.hi) if domain else (0.5, 2.0)
        box = [(0.5, 2.0), (xlo, xhi), (0.5, 2.0)]
        pts = halton_scaled(box, 16)
        vals, ok = evaluate_points([c for row in rows for c in row], names, pts)
        m = vals.reshape(3, 3, -1)
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        vanishing = ok & (abs(det) < 1e-12)
        if vanishing.any():
            pt = pts[vanishing.argmax()]
            return [f"Jacobian vanishes near t={pt[0]:.3g}, x={pt[1]:.3g}"]
        skipped = len(pts) - int(ok.sum())
        if skipped > MAX_SKIP_FRACTION * len(pts):
            return [f"Jacobian is undefined at {skipped}/{len(pts)} sample points"]
        return []

    def as_dict(self) -> dict:
        d = {"T": _safe_str(self.T), "X": _safe_str(self.X), "V": _safe_str(self.V),
             "dep": self.dep, "new_dep": self.new_dep, "law": self.law}
        if self.invertible():
            d["inverse"] = {"T": _safe_str(self.inv_T), "X": _safe_str(self.inv_X),
                            "V": _safe_str(self.inv_V)}
        return d


IDENTITY = PointTransformation(
    parse("t"), parse("x"), parse("u"),
    parse("t"), parse("x"), parse("u"),
    law="identity",
)


@dataclass(frozen=True)
class EquivParams:
    """Parameters of an equivalence-group element.

    delta holds the constants delta0..delta5 (unused slots default to the
    group identity values); phi is the x-reparametrization for the groups
    that admit one; psi/chi are the element-dependent multipliers and
    shifts, validated against their defining ODEs at application time.
    """

    delta: tuple[float, float, float, float, float, float] = (1, 1, 0, 0, 1, 0)
    phi: Expr | None = None
    psi: Expr | None = None
    chi: Expr | None = None

    def d(self, j: int) -> float:
        return float(self.delta[j])

    def violations(self) -> list[str]:
        out = []
        if self.d(0) * self.d(1) == 0.0:
            out.append("delta0*delta1 must be nonzero")
        return out

    def as_dict(self) -> dict:
        d = {"delta": [float(v) for v in self.delta]}
        for name in ("phi", "psi", "chi"):
            e = getattr(self, name)
            if e is not None:
                d[name] = _safe_str(e)
        return d


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of matching an equation against the classification tables."""

    case: str                      # e.g. "T1/2", "T3/1.2", "T1/0"
    params: dict = field(default_factory=dict)
    operators: tuple[VectorField, ...] = ()
    notes: tuple[str, ...] = ()
    ambiguous_with: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "params": dict(self.params),
            "operators": [q.as_dict() for q in self.operators],
            "notes": list(self.notes),
            "ambiguous_with": list(self.ambiguous_with),
        }


@dataclass(frozen=True)
class AdmissibleForm:
    """Constants of the closed-under-transformation family
    H = delta|x+nu|^k e^(p x^2 + q x),
    F = s2 x^2 + s1 x + s0 + kappa/(x+nu)^2."""

    k: float = 0.0
    kappa: float = 0.0
    delta: float = 1.0
    nu: float = 0.0
    p: float = 0.0
    q: float = 0.0
    s2: float = 0.0
    s1: float = 0.0
    s0: float = 0.0

    def K_values(self, m: float) -> tuple[float, float, float]:
        """The transformation invariant combinations (K2, K1, K0)."""
        d = (m - 1.0) ** 2
        K2 = self.s2 + 4.0 * self.p ** 2 / d
        K1 = self.s1 + 4.0 * self.p * self.q / d
        K0 = (self.s0 + (self.q ** 2 + 4.0 * self.p * (self.k + 2.0)) / d
              - 2.0 * self.p / (m - 1.0))
        return K2, K1, K0

    def violations(self) -> list[str]:
        return [] if self.delta != 0.0 else ["delta must be nonzero"]

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in
                ("k", "kappa", "delta", "nu", "p", "q", "s2", "s1", "s0")}


def validate(entity) -> list[str]:
    """Check every declared invariant of the entity numerically; returns
    the list of violations (empty when the entity is well formed)."""
    if hasattr(entity, "violations"):
        return entity.violations()
    raise TypeError(f"cannot validate {type(entity).__name__}")


def require_valid(entity):
    problems = validate(entity)
    if problems:
        raise ValidationError("; ".join(problems))
    return entity


def equation_from_dict(d: dict) -> Equation:
    cls = d.get("class", "initial")
    dom = Interval.from_json(d["domain"])
    if cls in ("initial", "general"):
        return RDEquation(parse(d["f"]), parse(d["g"]), parse(d["h"]),
                          float(d["m"]), dom)
    if cls == "imaged":
        return ImagedEquation(parse(d["F"]), parse(d["H"]), float(d["m"]), dom)
    if cls == "double":
        return DoubleImagedEquation(parse(d["H"]), parse(d["G"]), dom)
    raise ValueError(f"unknown equation class {cls!r}")
