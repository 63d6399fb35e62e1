"""Structural classification of equations against the row templates:
parameter extraction by log-linear least squares on sampled points, exact
confirmation by numeric equality, and the admissible-transformation
subclass predicate.

Matching order runs from the most specific templates downward; footnote
exclusions are checked before a row is accepted.  Anything unmatched
lands in the kernel case (row 0, algebra <d_t>).  The initial class is
classified through its image in the imaged class.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import tables
from .expr import (
    Expr,
    EvalDomainError,
    ExprError,
    const,
    diff,
    evaluate_points,
    exp,
    num_equal,
    pow_,
    simplify,
    substitute,
    var,
)
from .model import (
    AdmissibleForm,
    ClassificationResult,
    DoubleImagedEquation,
    Equation,
    ImagedEquation,
    Interval,
    RDEquation,
    ValidationError,
    constant_on,
    require_valid,
)
from .transforms import _point_map, image_of_valid, pullback_operators, to_double_imaged

X = var("x")
T = var("t")

_FIT_SAMPLES = 32
_FIT_TOL = 1e-7
_CONFIRM_TOL = 1e-9
_ZERO_TOL = 1e-9


def _eval_many(e: Expr, xs: list[float]) -> list[float] | None:
    """Values at the samples xs, or None when one is undefined."""
    (vals,), ok = evaluate_points([e], ("x",), xs)
    return vals.tolist() if ok.all() else None


def _lstsq(rows: list[list[float]], rhs: list[float]) -> tuple[np.ndarray, float]:
    A = np.array(rows)
    b = np.array(rhs)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = float(np.max(np.abs(A @ coef - b))) / max(1.0, float(np.max(np.abs(b))))
    return coef, res


def _shifted(e: Expr, nu: float) -> Expr:
    return e if nu == 0.0 else simplify(substitute(e, "x", X + const(nu)))


class _NoFit(Exception):
    pass


def _fit_H_family(H: Expr, domain: Interval, asm) -> dict:
    """Fit H = delta |x+nu|^k exp(p x^2 + q x) via the log-derivative
    H'/H = k/(x+nu) + 2p x + q."""
    xs = domain.samples(_FIT_SAMPLES)
    s_expr = simplify(diff(H, "x", asm) / H)
    sv = _eval_many(s_expr, xs)
    hv = _eval_many(H, xs)
    if sv is None or hv is None or any(v == 0.0 for v in hv):
        raise _NoFit("H not evaluable on the domain")

    def finish(nu: float, p: float, q: float, k: float) -> dict:
        core = [k * math.log(abs(x + nu)) + p * x * x + q * x for x in xs]
        logd = [math.log(abs(h)) - c for h, c in zip(hv, core)]
        delta = math.copysign(math.exp(sum(logd) / len(logd)), hv[0])
        spread = max(abs(d - math.log(abs(delta))) for d in logd)
        if spread > 1e-6:
            raise _NoFit("H does not factor over the template family")
        return {"nu": nu, "p": p, "q": q, "k": k, "delta": delta}

    # pure exponential branch (no pole): s = 2p x + q
    coef, res = _lstsq([[x, 1.0] for x in xs], sv)
    if res <= _FIT_TOL:
        p, q = 0.5 * float(coef[0]), float(coef[1])
        if abs(p) < _ZERO_TOL:
            p = 0.0
        if abs(q) < _ZERO_TOL:
            q = 0.0
        return finish(0.0, p, q, 0.0)
    # power branch: s x = -nu s + 2p x^2 + A x + B
    rows = [[-s, x * x, x, 1.0] for s, x in zip(sv, xs)]
    coef, res = _lstsq(rows, [s * x for s, x in zip(sv, xs)])
    if res > _FIT_TOL:
        raise _NoFit("H log-derivative is not rational of the template form")
    nu, p2, A, B = (float(c) for c in coef)
    p = 0.5 * p2
    if abs(p) < _ZERO_TOL:
        p = 0.0
    q = A - 2.0 * p * nu
    if abs(q) < _ZERO_TOL:
        q = 0.0
    k = B - q * nu
    if abs(k) < _ZERO_TOL:
        k = 0.0
    if abs(nu) < _ZERO_TOL:
        nu = 0.0
    return finish(nu, p, q, k)


def _fit_F_poly(F: Expr, domain: Interval, nu: float) -> tuple[float, float, float]:
    """Fit F = c2 (x+nu)^2 + c0 + a2 (x+nu)^(-2)."""
    xs = domain.samples(_FIT_SAMPLES)
    fv = _eval_many(F, xs)
    if fv is None:
        raise _NoFit("F not evaluable")
    rows = [[(x + nu) ** 2, 1.0, (x + nu) ** -2] for x in xs]
    coef, res = _lstsq(rows, fv)
    if res > _FIT_TOL:
        raise _NoFit("F is not of the quadratic-plus-pole form")
    c2, c0, a2 = (float(c) for c in coef)
    return (0.0 if abs(c2) < _ZERO_TOL else c2,
            0.0 if abs(c0) < _ZERO_TOL else c0,
            0.0 if abs(a2) < _ZERO_TOL else a2)


def _pole_of(F: Expr, domain: Interval) -> float | None:
    """nu of F = a2 (x+nu)^-2, read off the line |F|^(-1/2) = |x+nu|/sqrt|a2|;
    None when F is not of that form."""
    xs = domain.samples(_FIT_SAMPLES)
    fv = _eval_many(F, xs)
    if fv is None or any(v == 0.0 for v in fv):
        return None
    coef, res = _lstsq([[x, 1.0] for x in xs], [abs(v) ** -0.5 for v in fv])
    if res > _FIT_TOL:
        return None
    nu = float(coef[1] / coef[0])
    return 0.0 if abs(nu) < _ZERO_TOL else nu


def _through_double_image(eq: ImagedEquation) -> ClassificationResult | None:
    """Row 3 with k = 0 and a2 = -12 at m = 2: the double image has G = 0,
    the T2/2 equation with q = 0, so the equation is reported as T1/2 with
    q = 0 and the T2/2 operators pulled back.  None when the double image
    is not T2/2."""
    dbl, tr = to_double_imaged(eq)
    r = classify_double_imaged(dbl)
    if r.case != "T2/2":
        return None
    return ClassificationResult(
        "T1/2", {"delta": r.params["delta"], "q": 0.0},
        pullback_operators(r.operators, tr, eq.domain),
        r.notes + ("point-equivalent to T1/2 with q=0 through to_double_imaged "
                   "(w = v + F/(2H)), whose image is T2/2 with G=0",))


def _norm_note(delta: float) -> tuple[str, ...]:
    if abs(abs(delta) - 1.0) < 1e-12:
        return ()
    return (f"delta={delta:.12g} normalizes to {math.copysign(1.0, delta):+.0f} "
            "by a scaling of the dependent variable",)


def _kernel(cls: str, dep: str, *notes: str) -> ClassificationResult:
    """The kernel case of a table: no row fits, the algebra is <d_t>."""
    return ClassificationResult(f"{cls}/0", {}, (tables._dt(dep),), notes)


def _confirmed(case: str, pairs, domain: Interval, params: dict, operators,
               shift: float = 0.0,
               notes: tuple[str, ...] = ()) -> ClassificationResult | None:
    """The result for a row whose templates match, else None.

    `pairs` holds (element, template) pairs, checked in order with
    num_equal at _CONFIRM_TOL on 64 points of the domain up to the first
    failure; the templates are shifted by x -> x + shift and the operators
    pulled back through that translation.  `operators` is a thunk, called
    only after a match.
    """
    box = {"x": (domain.lo, domain.hi)}
    try:
        for e, template in pairs:
            if not num_equal(e, _shifted(template, shift), box, 64, _CONFIRM_TOL):
                return None
    except EvalDomainError:
        return None
    out_params, ops = dict(params), operators()
    if shift != 0.0:
        out_params["nu"] = shift
        notes = notes + ("template shifted by x -> x + nu, removable by "
                         "an equivalence translation",)
        tr = _point_map(T, X + const(shift), T, X - const(shift), const(1), dep=ops[0].dep)
        ops = pullback_operators(ops, tr, domain)
    return ClassificationResult(case, out_params, tuple(ops),
                                notes + _norm_note(params["delta"]))


def classify_imaged(eq: ImagedEquation) -> ClassificationResult:
    """Match (H, F) against the imaged-class rows; returns the kernel case
    T1/0 when no template fits."""
    require_valid(eq)
    return _match_imaged(eq)


def _match_imaged(eq: ImagedEquation) -> ClassificationResult:
    """classify_imaged of an equation known to be valid."""
    m = eq.m
    asm = eq.assumptions()

    kernel = partial(_kernel, "T1", "v")

    try:
        hfit = _fit_H_family(eq.H, eq.domain, asm)
    except _NoFit:
        return kernel()
    nu, p, q, k, delta = (hfit[n] for n in ("nu", "p", "q", "k", "delta"))

    def confirmed(row: int, params: dict, shift: float,
                  notes: tuple[str, ...] = ()) -> ClassificationResult | None:
        pairs = ((eq.H, tables.imaged_H(row, params)),
                 (eq.F, tables.imaged_F(row, params, m)))
        return _confirmed(f"T1/{row}", pairs, eq.domain, params,
                          lambda: tables.imaged_operators(row, params, m), shift, notes)

    if p == 0.0 and k == 0.0:
        # exponential rows 1 / 2 when F is constant
        try:
            c2, c0, a2 = _fit_F_poly(eq.F, eq.domain, 0.0)
            constant_F = c2 == 0.0 and a2 == 0.0
        except _NoFit:
            constant_F = False
        if constant_F:
            alpha = tables.alpha_of(q, m)
            if abs(c0 + alpha * alpha) < _ZERO_TOL:
                r = confirmed(2, {"delta": delta, "q": q}, 0.0)
                if r:
                    return r
            r = confirmed(1, {"delta": delta, "q": q, "a1": c0}, 0.0)
            return r or kernel()
        # otherwise row 3 with k = 0, its pole read off F
        if q == 0.0:
            nu = _pole_of(eq.F, eq.domain)
            if nu is None:
                return kernel()

    if p == 0.0:
        # power row 3 (shift allowed); the template has no drift term
        if q != 0.0:
            return kernel("power-type H with an exponential drift factor "
                          "matches no row")
        try:
            c2, c0, a2 = _fit_F_poly(eq.F, eq.domain, nu)
        except _NoFit:
            return kernel()
        if c2 != 0.0 or c0 != 0.0:
            return kernel()
        r = confirmed(3, {"delta": delta, "k": k, "a2": a2}, nu)
        if r and m == 2.0 and k == 0.0 and abs(a2 + 12.0) < 1e-7 * 12.0:
            return _through_double_image(eq) or r
        return r or kernel()

    # Gaussian rows 4 / 5 / 6
    beta = tables.beta_of(p, m)
    if k == 0.0:
        shift = q / (2.0 * p)
        delta_eff = delta * math.exp(-p * shift * shift) if shift else delta
    else:
        if abs(q - 2.0 * p * nu) > 1e-7 * max(1.0, abs(q)):
            return kernel("Gaussian-power H with unmatched drift "
                          "(q != 2 p nu) matches no row")
        shift = nu
        delta_eff = delta * math.exp(-p * shift * shift) if shift else delta
    try:
        c2, c0, a2 = _fit_F_poly(eq.F, eq.domain, shift)
    except _NoFit:
        return kernel()
    if abs(c2 + beta * beta) > 1e-7 * max(1.0, beta * beta):
        return kernel()
    if k == 0.0 and a2 == 0.0:
        a3 = c0 / beta
        notes: tuple[str, ...] = ()
        if abs(a3 - (5.0 - m) / (1.0 - m)) < _ZERO_TOL:
            r = confirmed(6, {"delta": delta_eff, "p": p}, shift)
            if r:
                return r
        if m == 2.0 and abs(a3 - 5.0) < _ZERO_TOL:
            notes = ("a3=5 with m=2 is excluded from row 5 and is "
                     "point-equivalent to row 6",)
        r = confirmed(5, {"delta": delta_eff, "p": p, "a3": a3}, shift, notes)
        return r or kernel()
    c0_row4 = beta * (2.0 * k + 5.0 - m) / (1.0 - m)
    if abs(c0 - c0_row4) > 1e-7 * max(1.0, abs(c0_row4)):
        return kernel()
    r = confirmed(4, {"delta": delta_eff, "k": k, "p": p, "a2": a2}, shift)
    return r or kernel()


def classify_double_imaged(eq: DoubleImagedEquation) -> ClassificationResult:
    """Match (H, G) against the double-imaged rows."""
    require_valid(eq)
    asm = eq.assumptions()
    kernel = partial(_kernel, "T2", "w")

    try:
        hfit = _fit_H_family(eq.H, eq.domain, asm)
    except _NoFit:
        return kernel()
    nu, p, q, k, delta = (hfit[n] for n in ("nu", "p", "q", "k", "delta"))

    def confirmed(row: int, params: dict, shift: float,
                  notes: tuple[str, ...] = ()) -> ClassificationResult | None:
        pairs = ((eq.H, tables.double_H(row, params)),
                 (eq.G, tables.double_G(row, params)))
        return _confirmed(f"T2/{row}", pairs, eq.domain, params,
                          lambda: tables.double_operators(row, params), shift, notes)

    const_fit = partial(constant_on, domain=eq.domain, tol=_FIT_TOL)

    if p == 0.0 and k == 0.0:
        delta_eff = delta * math.exp(q * nu) if nu else delta
        b1 = const_fit(simplify(eq.G * exp(const(q) * X)))
        if b1 is None:
            # row 3 with k=0 keeps a pole in G even though H is constant
            if q == 0.0:
                r = _double_row3_from_G(eq, delta, confirmed)
                if r:
                    return r
            return kernel()
        if abs(b1 - q ** 4 / (4.0 * delta_eff)) < _ZERO_TOL:
            r = confirmed(2, {"delta": delta_eff, "q": q}, 0.0)
            if r:
                return r
        r = confirmed(1, {"delta": delta_eff, "q": q, "b1": b1}, 0.0)
        return r or kernel()

    if p == 0.0:
        if q != 0.0:
            return kernel()
        b2 = const_fit(simplify(eq.G * const(delta)
                                * pow_(X + const(nu), const(k + 4.0))))
        if b2 is None:
            return kernel()
        r = confirmed(3, {"delta": delta, "k": k, "b2": b2}, nu)
        return r or kernel()

    if k == 0.0:
        shift = q / (2.0 * p)
        delta_eff = delta * math.exp(-p * shift * shift) if shift else delta
    else:
        if abs(q - 2.0 * p * nu) > 1e-7 * max(1.0, abs(q)):
            return kernel()
        shift = nu
        delta_eff = delta * math.exp(-p * shift * shift) if shift else delta
    xhat = X + const(shift)
    if k == 0.0:
        probe = simplify(eq.G * const(delta_eff) * exp(const(p) * xhat ** 2)
                         / const(p * p)
                         - const(4 * p * p) * xhat ** 4 + const(20 * p) * xhat ** 2)
        b3 = const_fit(probe)
        if b3 is not None:
            if abs(b3 + 11.0) < _ZERO_TOL:
                r = confirmed(6, {"delta": delta_eff, "p": p}, shift)
                if r:
                    return r
            r = confirmed(5, {"delta": delta_eff, "p": p, "b3": b3}, shift)
            if r:
                return r
    # row 4 (with k possibly 0 when G carries the pole polynomial)
    P_wo_b2 = simplify(tables.t2_poly_P({"p": p, "k": k, "b2": 0.0}))
    probe = simplify(eq.G * const(delta_eff) * pow_(xhat, const(k + 4.0))
                     * exp(const(p) * xhat ** 2) - _shifted(P_wo_b2, shift))
    b2 = const_fit(probe)
    if b2 is None:
        return kernel()
    r = confirmed(4, {"delta": delta_eff, "k": k, "p": p, "b2": b2}, shift)
    return r or kernel()


def _double_row3_from_G(eq, delta, confirmed):
    """Row 3 with k=0: H is constant, the pole position must be read
    off G'/G = -(k+4)/(x+nu)."""
    xs = eq.domain.samples(_FIT_SAMPLES)
    s_expr = simplify(diff(eq.G, "x") / eq.G)
    sv = _eval_many(s_expr, xs)
    if sv is None or any(abs(v) < 1e-12 for v in sv):
        return None
    rows = [[1.0, -s] for s in sv]
    coef, res = _lstsq(rows, [s * x for s, x in zip(sv, xs)])
    if res > _FIT_TOL:
        return None
    slope_inv, nu = float(coef[0]), float(coef[1])
    k = -slope_inv - 4.0
    if abs(k) < _ZERO_TOL:
        k = 0.0
    b2 = constant_on(simplify(eq.G * const(delta) * pow_(X + const(nu), const(k + 4.0))),
                     eq.domain, _FIT_TOL)
    if b2 is None:
        return None
    return confirmed(3, {"delta": delta, "k": k, "b2": b2},
                     0.0 if abs(nu) < _ZERO_TOL else nu)


# -- initial class ---------------------------------------------------------------

def classify_initial(eq: RDEquation) -> ClassificationResult:
    """Classify a gauged-class equation (f=g) through its image under
    to_imaged: the T3 case is read off the image's row, the params are the
    image row's, and the image's operators are pulled back through
    v = sqrt|f| u."""
    require_valid(eq)
    if eq.f != eq.g:
        raise ValueError("classification applies to the gauged class f=g")
    try:
        img, tr = image_of_valid(eq)
    except (ExprError, ValidationError) as exc:
        return _kernel("T3", "u", f"no image under to_imaged: {exc}")
    r = _match_imaged(img)
    row = int(r.case.split("/")[1])
    case = tables.t3_case(row, r.params, img.m)[0] if row else "0"
    return ClassificationResult(
        f"T3/{case}", r.params, pullback_operators(r.operators, tr, eq.domain),
        r.notes + (f"classified through its image {r.case} under to_imaged "
                   "(v = sqrt|f| u); params are the image row's",))


# -- admissible-transformation subclasses -----------------------------------------

ADMISSIBLE_CLASSES = ("trivial", "E1", "E2", "E3", "E4")


def classify_admissible(form: AdmissibleForm, m: float,
                        zero_tol: float = 1e-12) -> str:
    """Partition of the admissible-form family by the invariants
    (K2, K1, K0) and the side conditions on (k, kappa, p, q, nu):

      trivial: (K2, K1) != (0, 0), or the side conditions fail
      E1: K0 != 0, k = kappa = p = 0
      E2: K0 != 0, k = kappa = 0, p != 0
      E3: K0 = 0, (k, kappa) != (0, 0), q = 2 p nu
      E4: K0 = k = kappa = 0
    """
    if m in (0.0, 1.0, 2.0):
        raise ValueError("the admissible-transformation partition assumes "
                         "m not in {0, 1, 2}")
    K2, K1, K0 = form.K_values(m)

    def is_zero(v: float) -> bool:
        return abs(v) <= zero_tol

    if not (is_zero(K2) and is_zero(K1)):
        return "trivial"
    if is_zero(form.k) and is_zero(form.kappa):
        if is_zero(K0):
            return "E4"
        return "E1" if is_zero(form.p) else "E2"
    if is_zero(K0) and is_zero(form.q - 2.0 * form.p * form.nu):
        return "E3"
    return "trivial"


def classify_admissible_result(form: AdmissibleForm, m: float) -> ClassificationResult:
    """Partition outcome as a serializable result with an "adm/..." case id."""
    label = classify_admissible(form, m)
    K2, K1, K0 = form.K_values(m)
    params = dict(form.as_dict())
    params.update({"K2": K2, "K1": K1, "K0": K0, "m": m})
    return ClassificationResult(f"adm/{label}", params)


def classify(eq: Equation) -> ClassificationResult:
    """Dispatch on the equation class."""
    if isinstance(eq, ImagedEquation):
        return classify_imaged(eq)
    if isinstance(eq, DoubleImagedEquation):
        return classify_double_imaged(eq)
    if isinstance(eq, RDEquation):
        return classify_initial(eq)
    raise TypeError(f"cannot classify {type(eq).__name__}")
