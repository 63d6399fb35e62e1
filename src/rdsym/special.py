"""Numeric kernels: Kummer/Whittaker functions, Jacobi elliptic functions,
the error function, and the monotone cubic tables used by numeric-inverse
fallbacks.

All kernels are pure functions of floats.  Ranges are deliberately modest
(desk-scale arguments); accuracy targets: Kummer/Whittaker 1e-11 relative,
Jacobi 1e-10 absolute, erf 1e-12 absolute.
"""

from __future__ import annotations

import math


class SpecialFunctionError(Exception):
    """Domain or convergence failure inside a special-function kernel."""


_MAX_KUMMER_TERMS = 500
_KUMMER_Z_LIMIT = 30.0
_AGM_TOL = 1e-15
_DS_POLE_GUARD = 1e-9


def kummer_m(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric M(a,b,z) by power series with compensated
    summation.  Requires b not a nonpositive integer and |z| <= 30.
    Negative z goes through Kummer's transformation
    M(a,b,z) = e^z M(b-a,b,-z) (DLMF 13.2.39): the series at -z does not
    lose its digits to the cancellation of an alternating sum."""
    if b <= 0.0 and b == int(b):
        raise SpecialFunctionError(f"kummer_m pole: b={b} is a nonpositive integer")
    if abs(z) > _KUMMER_Z_LIMIT:
        raise SpecialFunctionError(f"kummer_m argument |z|={abs(z)} exceeds {_KUMMER_Z_LIMIT}")
    if z < 0.0:
        return math.exp(z) * kummer_m(b - a, b, -z)
    total = 1.0
    comp = 0.0
    term = 1.0
    for n in range(_MAX_KUMMER_TERMS):
        term *= (a + n) / (b + n) * z / (n + 1)
        # Kahan step
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-17 * abs(total) + 1e-300:
            return total
    raise SpecialFunctionError(
        f"kummer_m({a},{b},{z}) did not converge in {_MAX_KUMMER_TERMS} terms"
    )


def whittaker_m(kappa: float, mu: float, z: float) -> float:
    """Whittaker M_{kappa,mu}(z) = e^{-z/2} z^{mu+1/2} M(mu-kappa+1/2, 1+2mu, z).

    Real branch only: z must be positive.
    """
    if z <= 0.0:
        raise SpecialFunctionError(f"whittaker_m requires z>0, got z={z}")
    b = 1.0 + 2.0 * mu
    if b <= 0.0 and b == int(b):
        raise SpecialFunctionError(f"whittaker_m pole: 1+2mu={b} is a nonpositive integer")
    return math.exp(-0.5 * z) * z ** (mu + 0.5) * kummer_m(mu - kappa + 0.5, b, z)


def jacobi(z: float, k: float) -> tuple[float, float, float]:
    """Jacobi elliptic (sn, cn, dn)(z, k) via the descending Landen/AGM
    scheme; modulus k in (0,1), real z."""
    if not 0.0 < k < 1.0:
        raise SpecialFunctionError(f"modulus k={k} outside (0,1)")
    a = [1.0]
    c = [k]
    b = math.sqrt(1.0 - k * k)
    n = 0
    while abs(c[n]) > _AGM_TOL and n < 60:
        a.append(0.5 * (a[n] + b))
        c.append(0.5 * (a[n] - b))
        b = math.sqrt(a[n] * b)
        n += 1
    phi = (2.0 ** n) * a[n] * z
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, c[i] / a[i] * math.sin(phi)))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    # dn > 0 for real z and k < 1, so the defining identity is the stable form
    dn = math.sqrt(1.0 - k * k * sn * sn)
    return sn, cn, dn


def ds(z: float, k: float) -> float:
    """ds(z,k) = dn/sn; pole at sn=0 reported as a domain error."""
    sn, _, dn = jacobi(z, k)
    if abs(sn) < _DS_POLE_GUARD:
        raise SpecialFunctionError(f"ds pole at z={z} (|sn|={abs(sn):.2e})")
    return dn / sn


def sd(z: float, k: float) -> float:
    """sd(z,k) = sn/dn = 1/ds; total for k<1 since dn never vanishes."""
    sn, _, dn = jacobi(z, k)
    return sn / dn


_ERF_SERIES_CUT = 3.2
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def erf(x: float) -> float:
    """Error function: Maclaurin series for small |x|, continued fraction
    for the tail; absolute error <= 1e-12."""
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax <= _ERF_SERIES_CUT:
        # erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1)), Kahan-summed
        x2 = ax * ax
        term = ax
        total = ax
        comp = 0.0
        for n in range(1, 200):
            term *= -x2 / n
            y = term / (2 * n + 1) - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if abs(term) <= 1e-18 * (2 * n + 1):
                break
        r = _TWO_OVER_SQRT_PI * total
    elif ax >= 6.5:
        r = 1.0
    else:
        # erfc via Legendre continued fraction, evaluated backwards
        cf = 0.0
        for n in range(60, 0, -1):
            cf = (0.5 * n) / (ax + cf) if n % 2 == 1 else n * 0.5 / (ax + cf)
        erfc = math.exp(-ax * ax) / math.sqrt(math.pi) / (ax + cf)
        r = 1.0 - erfc
    return r if x > 0 else -r


# -- quintic Hermite tables ----------------------------------------------------

# basis polynomials in s = (t - x0)/h, as ascending coefficient tuples;
# H* multiply (y0, h d0, h^2 c0), K* multiply (y1, h d1, h^2 c1)
_H5 = (
    (1.0, 0.0, 0.0, -10.0, 15.0, -6.0),
    (0.0, 1.0, 0.0, -6.0, 8.0, -3.0),
    (0.0, 0.0, 0.5, -1.5, 1.5, -0.5),
    (0.0, 0.0, 0.0, 10.0, -15.0, 6.0),
    (0.0, 0.0, 0.0, -4.0, 7.0, -3.0),
    (0.0, 0.0, 0.0, 0.5, -1.0, 0.5),
)


def _poly_deriv_val(coeffs: tuple, s: float, order: int) -> float:
    total = 0.0
    for k in range(len(coeffs) - 1, order - 1, -1):
        fac = 1.0
        for j in range(order):
            fac *= (k - j)
        total = total * s + coeffs[k] * fac
    return total


def hermite_table(xs: list[float], ys: list[float], ds: list[float],
                  cs: list[float]) -> tuple:
    """Hashable data for a C^2 quintic Hermite interpolant with exact
    values, first and second derivatives at the knots."""
    if len(xs) < 2:
        raise ValueError("need at least two knots")
    return tuple(xs), (tuple(ys), tuple(ds), tuple(cs))


def hermite_eval(xs: tuple, coeffs: tuple, t: float, order: int = 0) -> float:
    """Evaluate the quintic Hermite table or one of its derivatives
    (order <= 3)."""
    ys, ds, cs = coeffs
    n = len(xs)
    if t < xs[0] - 1e-10 * (1 + abs(xs[0])) or t > xs[-1] + 1e-10 * (1 + abs(xs[-1])):
        raise SpecialFunctionError(
            f"tabulated function queried at {t} outside [{xs[0]}, {xs[-1]}]")
    if order > 3:
        raise SpecialFunctionError(f"tabulated derivative order {order} unsupported")
    lo, hi = 0, n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= t:
            lo = mid
        else:
            hi = mid
    h = xs[lo + 1] - xs[lo]
    s = (t - xs[lo]) / h
    weights = (ys[lo], h * ds[lo], h * h * cs[lo],
               ys[lo + 1], h * ds[lo + 1], h * h * cs[lo + 1])
    val = sum(w * _poly_deriv_val(b, s, order) for w, b in zip(weights, _H5))
    return val / h ** order


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, depth: int = 40) -> float:
    """Adaptive Simpson quadrature of f over [a, b]."""

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a_, b_, fa, fm, fb, whole, tol_, depth_):
        m = 0.5 * (a_ + b_)
        lm = 0.5 * (a_ + m)
        rm = 0.5 * (m + b_)
        flm = f(lm)
        frm = f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth_ <= 0 or abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return rec(a_, m, fa, flm, fm, left, tol_ / 2.0, depth_ - 1) + rec(
            m, b_, fm, frm, fb, right, tol_ / 2.0, depth_ - 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return rec(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), tol, depth)
