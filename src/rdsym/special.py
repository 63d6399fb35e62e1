"""Numeric kernels: Kummer/Whittaker functions, the Jacobi elliptic
functions (sn, cn, dn, with ds and sd formed from the triple), the error
function, and the quintic Hermite tables used by numeric-inverse fallbacks.

Every kernel works elementwise on numpy arrays and has one
implementation.  Array arguments broadcast against each other; an element
outside the kernel's domain, or one whose series did not converge, comes
back as NaN.  A call whose arguments are all scalars runs the same code
on one element and returns floats, raising SpecialFunctionError where the
array form gives NaN.  Ranges are deliberately modest (desk-scale
arguments); accuracy targets: Kummer/Whittaker 1e-11 relative, Jacobi
1e-13 absolute for |z| <= 100 and k <= 0.999999, erf 1e-12 absolute.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class SpecialFunctionError(Exception):
    """Domain or convergence failure inside a special-function kernel."""


_MAX_KUMMER_TERMS = 500
_KUMMER_Z_LIMIT = 30.0
_AGM_TOL = 1e-15
_AGM_STEPS = 60
_DS_POLE_GUARD = 1e-9


def _elementwise(kernel):
    """Public form of an array kernel: the positional arguments are
    broadcast to 1-d float arrays (keyword arguments pass unchanged); with
    scalar arguments only, the result is float(s) and a NaN element
    raises SpecialFunctionError."""

    @functools.wraps(kernel)
    def run(*args, **fixed):
        arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        shape = arrays[0].shape
        with np.errstate(all="ignore"):
            out = kernel(*(a.reshape(-1) for a in arrays), **fixed)
        parts = out if isinstance(out, tuple) else (out,)
        if shape:
            parts = tuple(p.reshape(shape) for p in parts)
            return parts if isinstance(out, tuple) else parts[0]
        if not all(np.isfinite(p[0]) for p in parts):
            shown = ", ".join(repr(float(a)) for a in args)
            raise SpecialFunctionError(f"{kernel.__name__.lstrip('_')}({shown}) is outside "
                                       f"the kernel's domain or did not converge")
        values = tuple(float(p[0]) for p in parts)
        return values if isinstance(out, tuple) else values[0]

    return run


def _pole_of_b(b: np.ndarray) -> np.ndarray:
    """b is a nonpositive integer: a pole of M(a, b, z)."""
    return (b <= 0.0) & (b == np.floor(b))


@_elementwise
def kummer_m(a, b, z):
    """Confluent hypergeometric M(a,b,z) by power series with compensated
    summation.  Requires b not a nonpositive integer and |z| <= 30.
    Negative z goes through Kummer's transformation
    M(a,b,z) = e^z M(b-a,b,-z) (DLMF 13.2.39): the series at -z does not
    lose its digits to the cancellation of an alternating sum."""
    bad = (~np.isfinite(a) | ~np.isfinite(b) | ~np.isfinite(z) | _pole_of_b(b)
           | (np.abs(z) > _KUMMER_Z_LIMIT))
    flip = z < 0.0
    a = np.where(flip, b - a, a)
    z = np.abs(z)
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    term = np.ones_like(z)
    live = ~bad
    for n in range(_MAX_KUMMER_TERMS):
        if not live.any():
            break
        i = np.flatnonzero(live)
        tm = term[i] * ((a[i] + n) / (b[i] + n) * z[i] / (n + 1))
        # Kahan step
        y = tm - comp[i]
        t = total[i] + y
        comp[i] = (t - total[i]) - y
        total[i] = t
        term[i] = tm
        live[i] = ~(np.abs(tm) <= 1e-17 * np.abs(t) + 1e-300)
    bad |= live   # no convergence in _MAX_KUMMER_TERMS terms
    total = np.where(flip, np.exp(-z) * total, total)
    return np.where(bad, np.nan, total)


@_elementwise
def whittaker_m(kappa, mu, z):
    """Whittaker M_{kappa,mu}(z) = e^{-z/2} z^{mu+1/2} M(mu-kappa+1/2, 1+2mu, z).

    Real branch only: z must be positive.
    """
    b = 1.0 + 2.0 * mu
    bad = ~(z > 0.0) | _pole_of_b(b)
    z = np.where(bad, 1.0, z)
    m = kummer_m(mu - kappa + 0.5, b, z)
    return np.where(bad, np.nan, np.exp(-0.5 * z) * np.power(z, mu + 0.5) * m)


@_elementwise
def jacobi(z, k):
    """Jacobi elliptic (sn, cn, dn)(z, k) via the descending Landen/AGM
    scheme; modulus k in (0,1), real z.  The number of AGM steps is that
    of each element's own modulus."""
    bad = ~((k > 0.0) & (k < 1.0)) | ~np.isfinite(z)
    k = np.where(bad, 0.5, k)
    a = [np.ones_like(k)]
    c = [k]
    b = np.sqrt((1.0 - k) * (1.0 + k))   # keeps its digits as k -> 1
    steps = np.zeros(k.shape, dtype=int)
    live = np.abs(k) > _AGM_TOL
    while live.any() and len(c) <= _AGM_STEPS:
        an = a[-1]
        a.append(np.where(live, 0.5 * (an + b), an))
        c.append(np.where(live, 0.5 * (an - b), c[-1]))
        b = np.where(live, np.sqrt(an * b), b)
        steps += live
        live &= np.abs(c[-1]) > _AGM_TOL
    idx = np.arange(k.size)
    a_last = np.stack(a)[steps, idx]
    phi = np.power(2.0, steps) * a_last * z
    for i in range(len(a) - 1, 0, -1):
        step = 0.5 * (phi + np.arcsin(np.clip(c[i] / a[i] * np.sin(phi), -1.0, 1.0)))
        phi = np.where(i <= steps, step, phi)
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn > 0 for real z and k < 1, so the defining identity is the stable form
    dn = np.sqrt(1.0 - k * k * sn * sn)
    return tuple(np.where(bad, np.nan, v) for v in (sn, cn, dn))


def ds_of(sn, dn):
    """ds = dn/sn from the Jacobi triple; NaN at the pole |sn| < 1e-9."""
    with np.errstate(all="ignore"):
        return np.where(np.abs(sn) < _DS_POLE_GUARD, np.nan, dn / sn)


def sd_of(sn, dn):
    """sd = sn/dn from the Jacobi triple; total for k<1 since dn never
    vanishes."""
    with np.errstate(all="ignore"):
        return sn / dn


_ERF_SERIES_CUT = 3.2
_ERF_ONE = 6.5
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@_elementwise
def erf(x):
    """Error function: Maclaurin series for small |x|, continued fraction
    for the tail, 1 beyond 6.5; absolute error <= 1e-12."""
    ax = np.abs(x)
    r = np.where(ax >= _ERF_ONE, 1.0, np.nan)   # NaN stays NaN
    series = np.flatnonzero((ax > 0.0) & (ax <= _ERF_SERIES_CUT))
    if series.size:
        # erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1)), Kahan-summed
        s = ax[series]
        x2 = s * s
        term = s.copy()
        total = s.copy()
        comp = np.zeros_like(s)
        live = np.ones(s.shape, dtype=bool)
        for n in range(1, 200):
            i = np.flatnonzero(live)
            if not i.size:
                break
            tm = term[i] * (-x2[i] / n)
            y = tm / (2 * n + 1) - comp[i]
            t = total[i] + y
            comp[i] = (t - total[i]) - y
            total[i] = t
            term[i] = tm
            live[i] = ~(np.abs(tm) <= 1e-18 * (2 * n + 1))
        r[series] = _TWO_OVER_SQRT_PI * total
    tail = np.flatnonzero((ax > _ERF_SERIES_CUT) & (ax < _ERF_ONE))
    if tail.size:
        # erfc via Legendre continued fraction, evaluated backwards
        s = ax[tail]
        cf = np.zeros_like(s)
        for n in range(60, 0, -1):
            cf = (0.5 * n) / (s + cf)
        r[tail] = 1.0 - np.exp(-s * s) / math.sqrt(math.pi) / (s + cf)
    r = np.where(x > 0, r, -r)
    r[ax == 0.0] = 0.0
    return r


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


def _poly_deriv_val(coeffs: tuple, s, order: int):
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


def hermite_eval(xs: tuple, coeffs: tuple, t, order: int = 0):
    """Evaluate the quintic Hermite table or one of its derivatives
    (order <= 3) elementwise at t; a point outside the knot range is a
    domain error."""
    if order > 3:
        raise SpecialFunctionError(f"tabulated derivative order {order} unsupported")
    return _tabulated(t, xs=xs, coeffs=coeffs, order=order)


@_elementwise
def _tabulated(t, *, xs: tuple, coeffs: tuple, order: int):
    grid = np.asarray(xs, dtype=float)
    inside = ((t >= xs[0] - 1e-10 * (1 + abs(xs[0])))
              & (t <= xs[-1] + 1e-10 * (1 + abs(xs[-1]))))
    lo = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid.size - 2)
    h = grid[lo + 1] - grid[lo]
    s = (t - grid[lo]) / h
    ys, ds_, cs = (np.asarray(c, dtype=float) for c in coeffs)
    weights = (ys[lo], h * ds_[lo], h * h * cs[lo],
               ys[lo + 1], h * ds_[lo + 1], h * h * cs[lo + 1])
    val = 0
    for w, b in zip(weights, _H5):
        val = val + w * _poly_deriv_val(b, s, order)
    return np.where(inside, val / h ** order, np.nan)
