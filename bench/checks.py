"""Output checks that do not compare against recorded output.

- algebra: the structure constants of the three-operator algebra.
- catalog: a finite-difference residual built only from values of the
  bound solution, with its error estimated from two step sizes, and
  mpmath spot checks of the special-function kernels at arguments the
  grid uses.
- CLI: coefficient strings printed by `rdsym map` evaluated by a small
  evaluator of the grammar that uses only `math`.
"""

from __future__ import annotations

import ast
import math
import random

from rdsym import expr, special

try:
    import mpmath
except ImportError:          # the spot checks are skipped without it
    mpmath = None


def algebra_constants(rep) -> "str | None":
    """[Q0,Q2] = 2 Q0, [Q1,Q2] = Q1, [Q0,Q1] = 0 (criterion 2)."""
    want = {(0, 2): (2.0, 0.0, 0.0), (1, 2): (0.0, 1.0, 0.0), (0, 1): (0.0, 0.0, 0.0)}
    if not rep["closed"]:
        return f"algebra does not close: {rep['failures']}"
    for (i, j), vec in want.items():
        got = rep["constants"][i][j]
        back = rep["constants"][j][i]
        if any(abs(g - w) > 1e-10 or abs(b + w) > 1e-10
               for g, b, w in zip(got, back, vec)):
            return f"[Q{i},Q{j}] = {got}, want {vec}"
    return None


# -- catalog oracles -------------------------------------------------------------

_H1, _H2 = 1e-3, 5e-4          # the two finite-difference steps
_RESOLVED = 1e-3
_FD_POINTS = 3
_FD_TRIES = 100
_POLE_MARGIN = 0.05
_ELLIPTIC = ("sn", "cn", "dn", "ds", "sd")


def _calls(e, names):
    out, stack, seen = [], [e], set()
    while stack:
        n = stack.pop()
        if n.kind == "call" and n.name in names:
            key = repr(n)
            if key not in seen:
                seen.add(key)
                out.append(n)
        stack.extend(n.args)
    return out


def _fd_residual(u, coeffs, kind, m, t, x, h):
    """Residual of the equation from central differences of u with step h,
    the sum of the magnitudes of its terms, and the difference estimates
    (u_t, u_xx) it used."""
    u0 = u((t, x))
    ut = (u((t + h, x)) - u((t - h, x))) / (2 * h)
    up, um = u((t, x + h)), u((t, x - h))
    uxx = (up - 2 * u0 + um) / (h * h)
    if kind == "initial":
        f, g, hh = (c((x,)) for c in coeffs)
        gp, gm = coeffs[1]((x + h / 2,)), coeffs[1]((x - h / 2,))
        flux = (gp * (up - u0) - gm * (u0 - um)) / (h * h)
        terms = (f * ut, -flux, -hh * u0 ** m)
    elif kind == "imaged":
        F, H = (c((x,)) for c in coeffs)
        terms = (ut, -uxx, -H * u0 ** m, -F * u0)
    else:
        H, G = (c((x,)) for c in coeffs)
        terms = (ut, -uxx, -H * u0 * u0, -G)
    return math.fsum(terms), sum(abs(v) for v in terms), (ut, uxx, u0)


def _equation_parts(eq):
    if hasattr(eq, "f"):
        return "initial", (eq.f, eq.g, eq.h), eq.m
    if hasattr(eq, "F"):
        return "imaged", (eq.F, eq.H), eq.m
    return "double", (eq.H, eq.G), 2.0


def _clear_of_poles(guards, pt) -> bool:
    for z_fn, k_fn in guards:
        sn, cn, _ = special.jacobi(z_fn(pt), k_fn(pt))
        if abs(sn) < _POLE_MARGIN or abs(1.0 + cn) < _POLE_MARGIN:
            return False
    return True


def finite_difference(entry, binding, grid, rng) -> "str | None":
    eq = entry.equation
    sol = entry.bound(binding)
    kind, coeffs, m = _equation_parts(eq)
    u = expr.compile_expr(sol, ("t", "x"))
    cfns = [expr.compile_expr(c, ("x",)) for c in coeffs]
    guards = [(expr.compile_expr(c.args[0], ("t", "x")), expr.compile_expr(c.args[1], ("t", "x")))
              for c in _calls(sol, _ELLIPTIC)]
    (t0, t1) = grid.t_range
    (x0, x1) = grid.x_range or (eq.domain.lo, eq.domain.hi)
    pad = 3 * _H1
    done = 0
    for _ in range(_FD_TRIES):
        t = rng.uniform(t0 + pad, t1 - pad)
        x = rng.uniform(x0 + pad, x1 - pad)
        try:
            if not _clear_of_poles(guards, (t, x)):
                continue
            r1, _, d1 = _fd_residual(u, cfns, kind, m, t, x, _H1)
            r2, s2, d2 = _fd_residual(u, cfns, kind, m, t, x, _H2)
        except (expr.EvalDomainError, special.SpecialFunctionError,
                OverflowError, ZeroDivisionError):
            continue
        # a point where the two steps disagree on u_t or u_xx is too close
        # to a singularity of u to be resolved; that says nothing of the
        # equation, so another point is drawn
        if any(abs(a - b) > _RESOLVED * (abs(b) + abs(d2[2]))
               for a, b in zip(d1[:2], d2[:2])):
            continue
        if not abs(r2) <= 2.0 * abs(r1 - r2) + 1e-6 * s2:
            return (f"finite-difference residual {r2:.3e} at t={t:.4f} x={x:.4f} "
                    f"exceeds its error estimate {abs(r1 - r2):.3e}")
        done += 1
        if done == _FD_POINTS:
            return None
    return f"only {done} of {_FD_POINTS} finite-difference points could be evaluated"


def special_spot_checks(entry, binding, grid, rng) -> "str | None":
    """Compare jacobi, whittaker_m and erf with mpmath at the arguments
    they take on grid points the verification evaluates."""
    if mpmath is None:
        return None
    sol = entry.bound(binding)
    calls = _calls(sol, _ELLIPTIC + ("whitM", "erf"))
    if not calls:
        return None
    (t0, t1) = grid.t_range
    (x0, x1) = grid.x_range or (entry.equation.domain.lo, entry.equation.domain.hi)
    fns = [(c.name, [expr.compile_expr(a, ("t", "x")) for a in c.args]) for c in calls]
    for _ in range(2):
        i, j = rng.randrange(grid.nt), rng.randrange(grid.nx)
        pt = (t0 + (t1 - t0) * (i + 0.5) / grid.nt, x0 + (x1 - x0) * (j + 0.5) / grid.nx)
        for name, arg_fns in fns:
            try:
                args = [f(pt) for f in arg_fns]
            except expr.EvalDomainError:
                continue
            problem = _compare_kernel(name, args)
            if problem:
                return problem
    return None


def _compare_kernel(name, args) -> "str | None":
    if name in _ELLIPTIC:
        z, k = args
        got = special.jacobi(z, k)
        want = [float(mpmath.ellipfun(w, z, m=k * k)) for w in ("sn", "cn", "dn")]
        if max(abs(g - w) for g, w in zip(got, want)) > 1e-9:
            return f"jacobi({z}, {k}) = {got}, mpmath {want}"
    elif name == "whitM":
        kappa, mu, z = args
        got = special.whittaker_m(kappa, mu, z)
        want = float(mpmath.whitm(kappa, mu, z))
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            return f"whittaker_m({kappa}, {mu}, {z}) = {got}, mpmath {want}"
    else:
        (x,) = args
        got, want = special.erf(x), float(mpmath.erf(x))
        if abs(got - want) > 1e-11:
            return f"erf({x}) = {got}, mpmath {want}"
    return None


def catalog_oracles(entry, binding, grid, probe_seed) -> "str | None":
    rng = random.Random(probe_seed)
    return (finite_difference(entry, binding, grid, rng)
            or special_spot_checks(entry, binding, grid, rng))


# -- CLI output ---------------------------------------------------------------------

_MATH = {"exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
         "sin": math.sin, "cos": math.cos, "tan": math.tan, "sinh": math.sinh,
         "cosh": math.cosh, "tanh": math.tanh}


def eval_grammar(text: str, x: float) -> float:
    """Value of a printed one-variable expression at x ('^' is power)."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def go(n):
        if isinstance(n, ast.Expression):
            return go(n.body)
        if isinstance(n, ast.Constant) and isinstance(n.value, (int, float)):
            return float(n.value)
        if isinstance(n, ast.Name) and n.id == "x":
            return x
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
            v = go(n.operand)
            return -v if isinstance(n.op, ast.USub) else v
        if isinstance(n, ast.BinOp):
            a, b = go(n.left), go(n.right)
            ops = {ast.Add: lambda: a + b, ast.Sub: lambda: a - b,
                   ast.Mult: lambda: a * b, ast.Div: lambda: a / b,
                   ast.Pow: lambda: a ** b}
            if type(n.op) in ops:
                return ops[type(n.op)]()
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id in _MATH and len(n.args) == 1):
            return _MATH[n.func.id](go(n.args[0]))
        raise ValueError(f"unsupported expression {text!r}")

    return go(tree)
