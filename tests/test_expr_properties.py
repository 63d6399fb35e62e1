"""Property tests on random small trees over x and t: `simplify`, and the
batch evaluator against a scalar reference evaluator kept here."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rdsym import expr, special  # noqa: E402
from rdsym.expr import (  # noqa: E402
    EvalDomainError,
    Expr,
    ExprError,
    add,
    const,
    diff,
    div,
    evaluate_points,
    func,
    mul,
    neg,
    num_equal,
    parse,
    pow_,
    simplify,
    sub,
    var,
)
from rdsym.sampling import halton_scaled  # noqa: E402

BOX = {"x": (0.5, 2.0), "t": (0.5, 2.0)}

LEAVES = st.one_of(
    st.sampled_from([var("x"), var("t")]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, -1.0, -2.0]).map(const),
)


def _extend(children):
    binary = st.builds(lambda op, a, b: op(a, b),
                       st.sampled_from([add, sub, mul, div, pow_]), children, children)
    unary = st.builds(lambda name, a: func(name, a),
                      st.sampled_from(["exp", "ln", "sqrt", "abs"]), children)
    return st.one_of(binary, unary, st.builds(neg, children))


TREES = st.recursive(LEAVES, _extend, max_leaves=8)

PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(TREES)
def test_simplify_is_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s


@PROPERTY
@given(TREES)
def test_simplify_keeps_the_value(e):
    try:
        same = num_equal(simplify(e), e, BOX)
    except EvalDomainError:
        reject()   # e does not evaluate on enough of the box
    assert same


@PROPERTY
@given(TREES)
def test_cold_memo_gives_the_warm_result(e):
    warm = simplify(e)
    expr._SIMPLIFY_MEMO.clear()
    assert simplify(e) == warm


# -- a scalar reference evaluator ---------------------------------------------
#
# Independent of the batch evaluator: one closure per node over Python
# floats and the `math` module, with the domain rule written out for one
# point (a division by zero, a power with no real value or out of range, a
# call that fails or gives a non-finite value, or a non-finite result).

def _ref_pow(base: float, expo: float) -> float:
    try:
        if base > 0.0:
            r = base ** expo
        elif base == 0.0:
            if not expo > 0.0:
                raise EvalDomainError("0 raised to a nonpositive power")
            r = 0.0
        else:
            n = round(expo)
            if not abs(expo - n) < 1e-9:
                raise EvalDomainError(f"noninteger power {expo} of negative base {base}")
            r = (-1.0) ** (int(n) % 2) * (-base) ** n
    except (OverflowError, ValueError):   # a result out of range, or round() of inf/nan
        raise EvalDomainError(f"power {base}^{expo} out of range") from None
    if not math.isfinite(r):
        raise EvalDomainError("overflow in power")
    return r


_REF_1 = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "abs": abs, "erf": special.erf,
    "sign": lambda x: (x > 0) - (x < 0) + 0.0,
}


def _ref_call(name: str, vals: list) -> float:
    try:
        if name in _REF_1:
            r = _REF_1[name](vals[0])
        elif name == "ln":
            if vals[0] <= 0.0:
                raise EvalDomainError(f"ln of nonpositive value {vals[0]}")
            r = math.log(vals[0])
        elif name == "sqrt":
            if vals[0] < 0.0:
                raise EvalDomainError(f"sqrt of negative value {vals[0]}")
            r = math.sqrt(vals[0])
        elif name == "whitM":
            r = special.whittaker_m(*vals)
        elif name in ("ds", "sd"):
            sn, _, dn = special.jacobi(*vals)
            if name == "ds" and abs(sn) < 1e-9:   # the pole guard of ds
                raise EvalDomainError(f"ds at its pole: sn = {sn}")
            r = dn / sn if name == "ds" else sn / dn
        else:
            r = special.jacobi(*vals)[("sn", "cn", "dn").index(name)]
    except special.SpecialFunctionError as exc:
        raise EvalDomainError(str(exc)) from exc
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError(f"{name}: {exc}") from exc
    if not math.isfinite(r):
        raise EvalDomainError(f"{name} produced a non-finite value")
    return r


def _ref_interp(data: tuple, t: float) -> float:
    xs, coeffs, order = data
    try:
        return special.hermite_eval(xs, coeffs, t, order)
    except special.SpecialFunctionError as exc:
        raise EvalDomainError(str(exc)) from exc


def reference_compile(e: Expr, names: tuple):
    """e as f(point_tuple) -> float, raising EvalDomainError outside its
    domain."""
    index = {n: i for i, n in enumerate(names)}

    def build(n: Expr):
        k = n.kind
        if k == "const":
            v = n.value
            return lambda p: v
        if k in ("var", "param"):
            if n.name not in index:
                raise ExprError(f"no binding for variable {n.name!r}")
            i = index[n.name]
            return lambda p: p[i]
        fs = [build(a) for a in n.args]
        if k == "neg":
            return lambda p: -fs[0](p)
        if k == "add":
            return lambda p: fs[0](p) + fs[1](p)
        if k == "sub":
            return lambda p: fs[0](p) - fs[1](p)
        if k == "mul":
            return lambda p: fs[0](p) * fs[1](p)
        if k == "div":
            def fdiv(p):
                b = fs[1](p)
                if b == 0.0:
                    raise EvalDomainError("division by zero")
                return fs[0](p) / b
            return fdiv
        if k == "pow":
            return lambda p: _ref_pow(fs[0](p), fs[1](p))
        if k == "call":
            return lambda p: _ref_call(n.name, [f(p) for f in fs])
        if k == "interp":
            return lambda p: _ref_interp(n.data, fs[0](p))
        raise ExprError(f"cannot compile node kind {k!r}")

    inner = build(e)

    def run(p) -> float:
        r = inner(p)
        if not math.isfinite(r):
            raise EvalDomainError("non-finite result")
        return r

    return run


# -- the batch evaluator against the reference --------------------------------

_KNOTS = [0.25 * i - 3.0 for i in range(25)]
_TABLE = special.hermite_table(_KNOTS, [math.sin(v) for v in _KNOTS],
                               [math.cos(v) for v in _KNOTS],
                               [-math.sin(v) for v in _KNOTS])
_NAMES = ("x", "t")
# both signs, so that ln, sqrt, 1/x and noninteger powers leave the domain
_POINTS = halton_scaled([(-2.5, 2.5), (-2.5, 2.5)], 16)


def _extend_with(unary_names):
    def extend(children):
        binary = st.builds(lambda op, a, b: op(a, b),
                           st.sampled_from([add, sub, mul, div, pow_]), children, children)
        unary = st.builds(lambda name, a: func(name, a), st.sampled_from(unary_names), children)
        whittaker = st.builds(lambda a, kap, mu: func("whitM", const(kap), const(mu), a),
                              children, st.sampled_from([-0.5, 0.3, 1.2]),
                              st.sampled_from([0.25, 0.8]))
        elliptic = st.builds(lambda name, a, k: func(name, a, const(k)),
                             st.sampled_from(["sn", "cn", "dn", "ds", "sd"]), children,
                             st.sampled_from([0.3, 0.7]))
        table = st.builds(lambda a: Expr("interp", args=(a,), data=(*_TABLE, 0)), children)
        return st.one_of(binary, unary, whittaker, elliptic, table, st.builds(neg, children))
    return extend


ALL_TREES = st.recursive(LEAVES, _extend_with(["exp", "ln", "sqrt", "abs", "sign", "erf",
                                                "sin", "tanh"]), max_leaves=8)
# every node differentiable in x without a declared sign
SMOOTH_TREES = st.recursive(LEAVES, _extend_with(["exp", "ln", "sqrt", "erf", "sin", "tanh"]),
                            max_leaves=8)


def _scalar(f, pt):
    try:
        return f(pt)
    except EvalDomainError:
        return None


def _spread(f, pt, value):
    """How far the scalar value moves when one coordinate of the point
    moves by one ulp: the rounding noise an ill-conditioned tree (sin of
    a huge argument) shows on either evaluator."""
    out = 0.0
    for i in range(len(pt)):
        for step in (-math.inf, math.inf):
            near = list(pt)
            near[i] = math.nextafter(near[i], step)
            v = _scalar(f, tuple(near))
            if v is None:
                return math.inf
            out = max(out, abs(v - value))
    return out


def assert_same_as_compiled(e, points):
    f = reference_compile(e, _NAMES)
    (vals,), ok = evaluate_points([e], _NAMES, points)
    for pt, got, valid in zip(points, vals, ok):
        want = _scalar(f, pt)
        assert valid == (want is not None), (e, pt, want, got)
        if valid:
            err, tol = abs(got - want), 1e-13 * max(1.0, abs(want))
            assert err <= tol or err <= tol + 4.0 * _spread(f, pt, want), (e, pt, want, got)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ALL_TREES)
def test_batch_evaluator_matches_compiled_trees(e):
    assert_same_as_compiled(e, _POINTS)


@pytest.mark.parametrize("src", [
    "exp(1000*x)",                  # overflowing call
    "1/(x - x)",                    # division by zero everywhere
    "1/(1/(x - x))",                # ... even where the quotient's inverse is finite
    "ln(x) + sqrt(t)",              # half the box is outside
    "x^0.5 + (0 - 2)^x",            # negative bases
    "(0 - x)^(2 + 0.0001*t)",       # a negative base, an exponent near an integer
    "sign(x*10^200*10^200 - t*10^200*10^200)",   # sign of a NaN intermediate
    "ds(0.000000000001*x, 0.7)",    # inside the pole guard of ds
    "whitM(0.3, 0.25, x)*ds(t, 0.7) + erf(x/t)",
])
def test_batch_evaluator_matches_compiled_fixed(src):
    assert_same_as_compiled(parse(src), _POINTS)


def test_overflowing_call_is_invalid_on_both_paths():
    e = parse("exp(1000*x)")
    (vals,), ok = evaluate_points([e], ("x",), [(1.5,), (-1.5,)])
    assert ok.tolist() == [False, True] and vals[1] == 0.0
    with pytest.raises(EvalDomainError):
        reference_compile(e, ("x",))((1.5,))


_H = 1e-5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SMOOTH_TREES)
def test_diff_matches_central_differences(e):
    d = diff(e, "x")
    shifts = (0.0, _H, -_H, 2 * _H, -2 * _H)
    (vals, dvals), ok = evaluate_points(
        [e, d], _NAMES, [(x + s, t) for x, t in _POINTS for s in shifts])
    f = reference_compile(e, _NAMES)
    for i, pt in enumerate(_POINTS):
        v, want = vals[5 * i:5 * i + 5], dvals[5 * i]
        if not ok[5 * i:5 * i + 5].all():
            continue   # e or its derivative leaves the domain near pt
        fd = (v[1] - v[2]) / (2 * _H)
        # truncation error of fd is about |fd(2h) - fd(h)| / 3, rounding
        # error about the ulp spread of e over h
        trunc = abs((v[3] - v[4]) / (4 * _H) - fd)
        tol = 1e-6 * max(1.0, abs(want)) + trunc + 4.0 * _spread(f, pt, v[0]) / _H
        assert abs(fd - want) <= tol, (e, pt, want, fd)
