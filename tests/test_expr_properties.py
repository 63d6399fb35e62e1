"""Property tests on random small trees over x and t: `simplify`, and the
batch evaluator against the scalar one."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rdsym import expr, special  # noqa: E402
from rdsym.expr import (  # noqa: E402
    EvalDomainError,
    Expr,
    add,
    compile_expr,
    const,
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


# -- the batch evaluator against compile_expr ---------------------------------

_KNOTS = [0.25 * i - 3.0 for i in range(25)]
_TABLE = special.hermite_table(_KNOTS, [math.sin(v) for v in _KNOTS],
                               [math.cos(v) for v in _KNOTS],
                               [-math.sin(v) for v in _KNOTS])
_NAMES = ("x", "t")
# both signs, so that ln, sqrt, 1/x and noninteger powers leave the domain
_POINTS = halton_scaled([(-2.5, 2.5), (-2.5, 2.5)], 16)


def _extend_all(children):
    binary = st.builds(lambda op, a, b: op(a, b),
                       st.sampled_from([add, sub, mul, div, pow_]), children, children)
    unary = st.builds(lambda name, a: func(name, a),
                      st.sampled_from(["exp", "ln", "sqrt", "abs", "sign", "erf", "sin",
                                       "tanh"]), children)
    whittaker = st.builds(lambda a, kap, mu: func("whitM", const(kap), const(mu), a),
                          children, st.sampled_from([-0.5, 0.3, 1.2]),
                          st.sampled_from([0.25, 0.8]))
    elliptic = st.builds(lambda name, a, k: func(name, a, const(k)),
                         st.sampled_from(["sn", "cn", "dn", "ds", "sd"]), children,
                         st.sampled_from([0.3, 0.7]))
    table = st.builds(lambda a: Expr("interp", args=(a,), data=(*_TABLE, 0)), children)
    return st.one_of(binary, unary, whittaker, elliptic, table, st.builds(neg, children))


ALL_TREES = st.recursive(LEAVES, _extend_all, max_leaves=8)


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
    f = compile_expr(e, _NAMES)
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
        compile_expr(e, ("x",))((1.5,))
