"""Property tests of `simplify` on random small trees over x and t."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rdsym import expr  # noqa: E402
from rdsym.expr import (  # noqa: E402
    EvalDomainError,
    add,
    const,
    div,
    func,
    mul,
    neg,
    num_equal,
    pow_,
    simplify,
    sub,
    var,
)

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
