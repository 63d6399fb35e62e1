import os
import pickle
import subprocess
import sys

import pytest

from rdsym.expr import (
    Assumption,
    DiffError,
    EvalDomainError,
    ParseError,
    compile_expr,
    const,
    diff,
    evaluate,
    free_variables,
    func,
    max_deviation,
    num_equal,
    parse,
    sample_residual,
    simplify,
    substitute,
    to_str,
    var,
)
from rdsym import special
from rdsym.sampling import halton_scaled
from conftest import central_diff

BOX = {"x": (0.5, 2.5)}


class TestParse:
    def test_grammar_examples(self):
        e = parse("x^2 + exp(x)")
        assert e.kind == "add"
        assert e.args[0].kind == "pow"
        assert e.args[1] == func("exp", var("x"))

    def test_cosh_square(self):
        e = parse("cosh(x)^2")
        assert e.kind == "pow"
        assert e.args[0] == func("cosh", var("x"))
        assert e.args[1] == const(2)

    def test_whittaker_three_children(self):
        e = parse("whitM(-1/4,1/4,p*x^2)")
        assert e.kind == "call" and e.name == "whitM"
        assert len(e.args) == 3
        assert free_variables(e) == {"p", "x"}

    def test_precedence(self):
        assert evaluate(parse("2+3*4"), {}) == 14
        assert evaluate(parse("2*3^2"), {}) == 18
        assert evaluate(parse("2^3^2"), {}) == 512      # right associative
        assert evaluate(parse("8/4/2"), {}) == 1        # left associative
        assert evaluate(parse("1-2-3"), {}) == -4

    def test_unary_minus(self):
        assert evaluate(parse("-x^2"), {"x": 3}) == 9.0   # (-x)^2 per grammar
        assert evaluate(parse("-(x^2)"), {"x": 3}) == -9.0
        assert parse("-5").kind == "const"

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x + + y")
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("foo(x)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("sn(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + 1)")


ROUNDTRIP_CASES = [
    "x^2 + exp(x)",
    "cosh(x)^2",
    "whitM(-1/4, 1/4, p*x^2)",
    "a - b - c",
    "a - (b - c)",
    "x/(y*z)",
    "-(x + 1)",
    "(x + 1)^(m - 1)",
    "2*sn(x^2 + 6*t, 0.7071)",
    "sign(x)*abs(x)",
    "1/(c1*sin(x) + c2*cos(x))",
    "x^-2",
    "erf(sqrt(z))*tan(x)",
]


@pytest.mark.parametrize("src", ROUNDTRIP_CASES)
def test_print_parse_roundtrip(src):
    e = parse(src)
    assert parse(to_str(e)) == e


def test_roundtrip_of_derived_trees():
    # trees produced by differentiation keep the round-trip property
    e = diff(parse("exp(x^2)*sin(x)/x"), "x")
    assert parse(to_str(e)) == e


class TestDiff:
    def test_constant_rule(self):
        assert diff(const(7.0), "x") == const(0.0)

    def test_sqrt_cosh_square(self):
        e = parse("sqrt(cosh(x)^2)")
        d = diff(e, "x", ["cosh(x)>0"])
        assert abs(evaluate(d, {"x": 0.7}) - central_diff(e, "x", {"x": 0.7})) < 1e-6

    def test_whittaker_contiguous_relation(self):
        e = parse("whitM(0.3, 0.25, z)")
        d = diff(e, "z")
        for z in (0.5, 2.0, 7.0):
            num = central_diff(e, "z", {"z": z})
            val = evaluate(d, {"z": z})
            assert abs(val - num) <= 1e-6 * (1 + abs(val))

    @pytest.mark.parametrize("src,point", [
        ("exp(x)", 0.3), ("ln(x)", 1.7), ("sqrt(x)", 2.2),
        ("sin(x)", 0.9), ("cos(x)", 0.9), ("tan(x)", 0.4),
        ("sinh(x)", 0.8), ("cosh(x)", 0.8), ("tanh(x)", 0.8),
        ("erf(x)", 0.6),
        ("x^3", 1.3), ("x^0.7", 1.9), ("2^x", 1.1), ("x^x", 1.5),
        ("sn(x, 0.6)", 1.1), ("cn(x, 0.6)", 1.1), ("dn(x, 0.6)", 1.1),
        ("ds(x, 0.6)", 1.1), ("sd(x, 0.6)", 1.1),
        ("whitM(-0.5, 0.25, x)", 1.4),
        ("exp(sin(x))*x", 0.7), ("1/(1 + x^2)", 0.9),
    ])
    def test_finite_difference_consistency(self, src, point):
        e = parse(src)
        d = diff(e, "x")
        val = evaluate(d, {"x": point})
        num = central_diff(e, "x", {"x": point})
        assert abs(val - num) <= 1e-6 * (1 + abs(val))

    def test_abs_without_assumption_raises(self):
        with pytest.raises(DiffError):
            diff(parse("abs(x - 1)"), "x")

    def test_abs_with_assumption(self):
        d = diff(parse("abs(x)"), "x", ["x>0"])
        assert d == const(1.0)
        d = diff(parse("abs(x)"), "x", [Assumption(parse("x"), False)])
        assert evaluate(d, {"x": -2.0}) == -1.0

    def test_sign_constant_under_assumption(self):
        assert diff(parse("sign(x)*x"), "x", ["x>0"]) == const(1.0)

    def test_elliptic_modulus_slot_rejected(self):
        with pytest.raises(DiffError):
            diff(parse("sn(1.0, k)"), "k")


class TestSubstitute:
    def test_basic(self):
        assert substitute(parse("x^2"), "x", parse("t+1")) == parse("(t+1)^2")

    def test_dependent_variable_change(self):
        e = substitute(parse("v"), "v", parse("sqrt(abs(f))*u"))
        assert e == parse("sqrt(abs(f))*u")

    def test_simultaneous_swap(self):
        e = substitute(parse("x*y"), {"x": parse("y"), "y": parse("x")})
        assert e == parse("y*x")

    def test_substitute_then_eval_matches_binding(self):
        e = parse("sin(x)*exp(y) + x^2")
        r = parse("t^2 + 1")
        sub = substitute(e, "x", r)
        pts = [(0.3 + 0.1 * i, 0.8 - 0.01 * i) for i in range(50)]
        for t, y in pts:
            xv = t * t + 1
            assert abs(evaluate(sub, {"t": t, "y": y})
                       - evaluate(e, {"x": xv, "y": y})) < 1e-12

    def test_capture_free_renaming(self):
        # substituting a fresh variable commutes with renaming it afterwards
        e = parse("x + y")
        a = substitute(substitute(e, "x", parse("w")), "w", parse("z"))
        b = substitute(e, "x", parse("z"))
        assert a == b


class TestSimplify:
    def test_zero_absorption(self):
        assert simplify(parse("0*x + y")) == var("y")

    def test_exp_ln(self):
        assert simplify(parse("exp(ln(x))")) == var("x")

    def test_hyperbolic_identity(self):
        assert simplify(parse("cosh(x)^2 - sinh(x)^2")) == const(1.0)

    def test_trig_identity(self):
        assert simplify(parse("sin(x)^2 + cos(x)^2")) == const(1.0)

    @pytest.mark.parametrize("src", [
        "x*1 + 0", "x^1", "(x^2)^3", "exp(x)*exp(y)", "x/x",
        "sqrt(exp(2*x))", "2*(3*x)", "x*x", "sin(0) + x", "1/exp(x)",
        "(1 + x)/(1 + x)", "x^2*x^3",
    ])
    def test_numeric_equivalence(self, src):
        e = parse(src)
        s = simplify(e)
        assert max_deviation(e, s, {"x": (0.5, 2.0), "y": (0.5, 2.0)}, 50) <= 1e-12

    @pytest.mark.parametrize("src", [
        "0*x + y", "exp(ln(x))", "cosh(x)^2 - sinh(x)^2", "sqrt(x^2)",
        "(x^2)^3*exp(x)/exp(x)", "x - -2*y",
    ])
    def test_idempotent(self, src):
        s = simplify(parse(src))
        assert simplify(s) == s

    def test_sqrt_square_with_sign(self):
        assert simplify(parse("sqrt(x^2)"), ["x>0"]) == var("x")
        assert simplify(parse("sqrt(x^2)")) == func("abs", var("x"))

    def test_memo_respects_assumptions(self):
        # one process, alternating order: a memo keyed on the node alone
        # would hand one table's answer to the next
        root = parse("sqrt(x^2)")
        wants = {(): func("abs", var("x")), ("x>0",): var("x"), ("x<0",): -var("x")}
        for asm in [(), ("x>0",), ("x<0",), (), ("x<0",), ("x>0",), ()]:
            assert simplify(root, asm) == wants[asm], asm
        dist = parse("abs(x-1)")
        for asm, want in [("x-1>0", 1.0), ("x-1<0", -1.0), ("x-1>0", 1.0), ("x-1<0", -1.0)]:
            assert diff(dist, "x", [asm]) == const(want), asm


class TestHashContract:
    def test_hash_of_the_fields(self):
        e = parse("exp(-x^2/2)*sn(t, 0.5) + 3")
        for n in (e, e.args[0], e.args[1], var("x")):
            assert hash(n) == hash((n.kind, n.value, n.name, n.args, n.data))

    def test_separate_builds_are_equal(self):
        def build():
            return func("exp", -var("x") ** 2 / 2) * func("sn", var("t"), const(0.5)) + 3
        a, b = build(), build()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert parse("exp(x)*sn(t, 0.5)") == parse("exp(x)*sn(t, 0.5)")

    def test_one_leaf_apart_is_unequal(self):
        a = parse("exp(-x^2/2)*sn(t, 0.5) + 3")
        for src in ("exp(-x^2/2)*sn(t, 0.25) + 3", "exp(-y^2/2)*sn(t, 0.5) + 3",
                    "exp(-x^2/2)*cn(t, 0.5) + 3"):
            assert a != parse(src)

    def test_interp_nodes_hash(self):
        from rdsym.transforms import _hermite

        def table():
            return _hermite([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], [0.0, 2.0, 4.0],
                            [2.0, 2.0, 2.0])
        a, b = table(), table()
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert diff(a, "x") != a

    def test_repr_of_a_table_never_raises(self):
        from rdsym.transforms import _hermite

        table = _hermite([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], [0.0, 2.0, 4.0],
                         [2.0, 2.0, 2.0])
        assert repr(table) == repr(const(2) * table) == "Expr(<tabulated>)"
        assert repr(parse("x + 1")) == "Expr('x + 1')"

    def test_signed_zero(self):
        assert const(0.0) == const(-0.0)
        assert hash(const(0.0)) == hash(const(-0.0))

    def test_slots(self):
        assert not hasattr(parse("x + 1"), "__dict__")

    def test_pickle_rebuilds_the_hash(self):
        # string hashes differ between interpreters: an unpickled node must
        # hash by the fields it has there, not carry the sender's hash
        code = ("import pickle, sys; e = pickle.loads(sys.stdin.buffer.read()); "
                "assert hash(e) == hash((e.kind, e.value, e.name, e.args, e.data))")
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       input=pickle.dumps(parse("exp(x)*sn(t, 0.5) + y")))


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("x^2"), {"x": 3}) == 9.0

    @pytest.mark.parametrize("src", [
        "2^(1000*x)",                                       # overflows
        "(0 - x)^(x*10^200*10^200 - x*10^200*10^200)",      # nan exponent when compiled
    ])
    def test_out_of_range_power_is_a_domain_error(self, src):
        e = parse(src)
        with pytest.raises(EvalDomainError):
            evaluate(e, {"x": 1.5})
        with pytest.raises(EvalDomainError):
            compile_expr(e, ("x",))((1.5,))

    def test_odd_function_at_zero(self):
        assert evaluate(parse("tanh(x)"), {"x": 0}) == 0.0

    def test_domain_errors(self):
        for src, pt in [("ln(x)", {"x": -1.0}), ("sqrt(x)", {"x": -1.0}),
                        ("1/x", {"x": 0.0}), ("x^0.5", {"x": -2.0}),
                        ("ds(x, 0.5)", {"x": 0.0})]:
            with pytest.raises(EvalDomainError):
                evaluate(parse(src), pt)

    def test_negative_base_integer_power(self):
        assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0

    def test_missing_binding(self):
        with pytest.raises(Exception, match="binding"):
            evaluate(parse("x + y"), {"x": 1.0})

    def test_compile_matches_evaluate(self):
        e = parse("exp(sin(x))*whitM(0.3, 0.25, x) + x^2/tan(x)")
        f = compile_expr(e, ("x",))
        for xv in (0.4, 0.9, 1.7, 2.3):
            assert abs(f((xv,)) - evaluate(e, {"x": xv})) < 1e-14


class TestSharedSubtrees:
    def test_repeated_whittaker_is_computed_once_per_point(self, monkeypatch):
        calls = []
        real = special.whittaker_m

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(special, "whittaker_m", counted)
        w = "whitM(0.3, 0.25, 0.7*x^2)"
        e = parse(f"{w}^2/x - (x + 1)*{w} + exp({w})*{w}")
        f = compile_expr(e, ("x",))
        points = halton_scaled([(0.5, 2.5)], 32)
        values = [f(p) for p in points]
        assert len(calls) == 32
        assert values == [evaluate(e, {"x": p[0]}) for p in points]

    def test_a_point_that_raises_keeps_no_value(self):
        # sqrt(x - 1) occurs twice; it raises at x = 0.5
        e = parse("sqrt(x - 1) + 1/sqrt(x - 1)")
        f = compile_expr(e, ("x",))
        assert f((2.0,)) == evaluate(e, {"x": 2.0})
        bad = (0.5,)
        for _ in range(2):
            with pytest.raises(EvalDomainError):
                f(bad)
        assert f((5.0,)) == evaluate(e, {"x": 5.0})


class TestNumEqual:
    def test_pythagorean(self):
        assert num_equal(parse("sin(x)^2 + cos(x)^2"), const(1),
                         {"x": (-3, 3)}, 64, 1e-10)

    def test_whittaker_closed_form(self):
        assert num_equal(parse("whitM(-0.5, 0, z)"), parse("exp(z/2)*sqrt(z)"),
                         {"z": (0.1, 10)}, 64, 1e-9)

    def test_detects_difference(self):
        assert not num_equal(parse("x"), parse("x + 0.001"), BOX, 64, 1e-9)

    def test_all_points_invalid(self):
        with pytest.raises(EvalDomainError):
            max_deviation(parse("ln(x)"), const(0), {"x": (-2.0, -1.0)}, 16)


def test_finite_difference_sweep_composite():
    # one composite expression touching many node kinds, 32 sample points
    from rdsym.sampling import halton_scaled

    e = parse("exp(sin(x))*tanh(x) + sqrt(x)*ln(1 + x^2) - erf(x)/cosh(x)")
    d = diff(e, "x")
    for (xv,) in halton_scaled([(0.4, 2.4)], 32):
        val = evaluate(d, {"x": xv})
        num = central_diff(e, "x", {"x": xv})
        assert abs(val - num) <= 1e-6 * (1 + abs(val))


def test_parameter_nodes():
    from rdsym.expr import param

    e = param("m") * var("x")
    assert diff(e, "x") == param("m")
    assert diff(e, "m") == const(0.0)   # parameters are never differentiated
    assert evaluate(e, {"m": 3.0, "x": 2.0}) == 6.0
    assert free_variables(e) == {"m", "x"}


class TestSampleResidual:
    PTS = [(float(i),) for i in range(10)]

    def test_worst_point_and_counts(self):
        r = sample_residual([parse("x"), const(-1)], ("x",), self.PTS)
        assert (r.max_rel, r.worst_point, r.max_abs) == (1.0, (0.0,), 8.0)
        assert (r.attempted, r.valid) == (10, 10)

    @pytest.mark.parametrize("term,guard,raises", [
        ("sqrt(x - 1.5)", None, False),   # 2 of 10 points skipped: at the budget
        ("sqrt(x - 2.5)", None, True),
        ("x", lambda: ([var("x")], 2.0), False),   # skip where the guard x < 2
        ("x", lambda: ([var("x")], 3.0), True),
    ])
    def test_skip_budget(self, term, guard, raises):
        guards, guard_min = guard() if guard else ((), 0.0)
        if raises:
            with pytest.raises(EvalDomainError, match="3/10 sample points skipped"):
                sample_residual([parse(term)], ("x",), self.PTS, guards, guard_min)
        else:
            r = sample_residual([parse(term)], ("x",), self.PTS, guards, guard_min)
            assert (r.attempted, r.valid) == (10, 8)
            assert (r.domain_skips, r.guard_skips) == ((0, 2) if guard else (2, 0))

    def test_skip_reasons_are_counted_apart(self):
        # the term fails at x = 9, the guard is below its minimum at x = 0
        r = sample_residual([parse("1/(x - 9)")], ("x",), self.PTS, [var("x")], 0.5)
        assert (r.attempted, r.valid, r.domain_skips, r.guard_skips) == (10, 8, 1, 1)
        # below the guard, a failing term does not count as a domain error
        r = sample_residual([parse("1/x")], ("x",), self.PTS, [var("x")], 0.5)
        assert (r.domain_skips, r.guard_skips) == (0, 1)

    def test_guard_that_raises_is_a_domain_skip(self):
        r = sample_residual([parse("x")], ("x",), self.PTS, [parse("ln(x)")], -1.0)
        assert (r.domain_skips, r.guard_skips) == (1, 0)
