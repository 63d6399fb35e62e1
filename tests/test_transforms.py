import math
from dataclasses import replace

import pytest

from rdsym import tables, transforms
from rdsym.classify import classify_double_imaged
from rdsym.expr import (
    EvalDomainError,
    compile_expr,
    const,
    evaluate,
    evaluate_points,
    max_deviation,
    num_equal,
    parse,
    simplify,
    var,
)
from rdsym.model import (
    IDENTITY,
    EquivParams,
    ImagedEquation,
    Interval,
    PointTransformation,
    RDEquation,
    ValidationError,
    VectorField,
)
from rdsym.sampling import halton_scaled
from rdsym.transforms import (
    ADDITIONAL_MAPS,
    UnsupportedBranch,
    _match_template,
    antiderivative,
    apply_additional,
    apply_equiv,
    gauge_fg,
    imaged_image_elements,
    imaged_preimage,
    invert_monotone,
    map_residual_check,
    preimage_ode_residual,
    psi_from_constants,
    pullback_operators,
    pushforward_solution,
    to_double_imaged,
    to_imaged,
)
from rdsym.symmetry import verify_lie

M = 3.0
DOM = Interval(0.5, 2.5)


def box_of(eq):
    return {"x": (eq.domain.lo, eq.domain.hi)}


def assert_round_trip(tr, domain, t_range=(0.1, 0.8), dep_range=(0.5, 2.0),
                      n=32, tol=1e-12):
    """inverse(forward(p)) = p to `tol` relative at n Halton points of
    t_range x domain x dep_range."""
    forward = [compile_expr(e, ("t", "x", tr.dep)) for e in (tr.T, tr.X, tr.V)]
    inverse = [compile_expr(e, ("t", "x", tr.new_dep))
               for e in (tr.inv_T, tr.inv_X, tr.inv_V)]
    for p in halton_scaled([t_range, (domain.lo, domain.hi), dep_range], n):
        image = tuple(f(p) for f in forward)
        for want, got in zip(p, (f(image) for f in inverse)):
            assert abs(got - want) <= tol * max(1.0, abs(want)), (p, want, got)


class TestGauge:
    def test_already_gauged_is_identity(self):
        eq = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), M, DOM)
        new, tr = gauge_fg(eq, 1.0)
        assert new.f == eq.f and new.h == eq.h
        assert "identity" in tr.law

    def test_exponential_ratio(self):
        eq = RDEquation(parse("exp(x)"), parse("exp(-x)"), parse("x^2 + 1"), M,
                        Interval(0.2, 1.5))
        new, tr = gauge_fg(eq, 0.0)
        # x' = e^x - 1, f' = g' = 1
        assert num_equal(tr.X, parse("exp(x) - 1"), box_of(eq), 48, 1e-12)
        assert num_equal(new.f, const(1), box_of(new), 48, 1e-9)
        assert map_residual_check(eq, new, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_sign_flip_reverses_time(self):
        eq = RDEquation(parse("exp(x)"), parse("-exp(-x)"), parse("x^2 + 1"), M,
                        Interval(0.2, 1.5))
        new, tr = gauge_fg(eq, 0.0)
        assert evaluate(tr.T, {"t": 1.0}) == -1.0
        assert new.sign_f() == -1
        assert map_residual_check(eq, new, tr, n=48).passed

    def test_numeric_fallback(self):
        eq = RDEquation(parse("1 + x^2"), const(1), const(1), M, Interval(0.3, 1.8))
        new, tr = gauge_fg(eq, 1.0)
        rep = map_residual_check(eq, new, tr, n=64, tol=1e-7)
        assert rep.passed, rep.max_residual
        assert_round_trip(tr, eq.domain)
        # the table against int_1^x sqrt(1 + y^2) dy, with the antiderivative
        # [y sqrt(1 + y^2) + asinh y]/2, at the knots and between them
        assert tr.X.kind == "interp"
        knots = tr.X.data[0]
        xs = [*knots, *(0.5 * (a + b) for a, b in zip(knots, knots[1:]))]
        (got,), ok = evaluate_points([tr.X], ("x",), xs)
        anti = [0.5 * (y * math.sqrt(1 + y * y) + math.asinh(y)) for y in (1.0, *xs)]
        assert ok.all()
        assert max(abs(g - (1.0 + a - anti[0])) for g, a in zip(got, anti[1:])) <= 1e-13

    def test_unresolved_quadrature_raises(self, monkeypatch):
        # 1/sqrt(x - 0.499) varies too fast near x = 0.5 for 128 knot
        # intervals: the two Gauss-Legendre orders disagree by 2.5e-7 (a
        # table built from it failed map_residual_check at 4.2e-4)
        calls = []
        quadrature = transforms._quadrature_map
        monkeypatch.setattr(transforms, "_quadrature_map",
                            lambda *args: calls.append(args) or quadrature(*args))
        eq = RDEquation(const(1), parse("x - 0.499"), const(1), M, Interval(0.5, 2.0))
        with pytest.raises(ValidationError, match="quadrature error estimate"):
            gauge_fg(eq, 1.0)
        assert len(calls) == 1   # the input reaches the quadrature branch

    def test_sign_fixed_by_the_domain(self):
        # sqrt(f/g) = sqrt(x^2) is x on x > 0, which the rule table integrates
        eq = RDEquation(parse("x^2"), const(1), parse("x^4"), 2.0, Interval(0.5, 2.0))
        new, tr = gauge_fg(eq, 1.0)
        assert map_residual_check(eq, new, tr, n=64).passed
        bad = replace(tr, V=tr.V * (1 + 0.01 * var("x")))
        assert not map_residual_check(eq, new, bad, n=64).passed

    @pytest.mark.parametrize("g,want", [("1", "t"), ("-1", "-t")])
    def test_time_map_is_simplified(self, g, want):
        eq = RDEquation(parse("x^2"), parse(g), parse("x^4"), 2.0, Interval(0.5, 2.0))
        _, tr = gauge_fg(eq, 1.0)
        assert tr.T == tr.inv_T == simplify(parse(want))

    def test_rule_table(self):
        assert antiderivative(parse("exp(2*x)")) is not None
        assert antiderivative(parse("x^3")) is not None
        assert simplify(antiderivative(parse("1/x"))) == parse("ln(x)")
        assert antiderivative(parse("cos(2*x)")) is not None
        assert antiderivative(parse("tan(x)")) is None

    def test_invert_monotone(self):
        inv = invert_monotone(parse("2*exp(x) - 1"))
        assert inv is not None
        assert abs(evaluate(inv, {"x": 2 * math.e - 1}) - 1.0) < 1e-12
        assert invert_monotone(parse("sin(x)")) is None


class TestToImaged:
    def test_cosh_coefficients(self):
        eq = RDEquation(parse("cosh(x)^2"), parse("cosh(x)^2"), parse("cosh(x)^4"),
                        M, DOM)
        img, tr = to_imaged(eq)
        assert num_equal(img.F, const(-1), box_of(eq), 64, 1e-9)
        assert num_equal(img.H, const(1), box_of(eq), 64, 1e-9)
        assert map_residual_check(eq, img, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_trivial(self):
        eq = RDEquation(const(1), const(1), const(1), M, DOM)
        img, _ = to_imaged(eq)
        assert img.F == const(0) and img.H == const(1)

    def test_exponential(self):
        eq = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), M, DOM)
        img, _ = to_imaged(eq)
        assert num_equal(img.F, const(-0.25), box_of(eq), 64, 1e-9)
        assert num_equal(img.H, parse("exp(-x)"), box_of(eq), 64, 1e-9)

    def test_requires_gauge(self):
        eq = RDEquation(parse("exp(x)"), const(1), const(1), M, DOM)
        with pytest.raises(ValidationError):
            to_imaged(eq)

    @pytest.mark.parametrize("family,c1,eps", [
        ("linear", 0.8, 0.0), ("trig", 0.5, 1.0), ("hyperbolic", 0.3, -1.0)])
    @pytest.mark.parametrize("delta", [-1.0, 1.0])
    def test_t4_equations(self, family, c1, eps, delta):
        # f = zeta^2 with zeta'' = -eps zeta maps onto v_t = v_xx + delta v^3 + eps v
        eq = tables.t4_equation(family, {"c1": c1, "c2": 1.0, "eps": eps, "delta": delta})
        img, tr = to_imaged(eq)
        assert num_equal(img.F, const(eps), box_of(eq), 64, 1e-9)
        assert num_equal(img.H, const(delta), box_of(eq), 64, 1e-9)
        assert map_residual_check(eq, img, tr, n=48).passed

    def test_t4_zeta_must_keep_its_sign(self):
        # zeta = 0.5 sin x + cos x vanishes at x = 2.03, a double zero of f
        pr = {"c1": 0.5, "c2": 1.0, "eps": 1.0, "delta": -1.0}
        with pytest.raises(ValidationError, match="zeta"):
            tables.t4_equation("trig", pr, DOM)


class TestToDoubleImaged:
    def test_zero_is_fixed(self):
        eq = ImagedEquation(const(0), const(1), 2.0, DOM)
        dbl, _ = to_double_imaged(eq)
        assert dbl.G == const(0) and dbl.H == const(1)

    def test_power_example(self):
        eq = ImagedEquation(parse("2*x^-2"), parse("x^0"), 2.0, DOM)
        dbl, _ = to_double_imaged(eq)
        assert num_equal(dbl.G, parse("-7*x^-4"), box_of(eq), 64, 1e-9)

    def test_exponential_row(self):
        q, d = 1.3, -1.0
        eq, _ = tables.build_imaged(2, {"delta": d, "q": q}, 2.0)
        dbl, tr = to_double_imaged(eq)
        want = tables.double_G(2, {"delta": d, "q": q})
        assert num_equal(dbl.G, want, box_of(eq), 64, 1e-8)
        assert map_residual_check(eq, dbl, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_m_must_be_two(self):
        eq = ImagedEquation(const(0), const(1), 3.0, DOM)
        with pytest.raises(ValidationError):
            to_double_imaged(eq)


PREIMAGE_CASES = [
    (1, {"delta": 1.0, "q": 1.0, "a1": 1.0}),
    (1, {"delta": -1.0, "q": 0.5, "a1": -0.25}),
    (2, {"delta": 1.0, "q": 0.0}),
    (3, {"delta": 1.0, "k": 1.3, "a2": 0.2}),
    (3, {"delta": -1.0, "k": 0.5, "a2": 0.8}),
    (4, {"delta": 1.0, "k": 0.6, "p": 0.9, "a2": 0.1}),
    (5, {"delta": 1.0, "p": 0.8, "a3": 0.3}),
    (6, {"delta": -1.0, "p": 0.5}),
]


class TestPreimage:
    @pytest.mark.parametrize("row,params", PREIMAGE_CASES)
    def test_chain_consistency(self, row, params):
        pre = imaged_preimage(row, params, M)
        img, _ = to_imaged(pre)
        box = box_of(pre)
        assert num_equal(img.F, tables.imaged_F(row, params, M), box, 64, 1e-9)
        assert num_equal(img.H, tables.imaged_H(row, params), box, 64, 1e-9)

    @pytest.mark.parametrize("row,params", PREIMAGE_CASES)
    def test_map_check_fails_on_a_perturbed_map(self, row, params):
        pre = imaged_preimage(row, params, M)
        img, tr = to_imaged(pre)
        assert map_residual_check(pre, img, tr, n=64, tol=1e-8).passed
        bad = replace(tr, V=tr.V * (1 + 0.01 * var("x")))
        assert not map_residual_check(pre, img, bad, n=64, tol=1e-8).passed

    @pytest.mark.parametrize("row,params", PREIMAGE_CASES)
    def test_ode_residual(self, row, params):
        pre = imaged_preimage(row, params, M)
        assert preimage_ode_residual(pre, tables.imaged_F(row, params, M)) <= 1e-9

    def test_tabulated_cos_case(self):
        pre = imaged_preimage(1, {"delta": 1.0, "q": 0.7, "a1": 1.0}, M)
        box = box_of(pre)
        assert num_equal(pre.f, parse("cos(x)^2"), box, 48, 1e-12)
        # the cosine factor: (cos x)'' + cos x = 0
        assert preimage_ode_residual(pre, const(1)) <= 1e-12

    def test_constant_case(self):
        pre = imaged_preimage(2, {"delta": 1.0, "q": 0.0}, M)
        assert pre.f == const(1) and pre.h == const(1)

    def test_whittaker_case(self):
        params = {"delta": 1.0, "p": 0.8, "a3": 0.9}
        pre = imaged_preimage(5, params, M, Interval(0.5, 3.0))
        assert preimage_ode_residual(pre, tables.imaged_F(5, params, M)) <= 1e-9

    def test_negative_beta_rejected(self):
        with pytest.raises(UnsupportedBranch):
            imaged_preimage(5, {"delta": 1.0, "p": -0.8, "a3": 0.9}, M)

    def test_oscillatory_branch_rejected(self):
        with pytest.raises(UnsupportedBranch):
            imaged_preimage(4, {"delta": 1.0, "k": 0.0, "p": 0.5, "a2": 0.5}, M)


class TestApplyEquiv:
    def test_identity(self):
        eq, _ = tables.build_imaged(2, {"delta": -1.0, "q": 1.0}, M)
        new, _ = apply_equiv(eq, EquivParams(), "imaged")
        box = box_of(eq)
        assert num_equal(new.F, eq.F, box, 32, 1e-12)
        assert num_equal(new.H, eq.H, box, 32, 1e-12)

    def test_q_gauge(self):
        # delta1=q, delta4=q^(2/(1-m)) normalizes q to 1
        q = 2.0
        eq, _ = tables.build_imaged(2, {"delta": 1.0, "q": q}, M)
        pr = EquivParams(delta=(1, q, 0, 0, q ** (2 / (1 - M)), 0))
        new, tr = apply_equiv(eq, pr, "imaged")
        box = box_of(new)
        assert num_equal(new.H, parse("exp(x)"), box, 64, 1e-9)
        assert num_equal(new.F, tables.imaged_F(2, {"q": 1.0}, M), box, 64, 1e-9)
        assert map_residual_check(eq, new, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_gauged_group_with_psi(self):
        src = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), M,
                         Interval(0.5, 2.0))
        psi = psi_from_constants(parse("exp(x)"), 0.4, 1.3, 0.5)
        new, tr = apply_equiv(src, EquivParams(psi=psi), "gauged")
        assert map_residual_check(src, new, tr, n=48).passed
        assert_round_trip(tr, src.domain)

    def test_kernel_of_homomorphism(self):
        # psi-only elements do not move the imaged elements
        src = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), M,
                         Interval(0.5, 2.0))
        psi = psi_from_constants(parse("exp(x)"), 0.4, 1.3, 0.5)
        new, _ = apply_equiv(src, EquivParams(psi=psi), "gauged")
        a, _ = to_imaged(src)
        b, _ = to_imaged(new)
        box = {"x": (0.6, 1.9)}
        assert num_equal(a.F, b.F, box, 64, 1e-9)
        assert num_equal(a.H, b.H, box, 64, 1e-9)

    def test_homomorphism_image_scale(self):
        # a gauged element maps to the imaged element with
        # delta4 = sqrt|delta0 delta1| sign(psi)
        src = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), M,
                         Interval(0.5, 2.0))
        psi = psi_from_constants(parse("exp(x)"), 0.4, 1.3, 0.5)
        d0, d1 = 2.0, 3.0
        g_new, _ = apply_equiv(src, EquivParams(delta=(d0, d1, 0.0, 0.3, 0, 0),
                                                psi=psi), "gauged")
        img_direct, _ = to_imaged(g_new)
        img_src, _ = to_imaged(src)
        d4 = math.sqrt(abs(d0 * d1))
        img_mapped, _ = apply_equiv(img_src,
                                    EquivParams(delta=(1, d1, 0.0, 0.3, d4, 0)),
                                    "imaged")
        box = {"x": (img_mapped.domain.lo + 0.05, img_mapped.domain.hi - 0.05)}
        assert max_deviation(img_direct.F, img_mapped.F, box, 64) <= 1e-9
        assert max_deviation(img_direct.H, img_mapped.H, box, 64) <= 1e-9

    def test_bad_psi_rejected(self):
        src = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), M,
                         Interval(0.5, 2.0))
        with pytest.raises(ValidationError, match="ODE"):
            apply_equiv(src, EquivParams(psi=parse("sin(x) + 2")), "gauged")

    def test_general_group_with_phi(self):
        eq = RDEquation(parse("1 + x^2"), parse("2 + x"), parse("exp(x)"), M,
                        Interval(0.3, 1.5))
        pr = EquivParams(delta=(1.5, 2.0, 0.5, 2.0, 0, 0), phi=parse("exp(x)"))
        new, tr = apply_equiv(eq, pr, "general")
        assert map_residual_check(eq, new, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_double_group(self):
        eq, _ = tables.build_double(3, {"delta": 1.0, "k": 1.0, "b2": -2.0})
        pr = EquivParams(delta=(1, 1.4, 0.2, -0.3, 0.8, 0))
        new, tr = apply_equiv(eq, pr, "double")
        assert map_residual_check(eq, new, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_m_preserved(self):
        eq, _ = tables.build_imaged(1, {"delta": 1.0, "q": 0.5, "a1": 1.0}, 1.5)
        new, _ = apply_equiv(eq, EquivParams(delta=(1, 2.0, 0.1, 0.3, 1.7, 0)),
                             "imaged")
        assert new.m == eq.m

    def test_imaged_m2_group_with_chi(self):
        eq, _ = tables.build_imaged(2, {"delta": 1.0, "q": 1.0}, 2.0)
        # chi=0 trivially solves chi_xx = H chi^2/d4 - F chi
        new, tr = apply_equiv(eq, EquivParams(delta=(1, 1.2, 0.0, 0.4, 0.7, 0),
                                              chi=const(0)), "imaged-m2")
        assert map_residual_check(eq, new, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_shift_rejected_by_the_imaged_image_law(self):
        # v~ = v + 6/x^2 on v_t = v_xx + v^2 moves F by -2 H chi = -12/x^2,
        # which the imaged-m2 group law carries and the V1-only law cannot
        eq = ImagedEquation(const(0), const(1), 2.0, Interval(0.5, 2.0))
        new, tr = apply_equiv(eq, EquivParams(chi=parse("6*x^-2")), "imaged-m2")
        assert num_equal(new.F, parse("-12*x^-2"), box_of(eq), 48, 1e-9)
        assert map_residual_check(eq, new, tr, n=48).passed
        with pytest.raises(ValidationError, match="imaged-m2"):
            imaged_image_elements(eq, tr)


ADDITIONAL_CASES = [
    ("imaged:1->1", 1, {"delta": 1.0, "q": 0.8, "a1": 0.5}, None),
    ("imaged:2->2", 2, {"delta": -1.0, "q": 1.1}, None),
    ("imaged:4->3", 4, {"delta": 1.0, "k": 0.7, "p": 0.6, "a2": 0.1},
     {"t": (0.1, 0.8)}),
    ("imaged:6->2", 6, {"delta": -1.0, "p": 0.9}, {"t": (0.1, 0.8)}),
]

DOUBLE_CASES = [
    ("double:1->1", 1, {"delta": 1.0, "q": 0.9, "b1": 0.7}, None),
    ("double:2->2", 2, {"delta": -1.0, "q": 1.2}, None),
    ("double:4->3", 4, {"delta": 1.0, "k": 1.0, "p": 0.5, "b2": 0.8},
     {"t": (0.05, 0.4)}),
    ("double:6->2", 6, {"delta": 1.0, "p": 0.7}, {"t": (0.05, 0.4)}),
]

INITIAL_CASES = [
    ("initial:2.2->2.1", "2.2", {"delta": 1.0}, None),
    ("initial:1.2->1.1", "1.2", {"delta": -1.0, "q": 0.8}, None),
    ("initial:1.3->1.1", "1.3", {"delta": 1.0, "r": 5.0}, None),
    ("initial:1.3->1.3", "1.3", {"delta": 1.0, "r": 2.2}, None),
    ("initial:4->3.1", "4", {"delta": 1.0, "p": 0.6, "s": 0.4, "a2": 0.1},
     {"t": (0.1, 0.8)}),
    ("initial:6->2.1", "6", {"delta": 1.0, "p": 0.6}, {"t": (0.1, 0.8)}),
]

# class -> (builder of a row's equation and basis, table operators of a row)
BUILDERS = {
    "imaged": (lambda row, pr: tables.build_imaged(row, pr, M),
               lambda row, pr: tables.imaged_operators(int(row), pr, M)),
    "double": (tables.build_double, lambda row, pr: tables.double_operators(int(row), pr)),
    "initial": (lambda case, pr: tables.build_initial(case, pr, M),
                lambda case, pr: tables.initial_operators(case, pr, M)),
}

# maps that raise UnsupportedBranch and so have no transformation to invert
UNSUPPORTED_MAPS = {"initial:4->3.2"}


class TestAdditionalMaps:
    @pytest.mark.parametrize("which,row,params,tbox", ADDITIONAL_CASES)
    def test_imaged_maps(self, which, row, params, tbox):
        eq, _ = tables.build_imaged(row, params, M)
        am = apply_additional(eq, which, params)
        tgt_row = int(am.target_case.split("/")[1])
        box = {"x": (am.target.domain.lo, am.target.domain.hi)}
        assert num_equal(am.target.F,
                         tables.imaged_F(tgt_row, am.target_params, M),
                         box, 64, 1e-9)
        assert num_equal(am.target.H,
                         tables.imaged_H(tgt_row, am.target_params),
                         box, 64, 1e-9)
        assert map_residual_check(eq, am.target, am.transformation,
                                  n=64, box=tbox).passed
        assert_round_trip(am.transformation, eq.domain)

    @pytest.mark.parametrize("which,row,params,tbox", DOUBLE_CASES)
    def test_double_maps(self, which, row, params, tbox):
        eq, _ = tables.build_double(row, params)
        am = apply_additional(eq, which, params)
        tgt_row = int(am.target_case.split("/")[1])
        box = {"x": (am.target.domain.lo, am.target.domain.hi)}
        assert num_equal(am.target.H,
                         tables.double_H(tgt_row, am.target_params), box, 64, 1e-9)
        assert num_equal(am.target.G,
                         tables.double_G(tgt_row, am.target_params), box, 64, 1e-9)
        assert map_residual_check(eq, am.target, am.transformation,
                                  n=64, box=tbox).passed
        assert_round_trip(am.transformation, eq.domain)

    @pytest.mark.parametrize("which,case,params,tbox", INITIAL_CASES)
    def test_initial_maps(self, which, case, params, tbox):
        eq, _ = tables.build_initial(case, params, M)
        am = apply_additional(eq, which, params)
        tgt_case = am.target_case.split("/")[1]
        box = {"x": (am.target.domain.lo, am.target.domain.hi)}
        f_t, h_t = tables.initial_fh(tgt_case, am.target_params, M)
        assert num_equal(am.target.f, f_t, box, 48, 1e-9)
        assert num_equal(am.target.h, h_t, box, 48, 1e-9)
        assert map_residual_check(eq, am.target, am.transformation,
                                  n=64, box=tbox).passed
        assert_round_trip(am.transformation, eq.domain)

    @pytest.mark.parametrize("which", ADDITIONAL_MAPS)
    def test_every_map_has_a_round_trip_case(self, which):
        covered = {case[0] for case in ADDITIONAL_CASES + DOUBLE_CASES + INITIAL_CASES}
        assert (which in covered) != (which in UNSUPPORTED_MAPS)

    @pytest.mark.parametrize("actual,shape,want", [
        ("2*ln(x + 1)", "ln(x + 1)", 2.0),
        ("2*ln(x - 1)", "ln(x - 1)", None),   # undefined at the samples x <= 1
        ("x^2", "x", None),                   # not a constant multiple
    ])
    def test_template_scale(self, actual, shape, want):
        args = (parse(actual), parse(shape), DOM, "target h scale")
        if want is None:
            with pytest.raises(ValidationError, match="target h scale"):
                _match_template(*args)
        else:
            assert abs(_match_template(*args) - want) <= 1e-12

    def test_alpha_zero_is_identity(self):
        eq, _ = tables.build_imaged(2, {"delta": 1.0, "q": 0.0}, M)
        am = apply_additional(eq, "imaged:2->2", {"delta": 1.0, "q": 0.0})
        box = box_of(eq)
        assert num_equal(am.target.F, eq.F, box, 32, 1e-12)
        assert num_equal(am.target.H, eq.H, box, 32, 1e-12)

    def test_structural_mismatch_rejected(self):
        eq, _ = tables.build_imaged(3, {"delta": 1.0, "k": 1.0, "a2": 0.5}, M)
        with pytest.raises(ValidationError):
            apply_additional(eq, "imaged:2->2", {"delta": 1.0, "q": 1.0})

    @pytest.mark.parametrize("which,row,params,tbox",
                             ADDITIONAL_CASES + DOUBLE_CASES + INITIAL_CASES)
    def test_target_operators_pull_back_to_symmetries(self, which, row, params, tbox):
        # the target row's table operators, pulled back through the map, are
        # symmetries of the source, as many as the source row's basis
        build, operators = BUILDERS[which.split(":")[0]]
        eq, basis = build(row, params)
        am = apply_additional(eq, which, params)
        target_ops = operators(am.target_case.split("/")[1], am.target_params)
        pulled = pullback_operators(target_ops, am.transformation, eq.domain)
        assert len(pulled) == len(basis)
        for q in pulled:
            rep = verify_lie(eq, q, n=64, tol=1e-8, box=tbox)
            assert rep.passed, (which, rep.max_residual)

    def test_oscillatory_initial_map_rejected(self):
        eq, _ = tables.build_initial("4", {"delta": 1.0, "p": 0.6, "s": 0.4,
                                           "a2": 0.1}, M)
        with pytest.raises(UnsupportedBranch):
            apply_additional(eq, "initial:4->3.2",
                             {"delta": 1.0, "p": 0.6, "s": 0.4, "a2": 0.1})


COS_DOM = Interval(0.1, 1.2)


def cos_square_map():
    """v = cos(x) u, the to_imaged map of f = g = cos^2 x on (0.1, 1.2)."""
    f = parse("cos(x)^2")
    return to_imaged(RDEquation(f, f, const(1), M, COS_DOM))[1]


class TestPushforward:
    def test_time_translation_fixed(self):
        q = VectorField(const(1), const(0), const(0), "v")
        (out,) = pullback_operators([q], cos_square_map(), COS_DOM)
        assert out.tau == const(1) and out.xi == const(0)
        assert num_equal(out.eta, const(0), {"x": (0.1, 1.2), "u": (0.5, 2)},
                         16, 1e-12)

    def test_cos_square_drift(self):
        # d_x + alpha v d_v with f=cos^2 x becomes d_x + (alpha + tan x) u d_u
        alpha = -0.4
        q = VectorField(const(0), const(1), const(alpha) * var("v"), "v")
        (out,) = pullback_operators([q], cos_square_map(), COS_DOM)
        want = simplify((const(alpha) + parse("tan(x)")) * var("u"))
        assert num_equal(out.eta, want, {"x": (0.1, 1.2), "u": (0.5, 2.0)},
                         48, 1e-9)

    def test_scaling_operator_via_verifier(self):
        # the imaged scaling maps to a symmetry of the e^x equation
        eq, ops = tables.build_initial("2.2", {"delta": 1.0}, M)
        img_ops = tables.imaged_operators(2, {"delta": 1.0,
                                              "q": (1 - M) / 2}, M)
        (pushed,) = pullback_operators(img_ops[2:], to_imaged(eq)[1], eq.domain)
        assert verify_lie(eq, pushed, n=48).passed

    def test_double_image_operators_pull_back(self):
        # v_t = v_xx + v^2 + 2 x^-2 v; its double image (shift w = v + x^-2)
        # is T2/3, and both T2/3 operators pull back to symmetries of it
        eq = ImagedEquation(parse("2*x^-2"), const(1), 2.0, DOM)
        dbl, tr = to_double_imaged(eq)
        r = classify_double_imaged(dbl)
        assert r.case == "T2/3" and len(r.operators) == 2
        for pulled in pullback_operators(r.operators, tr, eq.domain):
            assert pulled.dep == "v"
            assert verify_lie(eq, pulled, n=64, tol=1e-8).passed

    @pytest.mark.parametrize("new_t,new_x", [("t + x", "x"), ("t*u", "x"), ("t", "x + u")])
    def test_map_must_keep_time_apart(self, new_t, new_x):
        # t~ may depend on t alone and x~ on (t, x) alone
        q = VectorField(const(1), const(0), const(0), "u")
        tr = PointTransformation(parse(new_t), parse(new_x), var("u"))
        with pytest.raises(ValidationError, match="T\\(t\\)"):
            pullback_operators([q], tr, DOM)

    def test_solution_pushforward_identity(self):
        from rdsym.model import IDENTITY

        sol = parse("exp(t)*x^2")
        assert pushforward_solution(sol, IDENTITY) == sol

    def test_solution_pushforward_drift(self):
        # v(t,x) -> e^{-alpha x} v(t, x - 2 alpha t) under the drift map
        from rdsym.transforms import _imaged_drift_map

        alpha = 0.5
        tr = _imaged_drift_map(alpha)
        sol = parse("x^2 + t")
        out = pushforward_solution(sol, tr)
        for t, x in [(0.5, 1.0), (1.5, 2.0)]:
            x_old = x - 2 * alpha * t
            want = math.exp(-alpha * x_old) * (x_old ** 2 + t)
            assert abs(evaluate(out, {"t": t, "x": x}) - want) < 1e-12


class TestM2Groups:
    def test_gauged_m2_group(self):
        # psi from the second-order family also solves the fourth-order ODE
        f = parse("exp(x)")
        eq = RDEquation(f, f, parse("exp(2*x)"), 2.0, Interval(0.5, 2.0))
        psi = psi_from_constants(f, 0.3, 1.2, 0.8)
        new, tr = apply_equiv(eq, EquivParams(delta=(1.5, 1.2, 0.1, -0.2, 0, 0),
                                              psi=psi), "gauged-m2")
        assert new.m == 2.0
        assert map_residual_check(eq, new, tr, n=48).passed
        assert_round_trip(tr, eq.domain)

    def test_gauged_m2_rejects_bad_psi(self):
        f = parse("exp(x)")
        eq = RDEquation(f, f, parse("exp(2*x)"), 2.0, Interval(0.5, 2.0))
        with pytest.raises(ValidationError, match="ODE"):
            apply_equiv(eq, EquivParams(psi=parse("sin(x) + 2")), "gauged-m2")

    def test_general_m2_group(self):
        eq = RDEquation(parse("1 + x^2"), parse("2 + x"), parse("exp(x)"), 2.0,
                        Interval(0.3, 1.5))
        psi = psi_from_constants(parse("2 + x"), 0.4, 1.1, 0.5)
        pr = EquivParams(delta=(1.2, 0.9, 0.3, 0, 0, 0), phi=parse("exp(x)"),
                         psi=psi)
        new, tr = apply_equiv(eq, pr, "general-m2")
        assert map_residual_check(eq, new, tr, n=48, tol=1e-7).passed
        assert_round_trip(tr, eq.domain)

    def test_imaged_m2_rejects_bad_chi(self):
        eq, _ = tables.build_imaged(2, {"delta": 1.0, "q": 1.0}, 2.0)
        with pytest.raises(ValidationError, match="chi"):
            apply_equiv(eq, EquivParams(delta=(1, 1, 0, 0, 1, 0),
                                        chi=parse("x^2")), "imaged-m2")


# v = x^(-4/3) solves v_t = v_xx - 28/9 v^2.5, whose scaling operator is below;
# u^2.5 is undefined on the third of U_PARTLY_NEGATIVE below zero
M25 = ImagedEquation(const(0), const(-28 / 9), 2.5, Interval(0.5, 2.0))
M25_SCALING = VectorField(parse("2*t"), parse("x"), parse("-4/3*v"), "v")
U_PARTLY_NEGATIVE = {"u": (-1.0, 2.0)}


@pytest.mark.parametrize("check", [
    lambda: verify_lie(M25, M25_SCALING, box=U_PARTLY_NEGATIVE),
    lambda: map_residual_check(M25, M25, IDENTITY, box=U_PARTLY_NEGATIVE),
    lambda: num_equal(parse("sqrt(x - 1.25)"), parse("sqrt(x - 1.25)"),
                      {"x": (0.5, 2.0)}, 64, 1e-9),
    lambda: preimage_ode_residual(
        RDEquation(const(1), const(1), const(1), 3.0, Interval(0.5, 2.0)),
        parse("ln(x - 5)")),
], ids=["verify_lie", "map_residual_check", "num_equal", "preimage_ode_residual"])
def test_checks_raise_past_skip_budget(check):
    with pytest.raises(EvalDomainError, match="skipped"):
        check()
