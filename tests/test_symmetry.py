import pytest

from rdsym import tables
from rdsym.expr import const, num_equal, parse, simplify, substitute, var
from rdsym.model import EquivParams, ImagedEquation, Interval, RDEquation, VectorField
from rdsym.symmetry import (
    JetPoint,
    commutator,
    conditional_residual,
    lie_residual,
    prolong2,
    verify_algebra_closure,
    verify_lie,
    verify_nonclassical,
)
from rdsym.transforms import apply_equiv

M = 3.0
DOM = Interval(0.5, 2.5)
JP = JetPoint(t=0.8, x=1.3, u=0.9, u_x=1.1, u_xx=0.7, u_xxx=1.4)


class TestProlong:
    def test_time_translation_trivial(self):
        pr = prolong2(VectorField(const(1), const(0), const(0), "u"))
        assert pr.eta_t == const(0)
        assert pr.eta_x == const(0)
        assert pr.eta_xx == const(0)

    def test_dilation_first_coefficient(self):
        # Q = x d_x: eta^x = -u_x
        pr = prolong2(VectorField(const(0), var("x"), const(0), "u"))
        assert num_equal(pr.eta_x, -var("u_x"),
                         {"u_x": (0.5, 2.0)}, 16, 1e-12)

    def test_scaling_prolongation_by_hand(self):
        # Q = u d_u prolongs to u_t d_{u_t} + ... with unit coefficients
        pr = prolong2(VectorField(const(0), const(0), var("u"), "u"))
        box = {"u_t": (0.5, 2), "u_x": (0.5, 2), "u_xx": (0.5, 2),
               "u_tx": (0.5, 2)}
        assert num_equal(pr.eta_t, var("u_t"), box, 16, 1e-12)
        assert num_equal(pr.eta_x, var("u_x"), box, 16, 1e-12)
        assert num_equal(pr.eta_xx, var("u_xx"), box, 16, 1e-12)


class TestLieResidual:
    def test_time_translation_exact_zero(self):
        eq, _ = tables.build_imaged(3, {"delta": 1.0, "k": 1.0, "a2": 0.5}, M)
        q = VectorField(const(1), const(0), const(0), "v")
        assert lie_residual(eq, q, JP) == 0.0

    def test_scaling_operator(self):
        eq, ops = tables.build_imaged(2, {"delta": 1.0, "q": 0.0}, M)
        assert abs(lie_residual(eq, ops[2], JP)) <= 1e-10

    def test_translation_fails_on_variable_source(self):
        eq = ImagedEquation(const(0), parse("exp(x)"), M, DOM)
        q = VectorField(const(0), const(1), const(0), "v")
        assert abs(lie_residual(eq, q, JP)) > 1e-3


T1_CASES = [
    (1, {"delta": -1.0, "q": 0.7, "a1": 0.4}),
    (2, {"delta": 1.0, "q": -0.8}),
    (3, {"delta": 1.0, "k": 1.3, "a2": 0.2}),
    (4, {"delta": -1.0, "k": 0.6, "p": 0.9, "a2": -0.7}),
    (5, {"delta": 1.0, "p": 0.8, "a3": 0.3}),
    (6, {"delta": 1.0, "p": 0.5}),
]

T2_CASES = [
    (1, {"delta": 1.0, "q": 0.9, "b1": 0.5}),
    (2, {"delta": -1.0, "q": 1.1}),
    (3, {"delta": 1.0, "k": 0.8, "b2": -2.0}),
    (4, {"delta": 1.0, "k": 1.2, "p": 0.6, "b2": 0.9}),
    (5, {"delta": -1.0, "p": 0.7, "b3": 2.0}),
    (6, {"delta": 1.0, "p": 0.4}),
]

T3_CASES = [
    ("1.1", {"delta": 1.0, "q": 1.0}),
    ("1.2", {"delta": -1.0, "q": 0.8}),
    ("1.3", {"delta": 1.0, "r": 2.0}),
    ("2.1", {"delta": -1.0}),
    ("2.2", {"delta": 1.0}),
    ("3.1", {"delta": 1.0, "lam": 1.4, "gam": 2.2}),
    ("3.2", {"delta": -1.0, "rho": 0.9, "l": 1.5}),
    ("4", {"delta": 1.0, "p": 0.9, "s": 0.5, "a2": 0.2}),
    ("5", {"delta": 1.0, "p": 0.7, "a3": 0.6}),
    ("6", {"delta": -1.0, "p": 0.6}),
]


class TestVerifyLie:
    def test_report_counts_attempted_and_evaluated_points(self):
        # v^2.5 is undefined where v < 0, a few of the 64 jet points
        eq = ImagedEquation(const(0), const(-28 / 9), 2.5, Interval(0.5, 2.0))
        q = VectorField(parse("2*t"), parse("x"), parse("-4/3*v"), "v")
        rep = verify_lie(eq, q, n=64, box={"u": (-0.1, 2.0)})
        assert rep.passed and rep.attempted == 64 and 0 < 64 - rep.samples <= 12
        assert rep.as_dict()["attempted"] == 64

    @pytest.mark.parametrize("row,params", T1_CASES)
    def test_imaged_rows(self, row, params):
        eq, ops = tables.build_imaged(row, params, M)
        for q in ops:
            rep = verify_lie(eq, q, n=48)
            assert rep.passed, (row, rep.max_residual)

    @pytest.mark.parametrize("row,params", T2_CASES)
    def test_double_rows(self, row, params):
        eq, ops = tables.build_double(row, params)
        for q in ops:
            assert verify_lie(eq, q, n=48).passed

    @pytest.mark.parametrize("case,params", T3_CASES)
    def test_initial_rows(self, case, params):
        eq, ops = tables.build_initial(case, params, M)
        for q in ops:
            assert verify_lie(eq, q, n=48).passed

    def test_perturbed_operator_fails(self):
        # perturbations outside the algebra: x d_x alone is not a symmetry
        eq, ops = tables.build_imaged(2, {"delta": 1.0, "q": 0.0}, M)
        bad = VectorField(ops[2].tau, simplify(ops[2].xi + const(0.01) * var("x")),
                          ops[2].eta, "v")
        rep = verify_lie(eq, bad, n=48)
        assert not rep.passed
        assert rep.worst_point is not None

    def test_constant_drift_perturbation_fails_off_kernel(self):
        # on a genuinely x-dependent source, even a constant xi shift fails
        eq, ops = tables.build_imaged(2, {"delta": 1.0, "q": 1.0}, M)
        bad = VectorField(ops[2].tau, simplify(ops[2].xi + const(0.01)),
                          ops[2].eta, "v")
        assert not verify_lie(eq, bad, n=48).passed

    def test_equivalence_invariance(self):
        # verified operators stay verified after a scaling group element
        eq, ops = tables.build_imaged(2, {"delta": 1.0, "q": 0.0}, M)
        d1, d2, d3, d4 = 1.4, 0.2, 0.5, 0.8
        new, tr = apply_equiv(eq, EquivParams(delta=(1, d1, d2, d3, d4, 0)),
                              "imaged")
        for q in ops:
            # push the operator through the affine scaling map by hand
            tau = simplify(substitute(q.tau, {"t": (var("t") - const(d2)) / const(d1 ** 2),
                                              "x": (var("x") - const(d3)) / const(d1)})
                           * const(d1 ** 2))
            xi = simplify(substitute(q.xi, {"t": (var("t") - const(d2)) / const(d1 ** 2),
                                            "x": (var("x") - const(d3)) / const(d1)})
                          * const(d1))
            eta = simplify(substitute(q.eta,
                                      {"t": (var("t") - const(d2)) / const(d1 ** 2),
                                       "x": (var("x") - const(d3)) / const(d1),
                                       "v": var("v") / const(d4)}) * const(d4))
            assert verify_lie(new, VectorField(tau, xi, eta, "v"), n=48).passed


class TestNonclassical:
    def test_lie_subset(self):
        eq = tables.cubic_source_equation(-1.0, 0.0)
        q = VectorField(const(1), const(0), const(0), "v")
        assert verify_nonclassical(eq, q, n=32).passed

    def test_radial_operator_residual(self):
        eq = tables.cubic_source_equation(1.0, 0.0)
        tag, q = tables.cubic_reduction_operators(1.0, 0.0)[0]
        jp = JetPoint(t=0.7, x=1.2, u=0.8, u_x=1.1, u_xx=0.0)
        assert abs(conditional_residual(eq, q, jp)) <= 1e-9

    @pytest.mark.parametrize("delta,eps", [
        (-1.0, 0.0), (1.0, 0.0), (-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0),
    ])
    def test_constant_coefficient_operators(self, delta, eps):
        eq = tables.cubic_source_equation(delta, eps)
        ops = tables.cubic_reduction_operators(delta, eps)
        assert ops
        for tag, q in ops:
            rep = verify_nonclassical(eq, q, n=48)
            assert rep.passed, (tag, rep.max_residual)

    @pytest.mark.parametrize("family,params", [
        ("linear", {"c1": 0.8, "c2": 1.0, "eps": 0.0, "delta": -1.0}),
        ("trig", {"c1": 0.5, "c2": 1.0, "eps": 1.0, "delta": -1.0}),
        ("hyperbolic", {"c1": 0.3, "c2": 1.0, "eps": -1.0, "delta": -1.0}),
    ])
    def test_variable_coefficient_operators(self, family, params):
        eq = tables.t4_equation(family, params)
        for tag, q in tables.t4_operators(family, params):
            rep = verify_nonclassical(eq, q, n=48)
            assert rep.passed, (family, tag, rep.max_residual)

    def test_mismatched_operator_fails(self):
        # a cos^2-coefficient m=2 equation with an unrelated operator
        f = simplify(parse("cos(x)^2"))
        eq = RDEquation(f, f, simplify(parse("exp(x)*cos(x)^3")), 2.0,
                        Interval(0.1, 1.2))
        q = VectorField(const(1), parse("-3/x"), parse("-3*u/x^2"), "u")
        assert not verify_nonclassical(eq, q, n=32).passed

    def test_multiplier_equivalence(self):
        # scaling a reduction operator by a nonvanishing lambda(t,x,u)
        # preserves the verdict
        eq = tables.cubic_source_equation(-1.0, 1.0)
        tag, q = tables.cubic_reduction_operators(-1.0, 1.0)[2]
        lam = simplify(parse("1 + t^2 + x^2") * parse("v") ** 2 + const(1))
        scaled = VectorField(simplify(lam * q.tau), simplify(lam * q.xi),
                             simplify(lam * q.eta), "v")
        # tau is no longer 1; renormalize by the multiplier to keep tau=1
        renorm = VectorField(const(1), simplify(scaled.xi / lam),
                             simplify(scaled.eta / lam), "v")
        assert verify_nonclassical(eq, renorm, n=32).passed

    def test_tau_must_be_one(self):
        eq = tables.cubic_source_equation(-1.0, 0.0)
        q = VectorField(const(2), const(0), const(0), "v")
        with pytest.raises(ValueError):
            verify_nonclassical(eq, q, n=8)


class TestAlgebra:
    def basis(self):
        _, ops = tables.build_imaged(2, {"delta": 1.0, "q": 0.0}, M)
        return list(ops)

    def test_commutation_relations(self):
        X1, X2, X3 = self.basis()
        c13 = commutator(X1, X3)
        assert c13.tau == const(2) and c13.xi == const(0) and c13.eta == const(0)
        c23 = commutator(X2, X3)
        assert c23.xi == const(1) and c23.tau == const(0)
        c12 = commutator(X1, X2)
        assert c12.tau == const(0) and c12.xi == const(0) and c12.eta == const(0)

    def test_antisymmetry(self):
        X1, X2, X3 = self.basis()
        a = commutator(X2, X3)
        b = commutator(X3, X2)
        box = {"t": (0.5, 2), "x": (0.5, 2), "v": (0.5, 2)}
        for ca, cb in ((a.tau, b.tau), (a.xi, b.xi), (a.eta, b.eta)):
            assert num_equal(ca, -cb, box, 16, 1e-12)

    def test_self_bracket_vanishes(self):
        _, ops = tables.build_imaged(4, {"delta": 1.0, "k": 0.5, "p": 0.7,
                                         "a2": 0.1}, M)
        c = commutator(ops[1], ops[1])
        box = {"t": (0.5, 2), "x": (0.5, 2), "v": (0.5, 2)}
        for comp in (c.tau, c.xi, c.eta):
            assert num_equal(comp, const(0), box, 16, 1e-12)

    def test_jacobi_identity(self):
        # random polynomial-coefficient fields
        q1 = VectorField(parse("t"), parse("x^2"), parse("u*x"), "u")
        q2 = VectorField(parse("x"), parse("t*u"), parse("u^2"), "u")
        q3 = VectorField(parse("1"), parse("t + x"), parse("t*u"), "u")
        total = None
        for a, b, c in ((q1, q2, q3), (q2, q3, q1), (q3, q1, q2)):
            term = commutator(a, commutator(b, c))
            total = term if total is None else VectorField(
                simplify(total.tau + term.tau), simplify(total.xi + term.xi),
                simplify(total.eta + term.eta), "u")
        box = {"t": (0.5, 2), "x": (0.5, 2), "u": (0.5, 2)}
        for comp in (total.tau, total.xi, total.eta):
            assert num_equal(comp, const(0), box, 32, 1e-10)

    def test_closure_constants(self):
        rep = verify_algebra_closure(self.basis())
        assert rep["closed"]
        assert abs(rep["constants"][0][2][0] - 2.0) <= 1e-10   # [X1,X3] = 2 X1
        assert abs(rep["constants"][1][2][1] - 1.0) <= 1e-10   # [X2,X3] = X2
        assert rep["max_residual"] <= 1e-10

    def test_singleton_closure(self):
        rep = verify_algebra_closure([VectorField(const(1), const(0), const(0), "v")])
        assert rep["closed"] and rep["constants"] == [[[0.0]]]

    def test_sl2_type_algebra(self):
        t = var("t")
        basis = [VectorField(const(1), const(0), const(0), "u"),
                 VectorField(t, const(0), const(0), "u"),
                 VectorField(t * t, const(0), const(0), "u")]
        rep = verify_algebra_closure(basis)
        assert rep["closed"]
        # [d_t, t d_t] = d_t ; [d_t, t^2 d_t] = 2 t d_t ; [t d_t, t^2 d_t] = t^2 d_t
        assert abs(rep["constants"][0][1][0] - 1.0) < 1e-10
        assert abs(rep["constants"][0][2][1] - 2.0) < 1e-10
        assert abs(rep["constants"][1][2][2] - 1.0) < 1e-10

    def test_non_closure_reported(self):
        basis = [VectorField(const(1), const(0), const(0), "u"),
                 VectorField(parse("exp(t)"), parse("x^2"), const(0), "u")]
        rep = verify_algebra_closure(basis)
        assert not rep["closed"]
        assert rep["failures"]
