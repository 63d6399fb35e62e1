import pytest

from rdsym import tables
from rdsym.classify import (
    classify,
    classify_admissible,
    classify_double_imaged,
    classify_imaged,
    classify_initial,
)
from rdsym.expr import const, parse
from rdsym.model import (
    AdmissibleForm,
    DoubleImagedEquation,
    EquivParams,
    ImagedEquation,
    Interval,
    RDEquation,
)
from rdsym.sampling import halton_points
from rdsym.symmetry import verify_lie
from rdsym.transforms import apply_equiv

M = 3.0
DOM = Interval(0.5, 2.5)


def params_close(got: dict, want: dict, tol=1e-6) -> bool:
    return all(abs(got.get(k, float("inf")) - v) <= tol * max(1.0, abs(v))
               for k, v in want.items())


class TestImagedExamples:
    def test_exponential_three_operator_case(self):
        eq = ImagedEquation(parse("-0.25"), parse("exp(x)"), 3.0, Interval(0.5, 3.0))
        r = classify_imaged(eq)
        assert r.case == "T1/2"
        assert abs(r.params["q"] - 1.0) < 1e-9
        assert len(r.operators) == 3

    def test_power_case(self):
        eq = ImagedEquation(parse("x^-2"), parse("x^3"), 2.0, Interval(0.5, 3.0))
        r = classify_imaged(eq)
        assert r.case == "T1/3"
        assert params_close(r.params, {"k": 3.0, "a2": 1.0})
        assert len(r.operators) == 2

    def test_kernel_fallback(self):
        eq = ImagedEquation(const(0), parse("1 + x^2"), 3.0, Interval(0.5, 3.0))
        r = classify_imaged(eq)
        assert r.case == "T1/0"
        assert len(r.operators) == 1

    def test_row_boundary_reported_as_adjacent(self):
        # q = a1 = 0 is the row-2 equation with q=0
        eq = ImagedEquation(const(0), const(1), 3.0, DOM)
        r = classify_imaged(eq)
        assert r.case == "T1/2"

    @pytest.mark.parametrize("a2", [-2.0, 0.2, 0.5])
    def test_row3_with_constant_H(self, a2):
        eq, _ = tables.build_imaged(3, {"delta": 1.0, "k": 0.0, "a2": a2}, 3.0)
        r = classify_imaged(eq)
        assert r.case == "T1/3"
        assert params_close(r.params, {"delta": 1.0, "k": 0.0, "a2": a2})
        for q in r.operators:
            assert verify_lie(eq, q, n=64, tol=1e-8).passed

    def test_row3_with_constant_H_shifted(self):
        eq = ImagedEquation(parse("0.5*(x + 0.3)^-2"), const(2), 3.0, DOM)
        r = classify_imaged(eq)
        assert r.case == "T1/3"
        assert params_close(r.params, {"delta": 2.0, "k": 0.0, "a2": 0.5, "nu": 0.3})

    def test_m2_row3_a2_minus_12_through_double_image(self):
        eq, _ = tables.build_imaged(3, {"delta": -1.0, "k": 0.0, "a2": -12.0}, 2.0)
        r = classify_imaged(eq)
        assert (r.case, len(r.operators)) == ("T1/2", 3)
        assert r.params == {"delta": -1.0, "q": 0.0}
        for q in r.operators:
            assert verify_lie(eq, q, n=64, tol=1e-8).passed

    def test_m2_a3_boundary_flagged(self):
        pr = {"delta": 1.0, "p": 0.5, "a3": 5.0}
        eq, _ = tables.build_imaged(5, pr, 2.0)
        r = classify_imaged(eq)
        assert r.case == "T1/5"
        assert any("a3=5" in n for n in r.notes)


T1_SWEEP = [
    (1, {"delta": -1.0, "q": 0.7, "a1": 0.4}),
    (1, {"delta": 2.0, "q": 0.0, "a1": 1.5}),
    (2, {"delta": 1.0, "q": -0.8}),
    (3, {"delta": 1.0, "k": 1.3, "a2": 0.2}),
    (3, {"delta": -0.5, "k": -0.6, "a2": 0.0}),
    (4, {"delta": -1.0, "k": 0.6, "p": 0.9, "a2": -0.7}),
    (4, {"delta": 1.0, "k": 0.0, "p": 0.5, "a2": 0.4}),
    (5, {"delta": 1.0, "p": 0.8, "a3": 0.3}),
    (6, {"delta": 1.0, "p": 0.5}),
]


# classify_initial reports the parameters of the image row under to_imaged
# (v = sqrt|f| u, m = 3); where they differ from the case's own parameters:
IMAGE_PARAMS = {
    # f = e^x, h = e^(r x): H = e^((r - (m+1)/2) x), F = -1/4
    "1.3": {"delta": 1.0, "q": 0.0, "a1": -0.25},
    # f = x^lam, h = x^gam: k = gam - lam (m+1)/2, a2 = lam/2 (1 - lam/2)
    "3.1": {"delta": 1.0, "k": -0.6, "a2": 0.21},
    # f = x cos(rho ln x)^2, h = x^l |cos|^(m+1): k = l - (m+1)/2, a2 = 1/4 + rho^2
    "3.2": {"delta": -1.0, "k": -0.5, "a2": 1.06},
    # f = whitM^2/x, h = x^s e^(p x^2) |whitM|^(m+1): k = s + (m+1)/2
    "4": {"delta": 1.0, "k": 2.5, "p": 0.9, "a2": 0.2},
}


class TestRoundTrips:
    @pytest.mark.parametrize("row,params", T1_SWEEP)
    def test_imaged(self, row, params):
        eq, _ = tables.build_imaged(row, params, M)
        r = classify_imaged(eq)
        assert r.case == f"T1/{row}"
        assert params_close(r.params, params, 1e-6)

    def test_imaged_random_sweep(self):
        # 20 random admissible tuples per row
        for row in tables.T1_ROWS:
            for i, pt in enumerate(halton_points(4, 20)):
                pr = {"delta": 1.0 if pt[0] > 0.5 else -1.0}
                if row in (1, 2):
                    pr["q"] = -1.0 + 2.4 * pt[1]
                if row == 1:
                    pr["a1"] = 0.3 + pt[2]
                if row in (3, 4):
                    pr["k"] = 0.2 + 1.5 * pt[1]
                    pr["a2"] = -0.8 + 1.0 * pt[2]
                if row in (4, 5, 6):
                    pr["p"] = 0.3 + pt[3]
                if row == 5:
                    pr["a3"] = -0.5 + pt[2]
                if tables.t1_constraint_violations(row, pr, M):
                    continue
                eq, _ = tables.build_imaged(row, pr, M)
                r = classify_imaged(eq)
                assert r.case == f"T1/{row}", (row, pr, r.case)
                assert params_close(r.params, pr, 1e-7), (row, pr, r.params)

    @pytest.mark.parametrize("row,params", [
        (1, {"delta": 1.0, "q": 0.9, "b1": 0.5}),
        (2, {"delta": -1.0, "q": 1.1}),
        (3, {"delta": 1.0, "k": 0.8, "b2": -2.0}),
        (3, {"delta": 1.0, "k": 0.0, "b2": 1.5}),
        (4, {"delta": 1.0, "k": 1.2, "p": 0.6, "b2": 0.9}),
        (5, {"delta": -1.0, "p": 0.7, "b3": 2.0}),
        (6, {"delta": 1.0, "p": 0.4}),
    ])
    def test_double(self, row, params):
        eq, _ = tables.build_double(row, params)
        r = classify_double_imaged(eq)
        assert r.case == f"T2/{row}"
        assert params_close(r.params, params, 1e-6)

    @pytest.mark.parametrize("case,params", [
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
    ])
    def test_initial(self, case, params):
        eq, _ = tables.build_initial(case, params, M)
        r = classify_initial(eq)
        assert r.case == f"T3/{case}"
        assert params_close(r.params, IMAGE_PARAMS.get(case, params), 1e-6)
        for q in r.operators:
            assert verify_lie(eq, q, n=64, tol=1e-8).passed

    def test_operator_bases_verify(self):
        for row, params in T1_SWEEP[:6]:
            eq, _ = tables.build_imaged(row, params, M)
            r = classify_imaged(eq)
            for q in r.operators:
                assert verify_lie(eq, q, n=32, tol=1e-8).passed


def classify_verified(eq: RDEquation):
    """classify_initial, with every operator of the result checked by
    verify_lie on the equation."""
    r = classify_initial(eq)
    for q in r.operators:
        rep = verify_lie(eq, q, n=64, tol=1e-8)
        assert rep.passed, (r.case, q, rep.max_residual)
    return r


class TestInitialExamples:
    def test_exponential_source(self):
        eq = RDEquation(const(1), const(1), parse("exp(x)"), 3.0, Interval(0.5, 3.0))
        r = classify_verified(eq)
        assert r.case == "T3/1.1"
        assert len(r.operators) == 2

    def test_power_exclusion_reports_constant_case(self):
        eq = RDEquation(parse("x^2"), parse("x^2"), parse("x^4"), 3.0, DOM)
        r = classify_verified(eq)
        assert r.case == "T3/2.1"
        assert any("to_imaged" in n for n in r.notes)

    def test_exp_exp_three_operators(self):
        eq = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), 3.0, DOM)
        r = classify_verified(eq)
        assert r.case == "T3/2.2"
        assert len(r.operators) == 3

    def test_m2_extra_exclusions(self):
        eq = RDEquation(parse("x^8"), parse("x^8"), parse("x^12"), 2.0,
                        Interval(0.5, 1.8))
        r = classify_verified(eq)
        assert r.case == "T3/2.1"
        assert r.params == {"delta": 1.0, "q": 0.0}
        assert any("to_double_imaged" in n for n in r.notes)

    def test_kernel(self):
        eq = RDEquation(parse("1 + x^2"), parse("1 + x^2"), const(1), 3.0, DOM)
        r = classify_verified(eq)
        assert r.case == "T3/0"

    @pytest.mark.parametrize("f,h,m,lo,hi,case,count", [
        # the image is v_t = v_xx + e^x v^3 (T1/1, a1 = 0 or -1)
        ("x^2", "x^4*exp(x)", 3.0, 0.5, 2.5, "T3/1.1", 2),
        ("(1+x)^2", "(1+x)^4*exp(x)", 3.0, 0.5, 2.5, "T3/1.1", 2),
        ("cosh(x)^2", "cosh(x)^4*exp(x)", 3.0, 0.5, 2.5, "T3/1.3", 2),
        # (lambda, gamma) = (2, m+1) and the m = 2 pairs (8, 12), (-6, -9)
        ("x^2", "x^4", 3.0, 0.5, 2.5, "T3/2.1", 3),
        ("x^8", "x^12", 2.0, 0.5, 1.8, "T3/2.1", 3),
        ("x^-6", "x^-9", 2.0, 0.5, 1.8, "T3/2.1", 3),
        # r = m is excluded from case 1.3; the image is T1/2
        ("exp(x)", "exp(3*x)", 3.0, 0.5, 2.5, "T3/2.2", 3),
        # the image is row 3 with k = 0
        ("x^1.4", "x^2.8", 3.0, 0.5, 2.5, "T3/3.1", 2),
    ])
    def test_full_algebra_through_the_image(self, f, h, m, lo, hi, case, count):
        eq = RDEquation(parse(f), parse(f), parse(h), m, Interval(lo, hi))
        r = classify_verified(eq)
        assert (r.case, len(r.operators)) == (case, count)

    def test_kernel_when_the_image_cannot_be_built(self):
        # f = |x-1| + 1 is positive on the domain, but F = -(sqrt f)_xx/sqrt f
        # needs the sign of x - 1, which changes there
        eq = RDEquation(parse("abs(x-1) + 1"), parse("abs(x-1) + 1"), const(1), 3.0, DOM)
        r = classify_initial(eq)
        assert r.case == "T3/0"
        assert any(n.startswith("no image under to_imaged") for n in r.notes)


class TestGroupInvariance:
    def test_case_ids_invariant_under_scalings(self):
        deltas = [(1.3, 0.4, 0.6, 0.9), (0.7, -0.2, -0.4, 1.8),
                  (2.0, 1.0, 0.8, 0.5), (0.5, 0.0, 1.1, -1.2)]
        for row, pr in T1_SWEEP:
            eq, _ = tables.build_imaged(row, pr, M)
            for d1, d2, d3, d4 in deltas:
                new, _ = apply_equiv(eq, EquivParams(delta=(1, d1, d2, d3, d4, 0)),
                                     "imaged")
                assert classify_imaged(new).case == f"T1/{row}"

    def test_shift_is_reported(self):
        eq, _ = tables.build_imaged(3, {"delta": 1.0, "k": 1.0, "a2": 0.5}, M)
        new, _ = apply_equiv(eq, EquivParams(delta=(1, 1.0, 0.0, 0.7, 1.0, 0)),
                             "imaged")
        r = classify_imaged(new)
        assert r.case == "T1/3"
        assert abs(r.params.get("nu", 0.0) + 0.7) < 1e-6

    @pytest.mark.parametrize("table,group,build", [
        ("T1", "imaged", lambda: tables.build_imaged(3, {"delta": 1.0, "k": 1.0, "a2": 0.5}, M)),
        ("T2", "double", lambda: tables.build_double(3, {"delta": 1.0, "k": 1.0, "b2": 0.5})),
    ], ids=["T1", "T2"])
    def test_shift_note_names_the_translation(self, table, group, build):
        new, _ = apply_equiv(build()[0], EquivParams(delta=(1, 1.0, 0.0, 0.7, 1.0, 0)), group)
        r = classify(new)
        assert r.case == f"{table}/3"
        assert abs(r.params["nu"] + 0.7) < 1e-6
        assert r.notes == ("template shifted by x -> x + nu, removable by "
                           "an equivalence translation",)


class TestAdmissible:
    def test_drift_only_is_E1(self):
        form = AdmissibleForm(q=2.0)
        assert classify_admissible(form, 3.0) == "E1"

    def test_gaussian_zero_invariant_is_E4(self):
        # K2 = K1 = 0 by construction; K0 = -1 + 2 - 1 = 0
        form = AdmissibleForm(p=1.0, s2=-1.0, s1=0.0, q=0.0, s0=-1.0)
        K2, K1, K0 = form.K_values(3.0)
        assert (K2, K1, K0) == (0.0, 0.0, 0.0)
        assert classify_admissible(form, 3.0) == "E4"

    def test_nonzero_K2_is_trivial(self):
        assert classify_admissible(AdmissibleForm(s2=5.0), 3.0) == "trivial"

    def test_E2(self):
        m = 3.0
        p, q = 1.0, 0.5
        form = AdmissibleForm(p=p, q=q, s2=-4 * p * p / 4, s1=-4 * p * q / 4, s0=0.0)
        assert classify_admissible(form, m) == "E2"

    def test_E3(self):
        m = 3.0
        p, nu, k = 0.5, 0.8, 1.0
        q = 2 * p * nu
        s2 = -4 * p * p / (m - 1) ** 2
        s1 = -4 * p * q / (m - 1) ** 2
        s0 = -((q * q + 4 * p * (k + 2)) / (m - 1) ** 2 - 2 * p / (m - 1))
        form = AdmissibleForm(k=k, p=p, q=q, nu=nu, s2=s2, s1=s1, s0=s0)
        assert classify_admissible(form, m) == "E3"

    def test_pole_with_K0_nonzero_is_trivial(self):
        form = AdmissibleForm(k=1.0, q=2.0)
        assert classify_admissible(form, 3.0) == "trivial"

    def test_excluded_m(self):
        with pytest.raises(ValueError):
            classify_admissible(AdmissibleForm(), 2.0)


def test_dispatch():
    eq = ImagedEquation(const(0), const(1), 3.0, DOM)
    assert classify(eq).case.startswith("T1/")
    eqd = DoubleImagedEquation(const(1), const(0), DOM)
    assert classify(eqd).case.startswith("T2/")
    eqi = RDEquation(const(1), const(1), const(1), 3.0, DOM)
    assert classify(eqi).case.startswith("T3/")


def test_admissible_result_serialization():
    from rdsym.classify import classify_admissible_result

    r = classify_admissible_result(AdmissibleForm(q=2.0), 3.0)
    assert r.case == "adm/E1"
    assert r.params["K0"] == 1.0
    d = r.as_dict()
    assert d["case"] == "adm/E1"


def test_equiv_params_serialization():
    pr = EquivParams(delta=(1, 2, 0, 0.5, 1, 0), psi=parse("1/x"))
    d = pr.as_dict()
    assert d["delta"][1] == 2.0
    assert "psi" in d
