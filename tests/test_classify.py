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
        assert params_close(r.params, params, 1e-6)

    def test_operator_bases_verify(self):
        for row, params in T1_SWEEP[:6]:
            eq, _ = tables.build_imaged(row, params, M)
            r = classify_imaged(eq)
            for q in r.operators:
                assert verify_lie(eq, q, n=32, tol=1e-8).passed


class TestInitialExamples:
    def test_exponential_source(self):
        eq = RDEquation(const(1), const(1), parse("exp(x)"), 3.0, Interval(0.5, 3.0))
        r = classify_initial(eq)
        assert r.case == "T3/1.1"
        assert len(r.operators) == 2

    def test_power_exclusion_reports_constant_case(self):
        eq = RDEquation(parse("x^2"), parse("x^2"), parse("x^4"), 3.0, DOM)
        r = classify_initial(eq)
        assert r.case == "T3/2.1"
        assert any("lambda" in n for n in r.notes)

    def test_exp_exp_three_operators(self):
        eq = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), 3.0, DOM)
        r = classify_initial(eq)
        assert r.case == "T3/2.2"
        assert len(r.operators) == 3

    def test_m2_extra_exclusions(self):
        eq = RDEquation(parse("x^8"), parse("x^8"), parse("x^12"), 2.0,
                        Interval(0.5, 1.8))
        r = classify_initial(eq)
        assert r.case == "T3/2.1"

    def test_kernel(self):
        eq = RDEquation(parse("1 + x^2"), parse("1 + x^2"), const(1), 3.0, DOM)
        r = classify_initial(eq)
        assert r.case == "T3/0"


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
