import json

import pytest

from rdsym.expr import const, parse
from rdsym.model import (
    AdmissibleForm,
    DoubleImagedEquation,
    EquivParams,
    ImagedEquation,
    Interval,
    PointTransformation,
    RDEquation,
    VectorField,
    constant_on,
    equation_from_dict,
    validate,
)


DOM = Interval(0.5, 2.5)


class TestValidate:
    def test_linear_m_rejected(self):
        eq = RDEquation(const(1), const(1), const(1), 1.0, DOM)
        assert any("m" in v for v in validate(eq))
        eq = RDEquation(const(1), const(1), const(1), 0.0, DOM)
        assert validate(eq)

    def test_imaged_ok(self):
        eq = ImagedEquation(const(0), const(1), 3.0, DOM)
        assert validate(eq) == []

    def test_vanishing_h(self):
        eq = RDEquation(const(1), const(1), parse("x"), 3.0, Interval(-1.0, 1.0))
        assert any("h" in v for v in validate(eq))

    def test_h_undefined_on_part_of_domain(self):
        eq = RDEquation(const(1), const(1), parse("sqrt(x-1)"), 3.0, Interval(0.5, 3.0))
        assert any("h" in v for v in validate(eq))

    def test_sign_changing_f(self):
        eq = RDEquation(parse("cos(x)"), parse("cos(x)"), const(1), 3.0,
                        Interval(0.5, 2.5))
        assert validate(eq)

    def test_vector_field_degenerate(self):
        q = VectorField(const(0), const(0), parse("u"), "u")
        assert validate(q)
        q = VectorField(const(1), const(0), const(0), "u")
        assert validate(q) == []

    def test_equiv_params(self):
        assert validate(EquivParams(delta=(0, 1, 0, 0, 1, 0)))
        assert validate(EquivParams()) == []


class TestInterval:
    def test_json_roundtrip(self):
        d = Interval(0.25, 3.5)
        assert Interval.from_json(d.as_json()) == d

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_samples_inside(self):
        d = Interval(1.0, 2.0)
        assert all(1.0 < x < 2.0 for x in d.samples(32))


def _one_sample_undefined() -> str:
    """2*sqrt(x-x0)/sqrt(x-x0) with x0 between the two smallest samples
    of DOM, so exactly one sample raises."""
    xs = sorted(DOM.samples(32))
    return "2*sqrt(x - {0})/sqrt(x - {0})".format(0.5 * (xs[0] + xs[1]))


@pytest.mark.parametrize("text,want", [
    ("2.5", 2.5),
    ("(x^2 - 1)/(x + 1) - x", -1.0),
    ("1 + 1e-6*x", None),                   # not constant at tol 1e-7
    ("ln(x)", None),
    pytest.param(_one_sample_undefined(), None, id="one-undefined-sample"),
])
def test_constant_on(text, want):
    c = constant_on(parse(text), DOM, 1e-7)
    if want is None:
        assert c is None
    else:
        assert c is not None and abs(c - want) <= 1e-12


class TestSerialization:
    def test_equation_roundtrip(self):
        eq = RDEquation(parse("cos(x)^2"), parse("cos(x)^2"),
                        parse("exp(x)*abs(cos(x))^4"), 3.0, Interval(0.1, 1.2))
        d = json.loads(json.dumps(eq.as_dict()))
        back = equation_from_dict(d)
        assert back.f == eq.f and back.h == eq.h and back.m == eq.m

    def test_imaged_roundtrip(self):
        eq = ImagedEquation(parse("-0.25"), parse("exp(x)"), 3.0, DOM)
        back = equation_from_dict(eq.as_dict())
        assert isinstance(back, ImagedEquation)
        assert back.F == eq.F and back.H == eq.H

    def test_double_roundtrip(self):
        eq = DoubleImagedEquation(parse("exp(x)"), parse("0.25*exp(-x)"), DOM)
        back = equation_from_dict(eq.as_dict())
        assert isinstance(back, DoubleImagedEquation)
        assert back.G == eq.G

    def test_vector_field_roundtrip(self):
        q = VectorField(parse("2*t"), parse("x"), parse("v/(1 - m)"), "v")
        assert VectorField.from_dict(q.as_dict()) == q


class TestPointTransformation:
    def test_jacobian_ok(self):
        tr = PointTransformation(parse("t"), parse("x + 2*t"),
                                 parse("exp(-x)*u"),
                                 parse("t"), parse("x - 2*t"),
                                 parse("exp(x - 2*t)*u"))
        assert tr.violations() == []

    def test_degenerate_jacobian(self):
        tr = PointTransformation(parse("t"), parse("t"), parse("u"))
        assert tr.violations()

    def test_undefined_jacobian(self):
        tr = PointTransformation(parse("t"), parse("sqrt(x-5)"), parse("u"))
        assert tr.violations() == ["Jacobian is undefined at 16/16 sample points"]

    def test_inverse_swaps_components(self):
        tr = PointTransformation(parse("2*t"), parse("x"), parse("3*u"),
                                 parse("t/2"), parse("x"), parse("u/3"))
        inv = tr.inverse()
        assert inv.T == parse("t/2") and inv.inv_T == parse("2*t")


class TestAdmissibleForm:
    def test_k_values_definition(self):
        form = AdmissibleForm(k=1.0, kappa=0.5, p=2.0, q=3.0,
                              s2=0.25, s1=-1.0, s0=0.5)
        m = 3.0
        K2, K1, K0 = form.K_values(m)
        assert K2 == 0.25 + 4 * 4 / 4
        assert K1 == -1.0 + 4 * 2 * 3 / 4
        assert K0 == 0.5 + (9 + 8 * 3) / 4 - 4 / 2

    def test_rhs_shapes(self):
        eq = RDEquation(parse("exp(x)"), parse("exp(x)"), parse("exp(x)"), 3.0, DOM)
        rhs = eq.rhs()
        from rdsym.expr import free_variables
        assert free_variables(rhs) <= {"x", "u", "u_x", "u_xx"}
