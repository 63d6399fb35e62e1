import math

import pytest
from dataclasses import replace

from rdsym import solutions as sol
from rdsym import tables
from rdsym.expr import Assumption, const, num_equal, parse, pow_, simplify, var
from rdsym.model import ImagedEquation, Interval, ValidationError
from rdsym.transforms import apply_additional


CATALOG = {e.name: e for e in sol.catalog()}


def test_catalog_size():
    assert len(CATALOG) >= 40


def test_catalog_names_unique():
    assert len(CATALOG) == len(sol.catalog())


def test_catalog_covers_required_families():
    names = set(CATALOG)
    # reductions of the constant-coefficient imaged equation
    assert "imaged/x-free" in names
    assert "imaged/stationary-power" in names
    # traveling waves
    assert "imaged/fisher-wave" in names
    assert any(n.startswith("imaged/kpp-wave") for n in names)
    # double-imaged families for every time profile
    for tag in ("tan", "recip", "zero", "tanh", "coth", "const"):
        assert f"double/exp-riccati-{tag}" in names
    # initial-class coefficients of each tabulated shape
    for frag in ("cos2", "exp-exp", "power", "logcos", "whittaker", "m2-exp"):
        assert any(frag in n for n in names if n.startswith("initial/")), frag
    # the elliptic families
    assert sum(1 for n in names if n.startswith("cubic")) >= 15


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_entry_verifies_with_defaults(name):
    entry = CATALOG[name]
    rep = sol.verify_on_grid(entry)
    assert rep.max_rel_residual <= 1e-7, (name, rep.max_rel_residual)
    assert rep.skipped_fraction < 0.2


@pytest.mark.parametrize("name", [
    "imaged/x-free", "cubic/pos-ds-sinh", "cubic/zero-sd",
    "initial/whittaker-decay", "initial/cosh-sd", "imaged/kpp-wave-m3",
])
def test_entry_verifies_with_random_bindings(name):
    entry = CATALOG[name]
    for binding in sol.sample_constants(entry, 3):
        rep = sol.verify_on_grid(entry, binding)
        assert rep.max_rel_residual <= 1e-7, (name, binding, rep.max_rel_residual)


def test_specific_example_x_free():
    # delta=-1, m=3, C=0 on t in [0.5, 2]
    entry = CATALOG["imaged/x-free"]
    rep = sol.verify_on_grid(entry, {"C": 0.0})
    assert rep.max_rel_residual <= 1e-9


def test_appendix_sd_entry():
    entry = CATALOG["cubic/possrc-sd-sinh"]
    rep = sol.verify_on_grid(entry, {"C1": 1.0, "C2": 0.0})
    assert rep.max_rel_residual <= 1e-7


def test_negative_control_corrupted_exponent():
    entry = CATALOG["imaged/stationary-power"]
    bad = replace(entry, expr=simplify(const(math.sqrt(2)) * pow_(var("x"), const(1.0))))
    rep = sol.verify_on_grid(bad)
    assert rep.max_rel_residual >= 1e-2


def test_kpp_parameter_identities():
    m, delta, eps = 3.0, -1.0, 1.0
    lam, mu, beta = sol._kpp_identities(m, delta, eps)
    assert abs(lam - eps * (1 - m) * (m + 3) / (2 * (m + 1))) < 1e-15
    assert abs(mu * mu - eps * (1 - m) ** 2 / (2 * (m + 1))) < 1e-15
    assert abs(beta * beta + delta / eps) < 1e-15
    with pytest.raises(ValidationError):
        sol._kpp_identities(3.0, 1.0, 1.0)


def test_fisher_is_kpp_in_disguise():
    # the tanh form equals the exponential form with C=1 (m=2)
    fisher = CATALOG["imaged/fisher-wave"]
    kpp = CATALOG["imaged/kpp-wave-m2"]
    a = fisher.bound({})
    b = kpp.bound({"C": 1.0})
    assert num_equal(a, b, {"t": (0.5, 2.0), "x": (0.5, 2.5)}, 48, 1e-9)


def test_grid_report_shape():
    rep = sol.verify_on_grid(CATALOG["imaged/stationary-power"])
    d = rep.as_dict()
    assert d["total"] == 400
    assert "max_rel_residual" in d and "skipped" in d


def test_pole_points_are_skipped():
    entry = CATALOG["cubic/zero-ds"]
    grid = sol.GridSpec(nt=20, nx=20, t_range=(0.5, 2.0), x_range=(0.5, 2.5))
    rep = sol.verify_on_grid(entry, grid=grid)
    assert rep.max_rel_residual <= 1e-7


def test_skips_are_reported_by_reason():
    # ds(x - 0.55, k) has a pole on the first grid column (x = 0.55): its
    # 20 points sit below the |sn| guard
    entry = replace(CATALOG["cubic/zero-ds"], expr=parse("ds(x - 0.55, 0.7)"))
    rep = sol.verify_on_grid(entry, grid=sol.GridSpec(x_range=(0.5, 2.5)))
    assert (rep.skipped, rep.skipped_pole, rep.skipped_domain) == (20, 20, 0)
    assert rep.as_dict()["skipped_pole"] == 20
    # x^(-4/3) is undefined on the 2 of 20 grid columns with x < 0
    eq = ImagedEquation(const(0), const(-28 / 9), 2.5, Interval(0.5, 2.0))
    pw = sol.SolutionEntry("pow", eq, parse("x^(-4/3)"))
    rep = sol.verify_on_grid(pw, grid=sol.GridSpec(x_range=(-0.2, 2.0)))
    assert (rep.skipped, rep.skipped_pole, rep.skipped_domain) == (40, 0, 40)


def test_generate_through_inverse_drift():
    src = CATALOG["imaged/x-free"]
    q, m = 1.0, 3.0
    eqd, _ = tables.build_imaged(2, {"delta": -1.0, "q": q}, m)
    am = apply_additional(eqd, "imaged:2->2", {"delta": -1.0, "q": q})
    gen = sol.generate(src, am.transformation.inverse(), eqd,
                       name="generated/drift-x-free")
    rep = sol.verify_on_grid(gen, {"C": 0.5})
    assert rep.max_rel_residual <= 1e-9
    hand = CATALOG["imaged/drift-x-free"]
    assert num_equal(gen.bound({"C": 0.5}), hand.bound({"C": 0.5}),
                     {"t": (0.5, 2.0), "x": (0.5, 2.5)}, 48, 1e-9)


def test_generate_identity_chain():
    src = CATALOG["imaged/x-free"]
    gen = sol.generate(src, [], src.equation, name="generated/identity")
    assert gen.expr == src.expr
    assert sol.verify_on_grid(gen).max_rel_residual <= 1e-9


def test_generated_elliptic_family_matches_closed_form():
    # appendix solutions pushed through the inverse drift map land on the
    # catalog's closed forms for v_t = v_xx + delta e^{qx} v^3 - (q^2/4) v
    src = CATALOG["cubic/zero-ds"]
    q, m = 1.0, 3.0
    a1 = -q * q / 4
    eqd, _ = tables.build_imaged(1, {"delta": -1.0, "q": q, "a1": a1}, m)
    am = apply_additional(eqd, "imaged:1->1", {"delta": -1.0, "q": q, "a1": a1})
    gen = sol.generate(src, am.transformation.inverse(), eqd)
    hand = CATALOG["cubic-drift/ds"]
    assert num_equal(gen.bound({}), hand.bound({}),
                     {"t": (0.5, 0.9), "x": (0.5, 1.2)}, 32, 1e-9)


def test_catalog_json_is_valid():
    import json

    data = json.loads(sol.catalog_json())
    assert len(data) == len(CATALOG)
    assert all("solution" in d and "equation" in d for d in data)


def test_skip_budget_enforced():
    entry = CATALOG["cubic/zero-ds"]
    # a degenerate box sitting on x=0 poles everywhere
    bad = replace(entry, expr=parse("ds(0.0000001*x, 0.7071067811865476)"))
    with pytest.raises(ValidationError, match="skipped"):
        sol.verify_on_grid(bad)


def test_skip_budget_counts_domain_errors():
    eq = ImagedEquation(const(0), const(-28 / 9), 2.5, Interval(0.5, 2.0))
    entry = sol.SolutionEntry("pow", eq, parse("x^(-4/3)"))
    assert sol.verify_on_grid(entry).max_rel_residual < 1e-12
    # x^(-4/3) is undefined on the 7 of 20 grid columns with x < 0
    with pytest.raises(ValidationError, match="skipped"):
        sol.verify_on_grid(entry, grid=sol.GridSpec(x_range=(-1.0, 2.0)))


@pytest.mark.parametrize("arg,want", [
    ("x - 3", False),
    ("x + t", True),
    ("x - 1", None),         # changes sign in the box
    ("sqrt(x - 1)", None),   # positive where defined, undefined for x < 1
])
def test_box_assumptions_need_every_point(arg, want):
    a = parse(arg)
    asm = sol._box_assumptions(parse(f"abs({arg})"), (0.5, 2.0), (0.5, 2.0))
    assert asm == (() if want is None else (Assumption(a, want),))
