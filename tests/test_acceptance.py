"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time
from dataclasses import replace

from rdsym import solutions as sol
from rdsym import tables
from rdsym.classify import classify, classify_admissible, classify_imaged
from rdsym.expr import const, max_deviation, num_equal, parse, pow_, simplify, var
from rdsym.model import AdmissibleForm, EquivParams
from rdsym.sampling import halton_points
from rdsym.symmetry import verify_algebra_closure, verify_lie, verify_nonclassical
from rdsym.transforms import (
    apply_additional,
    apply_equiv,
    imaged_preimage,
    to_double_imaged,
    to_imaged,
)
from rdsym import special

M = 3.0


def _report(number: int, label: str, passed: bool, detail: str = ""):
    state = "PASS" if passed else "FAIL"
    print(f"[{state}] criterion {number}: {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {label} {detail}"


def _pm(u: float) -> float:
    return 1.0 if u > 0.5 else -1.0


# -- criterion 1: table-consistency sweep -------------------------------------

def _t1_samples_for_t3_case(case: str, pts) -> list[tuple[int, dict]]:
    out = []
    for p in pts:
        d = _pm(p[0])
        if case == "1.1":
            out.append((1, {"delta": d, "q": 0.4 + p[1], "a1": 0.0}))
        elif case == "1.2":
            out.append((1, {"delta": d, "q": 0.4 + p[1], "a1": 0.4 + p[2]}))
        elif case == "1.3":
            out.append((1, {"delta": d, "q": 0.4 + p[1], "a1": -0.2 - p[2]}))
        elif case == "2.1":
            out.append((2, {"delta": d * (0.6 + p[1]), "q": 0.0}))
        elif case == "2.2":
            out.append((2, {"delta": d, "q": 0.4 + p[1]}))
        elif case == "3.1":
            out.append((3, {"delta": d, "k": 0.3 + p[1], "a2": 0.25 - p[2]}))
        elif case == "3.2":
            out.append((3, {"delta": d, "k": 0.3 + p[1], "a2": 0.3 + 0.6 * p[2]}))
        elif case == "4":
            out.append((4, {"delta": d, "k": 0.3 + p[1], "p": 0.4 + 0.6 * p[3],
                            "a2": 0.25 - 0.8 * p[2]}))
        elif case == "5":
            out.append((5, {"delta": d, "p": 0.4 + 0.6 * p[1], "a3": p[2]}))
        else:
            out.append((6, {"delta": d, "p": 0.4 + 0.6 * p[1]}))
    return out


def test_criterion_1_table_consistency():
    start = time.time()
    worst = 0.0
    ok = True
    wrong_cases = []
    for case in tables.T3_CASES:
        pts = halton_points(4, 5)
        for row, params in _t1_samples_for_t3_case(case, pts):
            pre = imaged_preimage(row, params, M)
            img, _ = to_imaged(pre)
            box = {"x": (pre.domain.lo, pre.domain.hi)}
            dF = max_deviation(img.F, tables.imaged_F(row, params, M), box, 64)
            dH = max_deviation(img.H, tables.imaged_H(row, params), box, 64)
            worst = max(worst, dF, dH)
            ok = ok and dF <= 1e-9 and dH <= 1e-9
            got = classify(pre).case
            if got != f"T3/{case}":
                wrong_cases.append((case, got))
    elapsed = time.time() - start
    _report(1, "preimage/image chain matches the imaged templates and the "
               "preimage classifies as its T3 case",
            ok and not wrong_cases and elapsed < 10.0,
            f"max deviation {worst:.2e}, wrong cases {wrong_cases}, {elapsed:.1f}s")


# -- criterion 2: Lie-symmetry suite -------------------------------------------

def _t1_params(row: int, p) -> dict:
    d = _pm(p[0])
    pr = {"delta": d}
    if row in (1, 2):
        pr["q"] = -1.0 + 2.2 * p[1]
    if row == 1:
        pr["a1"] = 0.3 + p[2]
    if row in (3, 4):
        pr["k"] = 0.3 + 1.4 * p[1]
        pr["a2"] = -0.7 + p[2]
    if row in (4, 5, 6):
        pr["p"] = 0.35 + 0.7 * p[3]
    if row == 5:
        pr["a3"] = -0.4 + p[2]
    return pr


def _t2_params(row: int, p) -> dict:
    d = _pm(p[0])
    pr = {"delta": d}
    if row in (1, 2):
        pr["q"] = -1.0 + 2.2 * p[1]
    if row == 1:
        pr["b1"] = 0.3 + p[2]
    if row in (3, 4):
        pr["k"] = 0.3 + 1.4 * p[1]
        pr["b2"] = -2.0 + 2.5 * p[2]
    if row in (4, 5, 6):
        pr["p"] = 0.35 + 0.6 * p[3]
    if row == 5:
        pr["b3"] = -2.0 + 5.0 * p[2]
    return pr


def _t3_params(case: str, p) -> dict:
    d = _pm(p[0])
    pr = {"delta": d}
    if case == "1.1":
        pr["q"] = 0.4 + p[1]
    elif case == "1.2":
        pr["q"] = -0.8 + 1.6 * p[1]
    elif case == "1.3":
        pr["r"] = 1.5 + p[1]
    elif case == "3.1":
        pr["lam"] = 0.5 + p[1]
        pr["gam"] = 1.0 + p[2]
    elif case == "3.2":
        pr["rho"] = 0.4 + 0.8 * p[1]
        pr["l"] = 0.5 + p[2]
    elif case == "4":
        pr["p"] = 0.4 + 0.6 * p[1]
        pr["s"] = 0.2 + p[2]
        pr["a2"] = 0.25 - 0.8 * p[3]
    elif case == "5":
        pr["p"] = 0.4 + 0.6 * p[1]
        pr["a3"] = -0.4 + p[2]
    elif case == "6":
        pr["p"] = 0.4 + 0.6 * p[1]
    return pr


def test_criterion_2_lie_suite():
    start = time.time()
    worst = 0.0
    ok = True
    failures = []
    for row in tables.T1_ROWS:
        for p in halton_points(4, 5):
            pr = _t1_params(row, p)
            if tables.t1_constraint_violations(row, pr, M):
                continue
            eq, ops = tables.build_imaged(row, pr, M)
            for q in ops:
                rep = verify_lie(eq, q, n=64, tol=1e-8)
                worst = max(worst, rep.max_residual)
                if not rep.passed:
                    failures.append(("T1", row, pr))
    for row in tables.T2_ROWS:
        for p in halton_points(4, 5):
            pr = _t2_params(row, p)
            if tables.t2_constraint_violations(row, pr):
                continue
            eq, ops = tables.build_double(row, pr)
            for q in ops:
                rep = verify_lie(eq, q, n=64, tol=1e-8)
                worst = max(worst, rep.max_residual)
                if not rep.passed:
                    failures.append(("T2", row, pr))
    for case in tables.T3_CASES:
        for p in halton_points(4, 5):
            pr = _t3_params(case, p)
            if tables.t3_constraint_violations(case, pr, M):
                continue
            eq, ops = tables.build_initial(case, pr, M)
            for q in ops:
                rep = verify_lie(eq, q, n=64, tol=1e-8)
                worst = max(worst, rep.max_residual)
                if not rep.passed:
                    failures.append(("T3", case, pr))
    ok = not failures
    # commutation relations of the three-operator algebra
    _, basis = tables.build_imaged(2, {"delta": 1.0, "q": 0.0}, M)
    rep = verify_algebra_closure(list(basis), tol=1e-10)
    c = rep["constants"]
    comm_ok = (rep["closed"]
               and abs(c[0][2][0] - 2.0) <= 1e-10
               and abs(c[0][2][1]) <= 1e-10 and abs(c[0][2][2]) <= 1e-10
               and abs(c[1][2][1] - 1.0) <= 1e-10
               and abs(c[1][2][0]) <= 1e-10 and abs(c[1][2][2]) <= 1e-10
               and all(abs(v) <= 1e-10 for v in c[0][1]))
    _report(2, "all table operator bases verify and the three-operator "
               "algebra closes",
            ok and comm_ok,
            f"max residual {worst:.2e}, {time.time()-start:.1f}s"
            + (f", failures {failures[:3]}" if failures else ""))


# -- criterion 3: nonclassical suite --------------------------------------------

def test_criterion_3_nonclassical_suite():
    start = time.time()
    worst = 0.0
    count = 0
    failures = []
    branches = [(-1.0, 0.0), (1.0, 0.0), (-1.0, 1.0), (1.0, 1.0),
                (-1.0, -1.0), (1.0, -1.0)]
    seen_tags = set()
    for d, e in branches:
        eq = tables.cubic_source_equation(d, e)
        for tag, q in tables.cubic_reduction_operators(d, e):
            seen_tags.add(tag)
            rep = verify_nonclassical(eq, q, n=64, tol=1e-8)
            worst = max(worst, rep.max_residual)
            count += 1
            if not rep.passed:
                failures.append((d, e, tag))
    families = [("linear", {"c1": 0.8, "c2": 1.0, "eps": 0.0, "delta": -1.0}),
                ("linear", {"c1": 0.8, "c2": 1.0, "eps": 0.0, "delta": 1.0}),
                ("trig", {"c1": 0.5, "c2": 1.0, "eps": 1.0, "delta": -1.0}),
                ("trig", {"c1": 0.5, "c2": 1.0, "eps": 1.0, "delta": 1.0}),
                ("hyperbolic", {"c1": 0.3, "c2": 1.0, "eps": -1.0, "delta": -1.0}),
                ("hyperbolic", {"c1": 0.3, "c2": 1.0, "eps": -1.0, "delta": 1.0})]
    for fam, pr in families:
        eq = tables.t4_equation(fam, pr)
        for tag, q in tables.t4_operators(fam, pr):
            rep = verify_nonclassical(eq, q, n=64, tol=1e-8)
            worst = max(worst, rep.max_residual)
            count += 1
            if not rep.passed:
                failures.append((fam, tag))
    # the coth branch (historically missed) must be among the verified ops
    coth_ok = "coth" in seen_tags
    # negative control: +0.01 on a coefficient must fail
    eq = tables.cubic_source_equation(-1.0, 1.0)
    tag, q = [op for op in tables.cubic_reduction_operators(-1.0, 1.0)
              if op[0] == "coth"][0]
    from rdsym.model import VectorField

    bad = VectorField(q.tau, simplify(q.xi + const(0.01)), q.eta, "v")
    neg_ok = not verify_nonclassical(eq, bad, n=64, tol=1e-8).passed
    _report(3, "reduction operators verify (incl. the coth branch) and the "
               "perturbed control fails",
            not failures and coth_ok and neg_ok,
            f"{count} operators, max residual {worst:.2e}, "
            f"{time.time()-start:.1f}s")


# -- criterion 4: solution catalog ------------------------------------------------

def test_criterion_4_solution_catalog():
    start = time.time()
    entries = sol.catalog()
    size_ok = len(entries) >= 40
    names = {e.name for e in entries}
    required = {"imaged/kpp-wave-m3", "imaged/fisher-wave", "cubic/zero-ds",
                "cubic/zero-scale-invariant", "cubic/zero-recip",
                "cubic/pos-ds-sinh", "initial/cosh-sd", "cubic-drift/ds",
                "cubic-gauss/ds"}
    coverage_ok = required <= names
    worst = 0.0
    failures = []
    for entry in entries:
        for binding in sol.sample_constants(entry, 3):
            rep = sol.verify_on_grid(entry, binding)
            worst = max(worst, rep.max_rel_residual)
            if rep.max_rel_residual > 1e-7:
                failures.append(entry.name)
                break
    # corrupted-exponent negative control
    stationary = [e for e in entries if e.name == "imaged/stationary-power"][0]
    bad = replace(stationary,
                  expr=simplify(const(math.sqrt(2)) * pow_(var("x"), const(1.0))))
    neg = sol.verify_on_grid(bad).max_rel_residual
    _report(4, "catalog of exact solutions verifies on the grid",
            size_ok and coverage_ok and not failures and neg >= 1e-2,
            f"{len(entries)} entries, max residual {worst:.2e}, "
            f"control {neg:.1e}, {time.time()-start:.1f}s")


# -- criterion 5: additional-equivalence round trips ------------------------------

def test_criterion_5_additional_equivalence():
    start = time.time()
    checks = []
    cat = {e.name: e for e in sol.catalog()}

    def imaged_case_matches(am, tol=1e-9):
        row = int(am.target_case.split("/")[1])
        box = {"x": (am.target.domain.lo, am.target.domain.hi)}
        return (num_equal(am.target.F, tables.imaged_F(row, am.target_params, M),
                          box, 64, tol)
                and num_equal(am.target.H, tables.imaged_H(row, am.target_params),
                              box, 64, tol))

    def push_and_verify(entry_name, am, grid):
        gen = sol.generate(cat[entry_name], am.transformation, am.target,
                           name=entry_name + ">" + am.which, grid=grid)
        rep = sol.verify_on_grid(gen)
        return rep.max_rel_residual <= 1e-7

    # imaged 1 -> 1 (q normalized away)
    pr = {"delta": 1.0, "q": 1.0, "a1": -1.0}
    eq, _ = tables.build_imaged(1, pr, M)
    am = apply_additional(eq, "imaged:1->1", pr)
    checks.append(("imaged:1->1", imaged_case_matches(am)
                   and push_and_verify("imaged/drift-linear-source", am,
                                       sol.GridSpec())))
    # imaged 2 -> 2
    pr = {"delta": -1.0, "q": 1.0}
    eq, _ = tables.build_imaged(2, pr, M)
    am = apply_additional(eq, "imaged:2->2", pr)
    checks.append(("imaged:2->2", imaged_case_matches(am)
                   and push_and_verify("imaged/drift-x-free", am,
                                       sol.GridSpec())))
    # imaged 4 -> 3
    pr = {"delta": -1.0, "k": 1.0, "p": 0.5, "a2": 0.3}
    eq, _ = tables.build_imaged(4, pr, M)
    am = apply_additional(eq, "imaged:4->3", pr)
    grid = sol.GridSpec(t_range=(-0.15, -0.02), x_range=(0.3, 1.0))
    checks.append(("imaged:4->3", imaged_case_matches(am)
                   and push_and_verify("imaged/gaussian-power-stationary", am,
                                       grid)))
    # imaged 6 -> 2
    pr = {"delta": -1.0, "p": 0.5}
    eq, _ = tables.build_imaged(6, pr, M)
    am = apply_additional(eq, "imaged:6->2", pr)
    checks.append(("imaged:6->2", imaged_case_matches(am)
                   and push_and_verify("imaged/gaussian-row6-stationary", am,
                                       grid)))
    # initial 2.2 -> 2.1
    pr = {"delta": -1.0}
    eq, _ = tables.build_initial("2.2", pr, M)
    am = apply_additional(eq, "initial:2.2->2.1", pr)
    f_t, h_t = tables.initial_fh("2.1", am.target_params, M)
    box = {"x": (am.target.domain.lo, am.target.domain.hi)}
    tmpl_ok = (num_equal(am.target.f, f_t, box, 64, 1e-9)
               and num_equal(am.target.h, h_t, box, 64, 1e-9))
    checks.append(("initial:2.2->2.1", tmpl_ok
                   and push_and_verify("initial/exp-x-free", am, sol.GridSpec())))
    # initial 6 -> 2.1
    pr = {"delta": -1.0, "p": 0.6}
    eq, _ = tables.build_initial("6", pr, M)
    am = apply_additional(eq, "initial:6->2.1", pr)
    f_t, h_t = tables.initial_fh("2.1", am.target_params, M)
    box = {"x": (am.target.domain.lo, am.target.domain.hi)}
    tmpl_ok = (num_equal(am.target.f, f_t, box, 64, 1e-9)
               and num_equal(am.target.h, h_t, box, 64, 1e-9))
    grid6 = sol.GridSpec(t_range=(-0.3, -0.05), x_range=(0.25, 0.8))
    checks.append(("initial:6->2.1", tmpl_ok
                   and push_and_verify("initial/whittaker-row6-stationary",
                                       am, grid6)))
    bad = [name for name, ok in checks if not ok]
    _report(5, "additional equivalence maps reproduce target templates and "
               "transport solutions",
            not bad, f"{len(checks)} maps, {time.time()-start:.1f}s"
            + (f", failing {bad}" if bad else ""))


# -- criterion 6: m=2 chain --------------------------------------------------------

def test_criterion_6_m2_chain():
    start = time.time()
    m = 2.0
    worst = 0.0
    ok = True
    for row in (1, 2, 3, 5, 6):
        for p in halton_points(4, 4):
            pr = _t1_params(row, p)
            if row == 5:
                pr["a3"] = -0.4 + p[2]
                if abs(pr["a3"] - 5.0) < 1e-9:
                    continue
            if tables.t1_constraint_violations(row, pr, m):
                continue
            eq, _ = tables.build_imaged(row, pr, m)
            dbl, _ = to_double_imaged(eq)
            d = pr["delta"]
            if row == 1:
                q, a1 = pr["q"], pr["a1"]
                t2 = (1, {"delta": d, "q": q,
                          "b1": (q ** 4 - (a1 + q * q) ** 2) / (4 * d)})
            elif row == 2:
                t2 = (2, {"delta": d, "q": pr["q"]})
            elif row == 3:
                k, a2 = pr["k"], pr["a2"]
                b2 = ((k + 2) ** 2 * (k + 3) ** 2
                      - (a2 + (k + 2) * (k + 3)) ** 2) / 4.0
                t2 = (3, {"delta": d, "k": k, "b2": b2})
            elif row == 5:
                t2 = (5, {"delta": d, "p": pr["p"],
                          "b3": 5.0 - (pr["a3"] - 1.0) ** 2})
            else:
                t2 = (6, {"delta": d, "p": pr["p"]})
            box = {"x": (eq.domain.lo, eq.domain.hi)}
            dH = max_deviation(dbl.H, tables.double_H(t2[0], t2[1]), box, 64)
            dG = max_deviation(dbl.G, tables.double_G(t2[0], t2[1]), box, 64)
            worst = max(worst, dH, dG)
            ok = ok and dH <= 1e-8 and dG <= 1e-8
    _report(6, "the m=2 map lands on the double-imaged rows under the "
               "parameter relations",
            ok, f"max deviation {worst:.2e}, {time.time()-start:.1f}s")


# -- criterion 7: special functions -------------------------------------------------

def test_criterion_7_special_functions():
    start = time.time()
    ok = True
    worst = 0.0
    for kappa in (-1.0, -0.5, 0.3):
        mu = -kappa - 0.5
        for i in range(40):
            z = 0.1 + i * (10.0 - 0.1) / 39
            want = math.exp(z / 2) * z ** (-kappa)
            dev = abs(special.whittaker_m(kappa, mu, z) - want) / abs(want)
            worst = max(worst, dev)
            ok = ok and dev <= 1e-9
    for i in range(40):
        z = 0.1 + i * (10.0 - 0.1) / 39
        want = 0.5 * math.sqrt(math.pi) * z ** 0.25 * math.exp(z / 2) \
            * special.erf(math.sqrt(z))
        dev = abs(special.whittaker_m(-0.25, 0.25, z) - want) / abs(want)
        worst = max(worst, dev)
        ok = ok and dev <= 1e-9
    for k in (0.3, math.sqrt(2) / 2, 0.9):
        for i in range(33):
            z = -4.0 + 8.0 * i / 32
            sn, cn, dn = special.jacobi(z, k)
            id1 = abs(sn * sn + cn * cn - 1.0)
            id2 = abs(dn * dn + k * k * sn * sn - 1.0)
            ok = ok and id1 <= 1e-10 and id2 <= 1e-10
    # derivative rules against central differences at 1e-6
    from conftest import central_diff
    from rdsym.expr import diff, evaluate

    for src, pt in [("sn(x, 0.6)", 1.1), ("cn(x, 0.6)", 0.7),
                    ("dn(x, 0.6)", 1.7), ("ds(x, 0.6)", 1.2),
                    ("sd(x, 0.6)", 0.9), ("erf(x)", 0.8),
                    ("whitM(0.3, 0.25, x)", 1.5)]:
        e = parse(src)
        d = diff(e, "x")
        dev = abs(evaluate(d, {"x": pt}) - central_diff(e, "x", {"x": pt}))
        ok = ok and dev <= 1e-6 * (1 + abs(evaluate(d, {"x": pt})))
    _report(7, "special-function identities and derivative rules hold",
            ok, f"worst relative deviation {worst:.2e}, {time.time()-start:.1f}s")


# -- criterion 8: admissible classification ------------------------------------------

def _admissible_oracle(form: AdmissibleForm, m: float) -> str:
    """Literal re-implementation of the partition, written directly from
    the invariants and side conditions."""
    den = (m - 1.0) ** 2
    K2 = form.s2 + 4.0 * form.p * form.p / den
    K1 = form.s1 + 4.0 * form.p * form.q / den
    K0 = form.s0 + (form.q * form.q + 4.0 * form.p * (form.k + 2.0)) / den \
        - 2.0 * form.p / (m - 1.0)
    z = lambda v: abs(v) <= 1e-12
    if not (z(K2) and z(K1)):
        return "trivial"
    if z(K0):
        if z(form.k) and z(form.kappa):
            return "E4"
        if z(form.q - 2.0 * form.p * form.nu):
            return "E3"
        return "trivial"
    if z(form.k) and z(form.kappa):
        return "E1" if z(form.p) else "E2"
    return "trivial"


def test_criterion_8_admissible_partition():
    start = time.time()
    m = 3.0
    den = (m - 1.0) ** 2
    agree = 0
    seen = set()
    forms = []
    for i, pt in enumerate(halton_points(8, 200)):
        kind = i % 5
        p = 0.4 + pt[0] if kind in (1, 3) or pt[1] > 0.6 else 0.0
        q = -1.0 + 2.0 * pt[2]
        k = 0.0 if kind in (0, 1, 3) else round(2.0 * pt[3], 1)
        kappa = 0.0 if kind in (0, 1, 3) else round(1.5 * pt[4], 1)
        nu = -0.5 + pt[5]
        s2 = -4.0 * p * p / den if kind != 4 or pt[6] > 0.3 else 0.3
        s1 = -4.0 * p * q / den if kind != 4 or pt[6] > 0.5 else 0.7
        K0_target = (0.5 if kind in (0, 1) else 0.0) if kind != 4 else pt[7]
        s0 = K0_target - (q * q + 4.0 * p * (k + 2.0)) / den + 2.0 * p / (m - 1.0)
        if kind == 2:
            q = 2.0 * p * nu
            s1 = -4.0 * p * q / den
            s0 = -(q * q + 4.0 * p * (k + 2.0)) / den + 2.0 * p / (m - 1.0)
        forms.append(AdmissibleForm(k=k, kappa=kappa, nu=nu, p=p, q=q,
                                    s2=s2, s1=s1, s0=s0))
    for form in forms:
        got = classify_admissible(form, m)
        want = _admissible_oracle(form, m)
        seen.add(got)
        if got == want:
            agree += 1
    all_classes = seen >= {"trivial", "E1", "E2", "E3", "E4"}
    _report(8, "admissible-transformation partition agrees with the "
               "literal oracle on 200 tuples",
            agree == len(forms) and all_classes,
            f"{agree}/{len(forms)} agree, classes seen {sorted(seen)}, "
            f"{time.time()-start:.1f}s")


# -- criterion 9: equivalence invariance of classification ----------------------------

def test_criterion_9_equivalence_invariance():
    start = time.time()
    base = {
        1: {"delta": -1.0, "q": 0.7, "a1": 0.4},
        2: {"delta": 1.0, "q": -0.8},
        3: {"delta": 1.0, "k": 1.3, "a2": 0.2},
        4: {"delta": -1.0, "k": 0.6, "p": 0.9, "a2": -0.7},
        5: {"delta": 1.0, "p": 0.8, "a3": 0.3},
        6: {"delta": 1.0, "p": 0.5},
    }
    failures = []
    group_pts = halton_points(4, 50)
    for row, pr in base.items():
        eq, _ = tables.build_imaged(row, pr, M)
        for g in group_pts:
            d1 = 0.5 + 1.5 * g[0]
            d2 = -1.0 + 2.0 * g[1]
            d3 = -0.8 + 1.6 * g[2]
            d4 = (0.4 + 1.4 * g[3]) * (1.0 if g[0] > 0.3 else -1.0)
            new, _ = apply_equiv(eq, EquivParams(delta=(1, d1, d2, d3, d4, 0)),
                                 "imaged")
            got = classify_imaged(new).case
            if got != f"T1/{row}":
                failures.append((row, (d1, d2, d3, d4), got))
    _report(9, "case ids are invariant under 50 scaling-group elements per row",
            not failures, f"{6 * len(group_pts)} classifications, "
            f"{time.time()-start:.1f}s"
            + (f", failing {failures[:3]}" if failures else ""))
