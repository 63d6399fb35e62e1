import math
from fractions import Fraction

import numpy as np
import pytest

from rdsym import special
from rdsym.expr import EvalDomainError, evaluate, parse
from conftest import fn_central_diff


def kummer_series_oracle(a, b, z, terms=200):
    """Exact-rational long series for M(a,b,z); independent of the kernel."""
    a, b, z = Fraction(a), Fraction(b), Fraction(z)
    total = Fraction(1)
    term = Fraction(1)
    for n in range(terms):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
    return float(total)


def agm_oracle_K(k):
    """Complete elliptic integral K(k) by a plain AGM loop."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(40):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2 * a)


class TestKummer:
    def test_unit_at_origin(self):
        assert special.kummer_m(0.7, 1.3, 0.0) == 1.0

    def test_exponential_closed_form(self):
        for z in (0.5, 2.0, -3.0, 10.0):
            assert abs(special.kummer_m(1, 1, z) - math.exp(z)) <= 1e-11 * math.exp(z)

    @pytest.mark.parametrize("a,b,z", [
        (0.5, 1.5, 1.0), (-0.25, 0.75, 2.0), (2.0, 0.5, -4.0),
        (1.25, 2.5, 10.0), (0.3, -0.6, 3.0),
    ])
    def test_against_long_series_oracle(self, a, b, z):
        want = kummer_series_oracle(a, b, z)
        got = special.kummer_m(a, b, z)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    @pytest.mark.parametrize("a,b", [
        (0.1, 0.5), (1.3, 1.5), (2.0, 2.25), (6.1, 0.5), (8.0, 4.0), (-2.5, 1.5),
    ])
    def test_negative_argument_against_mpmath(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        for z in (-30.0, -25.0, -17.3, -9.9, -4.1, -1.0, -0.2, -1e-3):
            want = float(mpmath.hyp1f1(a, b, z))
            got = special.kummer_m(a, b, z)
            assert abs(got - want) <= 1e-10 * max(abs(want), math.exp(z)), (a, b, z)

    def test_parameter_pole(self):
        with pytest.raises(special.SpecialFunctionError):
            special.kummer_m(1.0, -2.0, 1.0)

    def test_argument_range(self):
        with pytest.raises(special.SpecialFunctionError):
            special.kummer_m(1.0, 2.0, 40.0)


class TestWhittaker:
    def test_elementary_value(self):
        # M_{-1/2,0}(1) = e^{1/2}
        assert abs(special.whittaker_m(-0.5, 0.0, 1.0) - math.exp(0.5)) < 1e-10
        assert abs(special.whittaker_m(-0.5, 0.0, 1.0) - 1.6487212707) < 1e-9

    @pytest.mark.parametrize("kappa", [-1.0, -0.5, 0.3])
    def test_closed_form_identity(self, kappa):
        # M_{k, -k-1/2}(z) = e^{z/2} z^{-k}
        mu = -kappa - 0.5
        for i in range(25):
            z = 0.1 + i * (10.0 - 0.1) / 24
            want = math.exp(z / 2) * z ** (-kappa)
            got = special.whittaker_m(kappa, mu, z)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_erf_representation(self):
        # M_{-1/4,1/4}(z) = (sqrt(pi)/2) z^(1/4) e^(z/2) erf(sqrt(z))
        for i in range(30):
            z = 0.1 + i * (10.0 - 0.1) / 29
            want = 0.5 * math.sqrt(math.pi) * z ** 0.25 * math.exp(z / 2) \
                * math.erf(math.sqrt(z))
            got = special.whittaker_m(-0.25, 0.25, z)
            assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("kappa,mu,z", [
        (0.3, 0.25, 2.0), (-0.875, 0.11180339887498949, 5.0), (1.2, 0.8, 0.7),
    ])
    def test_against_series_oracle(self, kappa, mu, z):
        a = Fraction(mu - kappa + 0.5)
        b = Fraction(1 + 2 * mu)
        want = math.exp(-z / 2) * z ** (mu + 0.5) * kummer_series_oracle(a, b, z)
        got = special.whittaker_m(kappa, mu, z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_negative_argument_rejected(self):
        with pytest.raises(special.SpecialFunctionError):
            special.whittaker_m(0.3, 0.25, -1.0)


class TestJacobi:
    def test_origin(self):
        assert special.jacobi(0.0, 0.5) == (0.0, 1.0, 1.0)

    def test_quarter_period(self):
        k = math.sqrt(2) / 2
        K = agm_oracle_K(k)
        assert abs(K - 1.854074677301372) < 1e-12
        sn, cn, dn = special.jacobi(K, k)
        assert abs(sn - 1.0) < 1e-10
        assert abs(cn) < 1e-10
        assert abs(dn - math.sqrt(1 - k * k)) < 1e-10

    @pytest.mark.parametrize("k", [0.3, math.sqrt(2) / 2, 0.9])
    def test_pythagorean_identities(self, k):
        for i in range(41):
            z = -4.0 + 8.0 * i / 40
            sn, cn, dn = special.jacobi(z, k)
            assert abs(sn * sn + cn * cn - 1.0) <= 1e-10
            assert abs(dn * dn + k * k * sn * sn - 1.0) <= 1e-10

    def test_parity(self):
        for z in (0.4, 1.3, 2.8):
            s1, c1, d1 = special.jacobi(z, 0.4)
            s2, c2, d2 = special.jacobi(-z, 0.4)
            assert abs(s1 + s2) < 1e-12
            assert abs(c1 - c2) < 1e-12
            assert abs(d1 - d2) < 1e-12

    @pytest.mark.parametrize("k", [0.3, 0.7])
    def test_derivative_relations(self, k):
        for z in (0.3, 1.2, 2.1, -1.6):
            sn, cn, dn = special.jacobi(z, k)
            dsn = fn_central_diff(lambda y: special.jacobi(y, k)[0], z)
            dcn = fn_central_diff(lambda y: special.jacobi(y, k)[1], z)
            ddn = fn_central_diff(lambda y: special.jacobi(y, k)[2], z)
            assert abs(dsn - cn * dn) <= 1e-6
            assert abs(dcn + sn * dn) <= 1e-6
            assert abs(ddn + k * k * sn * cn) <= 1e-6

    def test_modulus_range(self):
        with pytest.raises(special.SpecialFunctionError):
            special.jacobi(1.0, 1.5)


class TestMpmathOracles:
    """jacobi, whittaker_m and erf against mpmath over the domains the
    kernels accept, on arrays and on the scalar forms, which run the same
    code.  Parameters are exact in binary, so that mpmath sees the
    kernel's own inputs."""

    K = [1e-6, 0.05, 0.3, 0.5, math.sqrt(2) / 2, 0.9, 0.99, 0.999, 0.999999]
    Z = [*np.linspace(-100.0, 100.0, 81), 0.0, 1e-8, -1e-8]

    def test_jacobi(self):
        mpmath = pytest.importorskip("mpmath")
        zs, ks = np.meshgrid(self.Z, self.K)
        got = special.jacobi(zs, ks)
        with mpmath.workdps(30):
            for (i, j), z in np.ndenumerate(zs):
                k = ks[i, j]
                for part, name in zip(got, ("sn", "cn", "dn")):
                    want = float(mpmath.ellipfun(name, z, m=mpmath.mpf(k) ** 2))
                    assert abs(part[i, j] - want) <= 1e-13, (name, z, k)
                if j % 10 == 0:
                    assert special.jacobi(z, k) == tuple(p[i, j] for p in got)

    @pytest.mark.parametrize("kappa", [-2.0, -0.5, 0.0, 0.25, 1.25, 2.5, 4.0])
    def test_whittaker(self, kappa):
        mpmath = pytest.importorskip("mpmath")
        zs = np.array([*np.geomspace(1e-3, 30.0, 25), 30.0])
        for mu in (-0.375, 0.0, 0.25, 0.75, 1.5, 3.0):
            got = special.whittaker_m(kappa, mu, zs)
            with mpmath.workdps(30):
                for z, g in zip(zs, got):
                    want = float(mpmath.whitm(kappa, mu, z))
                    assert abs(g - want) <= 1e-11 * abs(want), (kappa, mu, z)
            assert special.whittaker_m(kappa, mu, zs[7]) == got[7]

    def test_whittaker_outside_its_domain_is_nan(self):
        got = special.whittaker_m(0.3, 0.25, np.array([-1.0, 0.0, 1.0]))
        assert np.isnan(got[:2]).all() and np.isfinite(got[2])

    def test_erf(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.array([*np.linspace(-10.0, 10.0, 401), 0.0, 3.2, -3.2, 6.5, -6.5,
                       3.2000000000000006, 1e-300, -1e-10, math.inf, -math.inf])
        got = special.erf(xs)
        with mpmath.workdps(30):
            for x, g in zip(xs, got):
                assert abs(g - float(mpmath.erf(x))) <= 1e-12, x
                assert special.erf(x) == g


def ds(z, k):
    return evaluate(parse("ds(z, k)"), {"z": z, "k": k})


def sd(z, k):
    return evaluate(parse("sd(z, k)"), {"z": z, "k": k})


class TestDsSd:
    def test_sd_at_origin(self):
        assert sd(0.0, 0.5) == 0.0

    def test_reciprocal_relation(self):
        for i in range(32):
            z = 0.2 + i * 0.11
            try:
                v = ds(z, 0.6) * sd(z, 0.6)
            except EvalDomainError:
                continue
            assert abs(v - 1.0) <= 1e-10

    def test_small_argument_series(self):
        # ds behaves like 1/z near the origin
        assert abs(1e-4 * ds(1e-4, 0.5) - 1.0) < 1e-7

    def test_pole_guard(self):
        with pytest.raises(EvalDomainError):
            ds(0.0, 0.5)


class TestErf:
    def test_origin(self):
        assert special.erf(0.0) == 0.0

    def test_parity(self):
        for x in (0.3, 1.1, 2.7, 4.5):
            assert special.erf(-x) == -special.erf(x)

    def test_against_quadrature_oracle(self):
        # 2/sqrt(pi) int_0^x exp(-t^2) dt by a 40-node Gauss-Legendre rule
        nodes, weights = np.polynomial.legendre.leggauss(40)
        for x in (0.25, 1.0, 2.0, 3.0, 3.5, 5.0):
            t = 0.5 * x * (nodes + 1.0)
            want = x / math.sqrt(math.pi) * (weights @ np.exp(-t * t))
            assert abs(special.erf(x) - want) <= 1e-12

    def test_asymptote(self):
        assert special.erf(10.0) == 1.0
        assert abs(special.erf(5.5) - 1.0) < 1e-12


class TestHermiteTable:
    def test_reproduces_smooth_function(self):
        xs = [0.1 * i for i in range(31)]
        ys = [math.sin(v) for v in xs]
        ds = [math.cos(v) for v in xs]
        cs = [-math.sin(v) for v in xs]
        grid, coeffs = special.hermite_table(xs, ys, ds, cs)
        for t in (0.137, 1.04, 2.555, 2.999):
            assert abs(special.hermite_eval(grid, coeffs, t, 0) - math.sin(t)) < 1e-10
            assert abs(special.hermite_eval(grid, coeffs, t, 1) - math.cos(t)) < 1e-9
            assert abs(special.hermite_eval(grid, coeffs, t, 2) + math.sin(t)) < 1e-6

    def test_out_of_range(self):
        grid, coeffs = special.hermite_table([0.0, 1.0], [0.0, 1.0], [1.0, 1.0],
                                             [0.0, 0.0])
        with pytest.raises(special.SpecialFunctionError):
            special.hermite_eval(grid, coeffs, 2.0)


def test_ds_at_quarter_period_matches_agm_oracle():
    k = math.sqrt(2) / 2
    K = agm_oracle_K(k)
    # ds(K, k) = dn/sn = sqrt(1-k^2)
    assert abs(ds(K, k) - math.sqrt(1 - k * k)) < 1e-10
