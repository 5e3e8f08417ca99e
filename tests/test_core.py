"""Core distribution functions against hand values, high-precision
oracles, finite differences and quadrature."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from unitfrechet import (
    DomainError,
    FrechetParams,
    ParameterError,
    UfParams,
    biv_cdf,
    biv_pdf,
    frechet_cdf,
    frechet_pdf,
    kernel_cdf,
    kernel_pdf,
    kernel_pdf_drho,
    kernel_pdf_dx,
    kernel_quantile,
    kernel_sf,
    stress_strength,
    uf_cdf,
    uf_logpdf,
    uf_pdf,
    uf_quantile,
    uf_sample,
)
from unitfrechet import core
from unitfrechet.core import kernel_log_derivs
from unitfrechet.errors import NumericalError

# mpmath references, 30 significant digits at authoring time
UF_PDF_03_1_2_08 = 0.9481737759003594
UF_PDF_062_FOOTBALL = 1.2484708170030201
UF_CDF_03_1_2_05 = 0.1067967288822584
UF_CDF_062_FOOTBALL = 0.7586533964049936
# log densities at log kernel arguments |u| = |log x| past 700, and
# where the kernel density in linear scale would be 0 (u = 500) or
# subnormal (u = 371.2), mpmath at 1200 digits: (w, theta, log f)
UF_LOGPDF_PAST_GUARD = (
    (1e-300, (1.0, 3.0, 1.0), -3451.3927328412805),
    (1.0 - 1e-16, (1.0, 30.0, 0.5), -1062.6591663195337),
    (1.0 - 1e-16, (1.0, 30.0, 1.0), -2162.6837418681669),
    (0.9999546021312976, (1.0, 50.0, 0.5), -486.78103337738088),
    (0.9999546021312976, (1.0, 50.0, 1.0), -984.70159183574953),
    (1.0 - 2.0**-52, (1.0, 10.3, 0.5), -333.56697980411393),
)
# P(X1 > X2) in the tails, mpmath at 600 digits: (theta, value)
STRESS_STRENGTH_TAILS = (
    ((1e-50, 1.0, 1.0), 2.0000000000000000305e-100),
    ((1e-50, 1.0, 0.999), 1.0000000000000008958e-53),
    ((1e-20, 2.0, 1.0), 1.9999999999999995612e-80),
    ((1e-8, 1.0, 1.0), 1.9999999700000002837e-16),
    ((1e-101, 1.0, 1.0), 2.0000000000000002069e-202),
)
# kernel quantiles, mpmath at 80 digits: rho -> Q(p) at each p of
# KERNEL_QUANTILE_P
KERNEL_QUANTILE_P = (1e-300, 1e-100, 1e-20, 1e-13, 1e-12, 1e-11, 1e-6, 0.3, 0.5)
KERNEL_QUANTILE_MP = {
    0.0: (
        1e-300, 1e-100, 1e-20, 1.0000000000001e-13, 1.000000000001e-12,
        1.00000000001e-11, 1.000001000001e-06, 0.42857142857142855, 1.0,
    ),
    0.5: (
        2e-300, 2e-100, 2e-20, 1.9999999999994e-13, 1.999999999994e-12,
        1.99999999994e-11, 1.999994000069999e-06, 0.5160052107690031, 1.0,
    ),
    0.9: (
        1.0000000000000003e-299, 1.0000000000000002e-99, 1.0000000000000002e-19,
        9.999999999821003e-13, 9.999999998210002e-12, 9.999999982100002e-11,
        9.998210670196589e-06, 0.5855914933571033, 1.0,
    ),
    0.999: (
        9.999999999999992e-298, 9.999999999999991e-98, 9.999999999999791e-18,
        9.99999800200179e-11, 9.99998002008986e-10, 9.999800208086591e-09,
        0.0005002920652004123, 0.6024353958424438, 1.0,
    ),
    1.0 - 1e-6: (
        9.999999999712444e-295, 9.999999999712444e-95, 9.999999799712651e-15,
        8.541020889094632e-08, 5.000002916622722e-07, 2.0000035555606276e-06,
        0.0007072321019696537, 0.6026043750460688, 1.0,
    ),
    1.0 - 1e-10: (
        9.99999917259636e-291, 9.99999917259636e-91, 4.999999862391051e-11,
        2.2358183664406515e-07, 7.070821566223212e-07, 2.2360467276336315e-06,
        0.0007074820768714004, 0.6026045441672337, 1.0,
    ),
    1.0 - 1e-14: (
        1.0007999171934436e-286, 1.0007999171934436e-86, 7.070818016472285e-11,
        2.2360683275198717e-07, 7.071071536888657e-07, 2.2360717250119185e-06,
        0.0007074821018733074, 0.6026045441841458, 1.0,
    ),
    1.0: (
        7.071067811865476e-151, 7.071067811865475e-51, 7.071067812240475e-11,
        2.236068352499891e-07, 7.07107156186868e-07, 2.236071727509922e-06,
        0.0007074821018758058, 0.6026045441841476, 1.0,
    ),
}

positive = st.floats(min_value=1e-3, max_value=1e3)
rhos = st.floats(min_value=0.0, max_value=1.0)
unit_open = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def fd5(f, x, h):
    """Five-point central difference, O(h^4) truncation."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            UfParams(-1.0, 2.0, 0.5)
        with pytest.raises(ParameterError):
            UfParams(1.0, 0.0, 0.5)
        with pytest.raises(ParameterError):
            UfParams(1.0, 2.0, 1.5)
        with pytest.raises(ParameterError):
            FrechetParams(0.0, -1.0, 2.0)

    def test_coercion(self):
        th = UfParams.of((1, 2, 0.5))
        assert th == UfParams(1.0, 2.0, 0.5)
        assert UfParams.of(th) is th
        assert th.astuple() == (1.0, 2.0, 0.5)


class TestFrechet:
    def test_pdf_hand_value(self):
        # (1/0.25) * exp(-1/0.5) at x=0.5, (mu,sigma,alpha)=(0,1,1)
        assert_allclose(
            frechet_pdf(0.5, FrechetParams(0.0, 1.0, 1.0)),
            4.0 * math.exp(-2.0),
            rtol=1e-14,
        )

    def test_below_support(self):
        p = FrechetParams(0.0, 1.0, 2.0)
        assert frechet_pdf(-1.0, p) == 0.0
        assert frechet_cdf(-1.0, p) == 0.0

    def test_normalization(self):
        p = FrechetParams(0.0, 1.0, 2.0)
        total, _ = quad(lambda x: frechet_pdf(x, p), 0.0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_cdf_pdf_consistency(self):
        p = FrechetParams(0.0, 2.0, 1.5)
        for x in (0.5, 1.0, 2.0, 5.0):
            fd = fd5(lambda t: frechet_cdf(t, p), x, 1e-3 * x)
            assert_allclose(frechet_pdf(x, p), fd, rtol=1e-8)


class TestKernelPdf:
    def test_hand_value_at_one(self):
        # [8 - 0]/16 - 1/4 = 1/4
        assert_allclose(kernel_pdf(1.0, 0.0), 0.25, rtol=1e-15)

    def test_rho_zero_collapse(self):
        x = np.array([0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
        assert_allclose(kernel_pdf(x, 0.0), 1.0 / (x + 1.0) ** 2, rtol=1e-13)

    def test_integrates_to_one(self):
        total, _ = quad(lambda x: kernel_pdf(x, 0.7), 0.0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            kernel_pdf(0.0, 0.5)
        with pytest.raises(DomainError):
            kernel_pdf(-2.0, 0.5)

    @given(x=positive, rho=rhos)
    @settings(max_examples=200)
    def test_reflection_identity(self, x, rho):
        # g(1/x)/x^2 = g(x), the substitution behind all tail handling
        assert_allclose(
            kernel_pdf(1.0 / x, rho) / x**2, kernel_pdf(x, rho), rtol=1e-12
        )

    @given(x=positive, rho=rhos)
    @settings(max_examples=200)
    def test_nonnegative(self, x, rho):
        assert kernel_pdf(x, rho) >= 0.0

    def test_extreme_arguments_finite(self):
        for x in (1e-300, 1e300):
            v = kernel_pdf(x, 0.9)
            assert np.isfinite(v) and v >= 0.0


class TestKernelCdf:
    def test_half_at_one_any_rho(self):
        for rho in (0.0, 0.3, 0.7, 1.0):
            assert_allclose(kernel_cdf(1.0, rho), 0.5, rtol=1e-15)

    def test_rho_zero_value(self):
        assert_allclose(kernel_cdf(3.0, 0.0), 0.75, rtol=1e-15)

    def test_derivative_matches_pdf(self):
        # central difference at x=2, rho=0.5, h=1e-5
        h = 1e-5
        fd = (kernel_cdf(2.0 + h, 0.5) - kernel_cdf(2.0 - h, 0.5)) / (2 * h)
        assert abs(fd - kernel_pdf(2.0, 0.5)) < 1e-7

    @given(rho=rhos, a=positive, b=positive)
    @settings(max_examples=200)
    def test_monotone(self, rho, a, b):
        lo, hi = min(a, b), max(a, b)
        assert kernel_cdf(lo, rho) <= kernel_cdf(hi, rho) + 1e-15

    @given(x=positive, rho=rhos)
    @settings(max_examples=200)
    def test_sf_complements_cdf(self, x, rho):
        assert_allclose(kernel_cdf(x, rho) + kernel_sf(x, rho), 1.0, atol=1e-14)

    def test_limits(self):
        assert kernel_cdf(1e-12, 0.8) < 1e-11
        assert kernel_cdf(1e12, 0.8) > 1.0 - 1e-11


class TestKernelDerivatives:
    def test_dx_vs_finite_difference(self):
        xs = np.concatenate([np.linspace(0.1, 10.0, 23), [0.37, 2.72]])
        for rho in (0.0, 0.5, 0.9, 1.0):
            for x in xs:
                fd = fd5(lambda t: kernel_pdf(float(t), rho), x, 1e-3 * max(x, 1.0))
                assert_allclose(kernel_pdf_dx(x, rho), fd, rtol=1e-7)

    def test_drho_vs_finite_difference(self):
        for rho in (0.1, 0.5, 0.9):
            for x in (0.2, 1.0, 3.0, 8.0):
                fd = fd5(lambda r: kernel_pdf(x, float(r)), rho, 1e-4)
                assert_allclose(kernel_pdf_drho(x, rho), fd, rtol=1e-7)

    @given(x=positive, rho=rhos)
    @settings(max_examples=150)
    def test_dx_reflection(self, x, rho):
        # g'(x) = -g'(1/x)/x^4 - 2 g(x)/x, consequence of the density
        # reflection; this is what keeps the score finite in the tails
        lhs = kernel_pdf_dx(x, rho)
        rhs = -kernel_pdf_dx(1.0 / x, rho) / x**4 - 2.0 * kernel_pdf(x, rho) / x
        assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-300)

    def test_fused_density_and_ratios(self):
        # one fold yields log g and the ratios r = x g'(x)/g(x) and
        # h = (dg/drho)/g; they agree with the public density and
        # derivatives wherever those are normal doubles, and stay finite
        # far beyond: only h at rho = 1, which grows like -1/(4y) with
        # y = min(x, 1/x), overflows once y is subnormal
        u = np.concatenate([
            np.linspace(-30.0, 30.0, 61), [-0.37, 0.37, 1.0],
            np.log(10.0 ** np.linspace(-300.0, 300.0, 61)), [np.log(5e-324)],
        ])
        x = np.exp(u)
        tiny = np.finfo(float).tiny
        for rho in (0.0, 0.3, 0.5, 0.9, 1.0):
            logg, r, h, *_ = kernel_log_derivs(u, rho)
            assert np.all(np.isfinite(logg)) and np.all(np.isfinite(r))
            assert np.all(np.isfinite(h[np.abs(u) < 700.0]))
            g, dx, drho = (f(x, rho) for f in (kernel_pdf, kernel_pdf_dx, kernel_pdf_drho))
            normal = (x > tiny) & (g > tiny) & (np.abs(dx) > tiny) & (np.abs(drho) > tiny)
            assert_allclose(logg[normal], np.log(g[normal]), rtol=1e-13, atol=1e-13)
            assert_allclose(
                r[normal], x[normal] * dx[normal] / g[normal], rtol=1e-12, atol=1e-13
            )
            assert_allclose(h[normal], drho[normal] / g[normal], rtol=1e-12, atol=1e-13)

    def test_log_derivatives(self):
        # the second derivatives of log g in (u, rho) agree with central
        # differences of the first
        u = np.concatenate([np.linspace(-30.0, 30.0, 61), [-0.37, 0.37, 1.0]])
        for rho in (0.0, 0.3, 0.5, 0.9, 1.0):
            _, _, _, dr_du, dr_drho, dh_drho = kernel_log_derivs(u, rho)
            eps = 1e-5
            up, down = kernel_log_derivs(u + eps, rho), kernel_log_derivs(u - eps, rho)
            assert_allclose(dr_du, (up[1] - down[1]) / (2 * eps), atol=1e-8)
            assert_allclose(dr_drho, (up[2] - down[2]) / (2 * eps), atol=1e-8)
            if 0.0 < rho < 1.0:
                up = kernel_log_derivs(u, rho + eps)
                down = kernel_log_derivs(u, rho - eps)
                assert_allclose(dr_drho, (up[1] - down[1]) / (2 * eps), atol=1e-8)
                assert_allclose(dh_drho, (up[2] - down[2]) / (2 * eps), atol=1e-8)

    def test_log_derivatives_past_the_double_range(self):
        # x = e^u is never formed: at |u| = 800 log g is still exact
        # (g(x) ~ (1 - rho) for x -> 0, ~ (1 - rho) / x^2 for x -> inf),
        # and a column of rho values broadcasts against rows of u
        u = np.array([[-800.0, 800.0], [-800.0, 800.0]])
        rho = np.array([[0.0], [0.5]])
        logg, r, h, dr_du, dr_drho, dh_drho = kernel_log_derivs(u, rho)
        want = np.log(1.0 - rho) - 2.0 * np.maximum(u, 0.0)
        assert_allclose(logg, want, rtol=1e-15)
        assert np.array_equal(r, [[0.0, -2.0], [0.0, -2.0]])
        assert_allclose(h, -1.0 / (1.0 - rho) + 0.0 * u, rtol=1e-15)
        assert_allclose(dh_drho, -h * h, rtol=1e-15)
        assert np.all(dr_du == 0.0) and np.all(dr_drho == 0.0)
        # at rho = 1, g ~ 4y as y -> 0, so log g = log 4 - |u| - 2 max(u, 0)
        # and r = 1 (u < 0) or -3 (u > 0) to rounding, also where y is
        # subnormal (|u| > 708) or 0 (> 745), and quietly
        u = np.array([720.0, 735.1, 744.0, 746.0, 800.0])
        u = np.concatenate([-u, u])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logg, r, *_ = kernel_log_derivs(u, 1.0)
        want = math.log(4.0) - np.abs(u) - 2.0 * np.maximum(u, 0.0)
        assert_allclose(logg, want, rtol=1e-15)
        assert np.array_equal(r, np.where(u > 0.0, -3.0, 1.0))


class TestKernelQuantile:
    def test_median_is_one(self):
        for rho in (0.0, 0.4, 1.0):
            assert_allclose(kernel_quantile(0.5, rho), 1.0, rtol=1e-12)

    @given(p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9), rho=rhos)
    @settings(max_examples=300)
    def test_roundtrip(self, p, rho):
        x = kernel_quantile(p, rho)
        assert_allclose(kernel_cdf(x, rho), p, rtol=1e-10, atol=1e-12)

    @given(p=st.floats(min_value=1e-4, max_value=0.5), rho=rhos)
    @settings(max_examples=150)
    def test_reflection(self, p, rho):
        # p bounded away from 0 so that the complement 1-p is exact to
        # ~1e-12 relative; below that the comparison only measures how
        # 1-p rounds, not the quantile
        assert_allclose(
            kernel_quantile(1.0 - p, rho),
            1.0 / kernel_quantile(p, rho),
            rtol=1e-9,
        )

    def test_tiny_p(self):
        for rho in (0.0, 0.9, 1.0):
            for p in (1e-13, 1e-30, 1e-200):
                x = kernel_quantile(p, rho)
                assert 0.0 < x < 1.0
                assert_allclose(kernel_cdf(x, rho), p, rtol=1e-9)

    def test_against_high_precision(self):
        # small p near rho = 1 need the quadratic term of G's expansion:
        # G ~ (1 - rho) x alone holds only for p << (1 - rho)^2
        p = np.array(KERNEL_QUANTILE_P)
        for rho, want in KERNEL_QUANTILE_MP.items():
            x = kernel_quantile(p, rho)
            assert_allclose(x, want, rtol=1e-13)
            assert_allclose(kernel_cdf(x, rho), p, rtol=1e-13)

    def test_independent_of_order_and_splitting(self):
        # every element stops on its own step test, across both starts
        # and both cubic branches (mixed at rho = 0) and the elements
        # near p = 1e-12 that take a second step
        rng = np.random.default_rng(12)
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 3000),
            np.exp(rng.uniform(-700.0, -20.0, 300)),
            np.geomspace(1e-14, 1e-10, 300),
        ])
        perm = rng.permutation(p.size)
        for rho in (0.0, 0.5, 1.0 - 1e-10, 1.0):
            x = kernel_quantile(p, rho)
            assert np.array_equal(kernel_quantile(p[perm], rho), x[perm])
            parts = [kernel_quantile(p[i:i + 7], rho) for i in range(0, p.size, 7)]
            assert np.array_equal(np.concatenate(parts), x)

    def test_subnormal_p(self):
        # the Newton loop still stops, quietly, where G - p is subnormal
        for rho in (0.0, 0.7, 1.0 - 1e-14, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = kernel_quantile(np.array([5e-324, 1e-310, 2.2e-308]), rho)
            assert np.all(x > 0.0)
        # at rho = 1, Q(p) = sqrt(p / 2) to rounding for such p
        want = math.sqrt(1e-310) / math.sqrt(2.0)
        assert_allclose(kernel_quantile(1e-310, 1.0), want, rtol=1e-15)

    def test_iteration_cap(self, monkeypatch):
        # (1e-13, 1 - 1e-10) takes two steps from its start
        monkeypatch.setattr(core, "QUANTILE_MAX_ITER", 1)
        with pytest.raises(NumericalError):
            kernel_quantile(1e-13, 1.0 - 1e-10)


class TestUfPdf:
    def test_hand_value(self):
        # s=1, so the prefactor is 4 and g(1;0)=1/4
        assert_allclose(uf_pdf(0.5, UfParams(1.0, 1.0, 0.0)), 1.0, rtol=1e-14)

    def test_against_high_precision(self):
        assert_allclose(
            uf_pdf(0.3, UfParams(1.0, 2.0, 0.8)), UF_PDF_03_1_2_08, rtol=1e-13
        )
        assert_allclose(
            uf_pdf(0.62, UfParams(0.8, 1.06, 0.82)), UF_PDF_062_FOOTBALL, rtol=1e-13
        )

    def test_symmetry_at_unit_sigma(self):
        th = UfParams(1.0, 2.0, 0.8)
        assert_allclose(uf_pdf(0.3, th), uf_pdf(0.7, th), rtol=1e-13)

    def test_normalization_football(self):
        th = UfParams(0.8, 1.06, 0.82)
        total, _ = quad(lambda w: uf_pdf(w, th), 0.0, 1.0, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_outside_support_raises(self):
        th = UfParams(1.0, 1.0, 0.5)
        for w in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                uf_pdf(w, th)

    def test_matches_exp_logpdf(self):
        th = UfParams(2.0, 3.0, 0.6)
        w = np.linspace(0.05, 0.95, 19)
        assert_allclose(uf_pdf(w, th), np.exp(uf_logpdf(w, th)), rtol=1e-13)

    def test_past_the_kernel_guard(self):
        # a kernel argument clipped at exp(+-700) read -2079.07 for the
        # first, a linear kernel density -inf for the next four and
        # -333.716 for the last
        for w, th, want in UF_LOGPDF_PAST_GUARD:
            assert_allclose(uf_logpdf(w, th), want, rtol=1e-12)
            # an ordinary point keeps its value in a mixed array
            assert uf_logpdf(np.array([w, 0.3]), th)[1] == uf_logpdf(0.3, th)

    def test_bracketed_form_oracle(self):
        # independent route: the density written as a single bracket,
        # alpha sigma^alpha s^(alpha-1) (s+1)^2 *
        #   { [2(x+1)^2 - rho(x^2+1)] / ((x+1)^2 - rho x)^2 - 1/(x+1)^2 }
        # with x = (s/sigma)^alpha, evaluated without any reflection trick
        th = UfParams(0.8, 1.06, 0.82)
        for w in (0.1, 0.3, 0.5, 0.62, 0.9):
            s = w / (1.0 - w)
            x = (s / th.sigma) ** th.alpha
            brace = (2 * (x + 1) ** 2 - th.rho * (x**2 + 1)) / (
                (x + 1) ** 2 - th.rho * x
            ) ** 2 - 1.0 / (x + 1) ** 2
            direct = (
                th.alpha / th.sigma**th.alpha * s ** (th.alpha - 1) * (s + 1) ** 2 * brace
            )
            assert_allclose(uf_pdf(w, th), direct, rtol=1e-12)


class TestUfCdf:
    def test_half_at_sigma_one(self):
        for alpha in (0.5, 1.0, 9.0):
            for rho in (0.0, 0.5, 1.0):
                assert_allclose(
                    uf_cdf(0.5, UfParams(1.0, alpha, rho)), 0.5, rtol=1e-14
                )

    def test_rho_zero_closed_form(self):
        # F(0.5) = 0.5/(0.5 + 2*0.5) = 1/3 at sigma=2, alpha=1
        assert_allclose(uf_cdf(0.5, UfParams(2.0, 1.0, 0.0)), 1.0 / 3.0, rtol=1e-14)

    def test_against_high_precision(self):
        assert_allclose(
            uf_cdf(0.3, UfParams(1.0, 2.0, 0.5)), UF_CDF_03_1_2_05, rtol=1e-13
        )
        assert_allclose(
            uf_cdf(0.62, UfParams(0.8, 1.06, 0.82)), UF_CDF_062_FOOTBALL, rtol=1e-13
        )

    def test_right_tail(self):
        # close to 1 at w=0.999999 when the odds-to-kernel map does not
        # shrink the argument (alpha >= 1, sigma <= 1). The identity-map
        # corner (1, 1, 0) lands exactly on 1 - 1e-6, hence the slack.
        for th in (UfParams(1.0, 1.0, 0.0), UfParams(0.5, 2.0, 0.9), UfParams(1.0, 4.0, 1.0)):
            assert uf_cdf(0.999999, th) > 1.0 - 1.1e-6

    def test_clamp_semantics(self):
        th = UfParams(1.0, 2.0, 0.5)
        assert uf_cdf(0.0, th) == 0.0
        assert uf_cdf(-3.0, th) == 0.0
        assert uf_cdf(1.0, th) == 1.0
        assert uf_cdf(2.0, th) == 1.0

    def test_pdf_is_cdf_derivative(self):
        th = UfParams(0.7, 1.8, 0.6)
        for w in np.linspace(0.1, 0.9, 9):
            fd = fd5(lambda t: uf_cdf(float(t), th), w, 1e-4)
            assert_allclose(uf_pdf(float(w), th), fd, rtol=1e-6)

    def test_deep_lower_tail(self):
        # against the rho = 0 closed form w^a / (w^a + sigma^a (1-w)^a);
        # a log kernel argument clipped at -700 floors all three near
        # exp(-700) = 9.9e-305
        assert_allclose(uf_cdf(1e-160, (1.0, 2.0, 0.0)), 1e-320, rtol=1e-2)  # subnormal
        assert_allclose(uf_cdf(1e-305, (1.0, 1.0, 0.0)), 1e-305, rtol=1e-12)
        assert uf_cdf(1e-200, (1.0, 4.0, 0.5)) == 0.0

    @given(w=unit_open, sigma=positive, alpha=st.floats(0.2, 8.0), rho=rhos)
    @settings(max_examples=200)
    def test_in_unit_interval(self, w, sigma, alpha, rho):
        v = uf_cdf(w, UfParams(sigma, alpha, rho))
        assert 0.0 <= v <= 1.0


class TestUfQuantile:
    def test_median_closed_form(self):
        # x=1 solves the median cubic for every rho, so Q(1/2)=sigma/(1+sigma)
        for sigma in (0.25, 1.0, 3.0, 40.0):
            for rho in (0.0, 0.5, 0.9):
                th = UfParams(sigma, 1.7, rho)
                assert_allclose(
                    uf_quantile(0.5, th), sigma / (1.0 + sigma), rtol=1e-12
                )

    def test_quartile_symmetry(self):
        th = UfParams(1.0, 2.0, 0.5)
        q25 = uf_quantile(0.25, th)
        q75 = uf_quantile(0.75, th)
        assert abs(q25 + q75 - 1.0) < 1e-10

    @given(
        p=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        sigma=positive,
        alpha=st.floats(0.3, 6.0),
        rho=rhos,
    )
    @settings(max_examples=300)
    def test_roundtrip(self, p, sigma, alpha, rho):
        th = UfParams(sigma, alpha, rho)
        w = uf_quantile(p, th)
        assert 0.0 < w < 1.0
        # once w is within ~1e-11 of 1 the spacing of doubles near 1
        # dominates the roundtrip error, so only test below that
        assume(w < 1.0 - 1e-11)
        assert_allclose(uf_cdf(w, th), p, rtol=1e-9, atol=1e-12)

    def test_invalid_p(self):
        th = UfParams(1.0, 1.0, 0.5)
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                uf_quantile(p, th)


class TestUfSample:
    def test_n_validation(self):
        th = UfParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            uf_sample(th, 0, 42)

    def test_single_draw_support(self):
        v = uf_sample(UfParams(1.0, 1.0, 0.0), 1, 42)
        assert v.shape == (1,)
        assert 0.0 < v[0] < 1.0

    def test_deterministic(self):
        th = UfParams(1.0, 2.0, 0.5)
        a = uf_sample(th, 1000, 7)
        b = uf_sample(th, 1000, 7)
        assert np.array_equal(a, b)

    def test_empirical_median(self):
        w = uf_sample(UfParams(1.0, 2.0, 0.5), 10**5, 31)
        assert abs(np.median(w) - 0.5) < 0.01

    def test_empirical_cdf_rho_zero(self):
        # F(0.5) = 1/(1+2^3) = 1/9 at sigma=2, alpha=3, rho=0
        w = uf_sample(UfParams(2.0, 3.0, 0.0), 10**5, 17)
        assert abs(np.mean(w <= 0.5) - 1.0 / 9.0) < 0.005

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9, 0.999, 1.0])
    def test_no_runtime_warnings(self, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = uf_sample(UfParams(1.0, 2.0, rho), 10**5, 44)
        assert np.all((w > 0.0) & (w < 1.0))

    def test_ks_against_own_cdf(self):
        th = UfParams(0.7, 1.3, 0.8)
        w = np.sort(uf_sample(th, 10**5, 99))
        n = len(w)
        fv = uf_cdf(w, th)
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - fv), np.max(fv - (i - 1) / n))
        assert d < 1.63 / math.sqrt(n)


class TestStressStrength:
    def test_symmetric(self):
        for alpha in (0.5, 2.0):
            for rho in (0.0, 0.7, 1.0):
                assert_allclose(
                    stress_strength(UfParams(1.0, alpha, rho)), 0.5, rtol=1e-14
                )

    def test_rho_zero_closed_form(self):
        assert_allclose(
            stress_strength(UfParams(2.0, 1.0, 0.0)), 2.0 / 3.0, rtol=1e-14
        )

    def test_identity_with_cdf(self):
        th = UfParams(0.8064, 1.0590, 0.8235)
        assert abs(stress_strength(th) - (1.0 - uf_cdf(0.5, th))) < 1e-14

    @given(sigma=positive, alpha=st.floats(0.2, 8.0), rho=rhos)
    @settings(max_examples=200)
    def test_identity_property(self, sigma, alpha, rho):
        th = UfParams(sigma, alpha, rho)
        assert abs(stress_strength(th) - (1.0 - uf_cdf(0.5, th))) < 1e-13

    def test_extreme_sigma(self):
        assert stress_strength(UfParams(1e280, 2.0, 0.3)) > 1.0 - 1e-12
        assert stress_strength(UfParams(1e-280, 2.0, 0.3)) < 1e-12

    def test_tails_against_high_precision(self):
        # a closed form in sigma**-alpha cancels to ~1e-16 here
        for th, want in STRESS_STRENGTH_TAILS:
            assert_allclose(stress_strength(th), want, rtol=1e-12)


EDGE_W = np.array([5e-324, 1e-300, 1e-100, 0.3, 0.5, 0.9, 1.0 - 2.0**-53])


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("sigma", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_edge_sweep(alpha, sigma, rho):
    # the UF functions on the unclipped log kernel argument, at every
    # corner of the parameter box and both ends of (0, 1): quiet, finite
    # and in range
    th = UfParams(sigma, alpha, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logf = uf_logpdf(EDGE_W, th)
        cdf = uf_cdf(EDGE_W, th)
        ss = stress_strength(th)
    assert np.all(np.isfinite(logf))
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= 0.0)
    assert 0.0 <= ss <= 1.0


WITH_NAN = np.array([0.3, math.nan])


@pytest.mark.parametrize(
    "fn, args",
    [
        (frechet_pdf, (WITH_NAN, (0.0, 1.0, 2.0))),
        (frechet_cdf, (WITH_NAN, (0.0, 1.0, 2.0))),
        (kernel_pdf, (WITH_NAN, 0.5)),
        (kernel_cdf, (WITH_NAN, 0.5)),
        (kernel_sf, (WITH_NAN, 0.5)),
        (kernel_pdf_dx, (WITH_NAN, 0.5)),
        (kernel_pdf_drho, (WITH_NAN, 0.5)),
        (kernel_quantile, (WITH_NAN, 0.5)),
        (uf_pdf, (WITH_NAN, (1.0, 2.0, 0.5))),
        (uf_logpdf, (WITH_NAN, (1.0, 2.0, 0.5))),
        (uf_cdf, (WITH_NAN, (1.0, 2.0, 0.5))),
        (uf_cdf, (math.nan, (1.0, 2.0, 0.5))),
        (uf_quantile, (WITH_NAN, (1.0, 2.0, 0.5))),
        (biv_cdf, (WITH_NAN, 1.0, (1.0, 2.0, 2.0, 0.5))),
        (biv_cdf, (1.0, math.nan, (1.0, 2.0, 2.0, 0.5))),
        (biv_pdf, (WITH_NAN, 1.0, (1.0, 2.0, 2.0, 0.5))),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_nan_argument_raises(fn, args):
    with pytest.raises(DomainError):
        fn(*args)
