"""Core distribution functions against hand values, high-precision
oracles, finite differences and quadrature."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from unitfrechet import (
    BivParams,
    DomainError,
    FrechetParams,
    MomentInputs,
    ParameterError,
    UfParams,
    approx_moment,
    biv_cdf,
    biv_pdf,
    biv_sample,
    frechet_cdf,
    frechet_pdf,
    kernel_cdf,
    kernel_pdf,
    kernel_pdf_drho,
    kernel_pdf_dx,
    kernel_quantile,
    kernel_sf,
    ratio_transform,
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
# kernel derivatives from subnormal x to the largest double, from the
# two-fraction closed forms in mpmath at 2600 digits (the expanded
# numerator of g' cancels about 1850 digits at 1.7e308): rho -> g'(x)
# and rho -> dg/drho at each x of KERNEL_TAIL_X; literals past the
# double range read as 0
KERNEL_TAIL_X = (5e-324, 1e-310, 1e-300, 1e-150, 1.0, 1e110, 1e150, 1e300, 1.7e308)
KERNEL_DX_TAILS = {
    0.0: (
        -2.0, -2.0, -2.0, -2.0, -2.5e-1, -1.9999999999999999e-330,
        -2.0000000000000001e-450, -1.9999999999999997e-900,
        -4.0708324852432327e-925,
    ),
    0.5: (
        1.5, 1.5, 1.5, 1.5, -3.2142857142857143e-1, -9.9999999999999993e-331,
        -1.0000000000000001e-450, -9.9999999999999984e-901,
        -2.0354162426216163e-925,
    ),
    0.9: (
        3.5800000000000001, 3.5800000000000001, 3.5800000000000001,
        3.5800000000000001, -3.9516129032258065e-1, -1.9999999999999994e-331,
        -1.9999999999999997e-451, -1.9999999999999992e-901,
        -4.0708324852432318e-926,
    ),
    1.0: (
        4.0, 4.0, 4.0, 4.0, -4.1666666666666667e-1, -1.1999999999999999e-439,
        -1.2000000000000001e-599, -1.1999999999999997e-1199,
        -1.4367644065564351e-1232,
    ),
}
KERNEL_DRHO_TAILS = {
    0.0: (
        -1.0, -1.0, -1.0, -1.0, 1.25e-1, -9.9999999999999995e-221, -1.0e-300,
        -9.9999999999999989e-601, -3.4602076124567477e-617,
    ),
    0.5: (
        -1.0, -1.0, -1.0, -1.0, 1.6326530612244898e-1, -9.9999999999999995e-221,
        -1.0e-300, -9.9999999999999989e-601, -3.4602076124567477e-617,
    ),
    0.9: (
        -1.0, -1.0, -1.0, -1.0, 2.081165452653486e-1, -9.9999999999999995e-221,
        -1.0e-300, -9.9999999999999989e-601, -3.4602076124567477e-617,
    ),
    1.0: (
        -1.0, -1.0, -1.0, -1.0, 2.2222222222222222e-1, -9.9999999999999995e-221,
        -1.0e-300, -9.9999999999999989e-601, -3.4602076124567477e-617,
    ),
}
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

    @pytest.mark.parametrize(
        "record, names",
        [(UfParams, "sigma, alpha, rho"), (FrechetParams, "mu, sigma, alpha"),
         (BivParams, "sigma1, sigma2, alpha, rho")],
        ids=("UfParams", "FrechetParams", "BivParams"),
    )
    def test_of_rejects_wrong_count(self, record, names):
        # one shared rule, whose message names the record's fields
        for values in ((1.0, 2.0), (1.0, 2.0, 0.5, 0.5, 0.5)):
            with pytest.raises(ParameterError) as info:
                record.of(values)
            assert str(info.value) == f"expected ({names}), got {len(values)} values"

    def test_coercion(self):
        th = UfParams.of((1, 2, 0.5))
        assert th == UfParams(1.0, 2.0, 0.5)
        assert UfParams.of(th) is th
        assert th.astuple() == (1.0, 2.0, 0.5)

    # records built from one value: (constructor, the field it lands in)
    RECORD_FIELDS = {
        "UfParams.of-sigma": (lambda v: UfParams.of((v, 2, 0.5)), "sigma"),
        "UfParams-alpha": (lambda v: UfParams(1.0, v, 0.5), "alpha"),
        "UfParams.of-rho": (lambda v: UfParams.of((1, 2, v)), "rho"),
        "BivParams.of-sigma2": (lambda v: BivParams.of((1, v, 2, 0.5)), "sigma2"),
        "BivParams-rho": (lambda v: BivParams(1.0, 1.0, 2.0, v), "rho"),
        "FrechetParams-mu": (lambda v: FrechetParams(v, 1.0, 2.0), "mu"),
        "FrechetParams.of-alpha": (lambda v: FrechetParams.of((0, 1, v)), "alpha"),
        "MomentInputs-mu1": (lambda v: MomentInputs(mu1=v, mu2=1.0), "mu1"),
        "MomentInputs-var2": (
            lambda v: MomentInputs(mu1=1.0, mu2=1.0, var1=0.5, var2=v), "var2"
        ),
        "MomentInputs-cov": (lambda v: MomentInputs(mu1=1.0, mu2=1.0, cov=v), "cov"),
        "MomentInputs.with_cov": (
            lambda v: MomentInputs(mu1=1.0, mu2=1.0).with_cov(v), "cov"
        ),
    }

    @pytest.mark.parametrize("record", RECORD_FIELDS)
    @pytest.mark.parametrize(
        "value", ["a", 10**400, [1.0, 2.0], 1j], ids=("text", "huge", "list", "complex")
    )
    def test_unconvertible_value_names_its_field(self, record, value):
        # one conversion rule: a value float() cannot take, 10**400 past
        # the double range included, is a ParameterError naming the field
        build, field = self.RECORD_FIELDS[record]
        with pytest.raises(ParameterError) as info:
            build(value)
        assert str(info.value) == (
            f"{field} must be a number within the double range, got {value!r}"
        )

    def test_unconvertible_values_elsewhere(self):
        huge = 10**400
        for call in (
            lambda: UfParams.of((None, 2, 0.5)),
            lambda: FrechetParams(None, 1.0, 2.0),
            lambda: UfParams.of(5),
            lambda: uf_cdf(0.5, (huge, 2, 0.5)),
            lambda: stress_strength((1, huge, 0.5)),
            lambda: biv_sample((1, 1, huge, 0.5), 5, 1),
            lambda: frechet_pdf(0.5, (0, huge, 2)),
            lambda: kernel_pdf(0.5, "a"),
            lambda: approx_moment(huge, MomentInputs(1.0, 1.0, 0.01, 0.01, 0.0)),
        ):
            with pytest.raises(ParameterError):
                call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: uf_pdf("a", (1, 2, 0.5)), "w"),
            (lambda: kernel_cdf("x", 0.5), "x"),
            (lambda: uf_pdf(10**400, (1, 2, 0.5)), "w"),
            (lambda: uf_quantile(10**400, (1, 2, 0.5)), "p"),
            (lambda: biv_cdf(10**400, 1, (1, 1, 2, 0.5)), "x1"),
            (lambda: ratio_transform([[10**400, 1]]), "pair entries"),
            (lambda: uf_cdf([[0.1, 0.2], [0.3]], (1, 2, 0.5)), "w"),
        ],
        ids=("text", "text-kernel", "huge", "huge-quantile", "huge-biv", "huge-pairs",
             "ragged"),
    )
    def test_unconvertible_array_argument_names_it(self, call, name):
        # prepare's one rule: an argument numpy cannot hold as an array of
        # doubles is a DomainError naming the argument
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == f"{name} must be a double or a regular array of doubles"

    def test_records_hold_floats(self):
        # numeric strings stay accepted, and every record stores floats
        assert UfParams.of(("1", "2", "0.5")) == UfParams(1.0, 2.0, 0.5)
        for record in (
            UfParams("1", 2, np.float64(0.5)),
            BivParams(1, "2", 3, 0),
            FrechetParams(0, 1, "2"),
            MomentInputs(mu1=1, mu2="2", var1=0, var2=np.float32(1), cov=0),
        ):
            values = [getattr(record, f.name) for f in dataclasses.fields(record)]
            assert all(type(v) is float for v in values), record


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

    def test_past_the_double_range_is_quiet(self):
        # z = (x - mu) / sigma = 1e600 reads inf: the CDF is 1 there and
        # the density 0, without an overflow warning
        p = FrechetParams(0.0, 1e-300, 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frechet_cdf(1e300, p) == 1.0
            assert frechet_pdf(1e300, p) == 0.0

    def test_underflowing_z_is_quiet(self):
        # z = 5e-324 / 10 underflows to 0, where the CDF and the density
        # are 0; at alpha = 1e-3 and z = 5e-324 the density lies past the
        # largest double, and at alpha = 1e308 and z = 1e-10 both z**-alpha
        # and z**(-alpha-1) overflow, where the density is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frechet_pdf(5e-324, (0.0, 10.0, 2.0)) == 0.0
            assert frechet_cdf(5e-324, (0.0, 10.0, 2.0)) == 0.0
            assert frechet_pdf(5e-324, (0.0, 1.0, 1e-3)) == np.inf
            assert frechet_pdf(1e-10, (0.0, 1.0, 1e308)) == 0.0

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

    @pytest.mark.parametrize("rho", sorted(KERNEL_DX_TAILS))
    def test_tails_against_high_precision(self, rho):
        # 1e-14 relative wherever the true value is a normal double, and
        # below the normal range, quietly, where it is not
        x = np.array(KERNEL_TAIL_X)
        tiny = np.finfo(float).tiny
        for f, table in ((kernel_pdf_dx, KERNEL_DX_TAILS), (kernel_pdf_drho, KERNEL_DRHO_TAILS)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = f(x, rho)
            want = np.array(table[rho])
            normal = np.abs(want) >= tiny
            assert_allclose(got[normal], want[normal], rtol=1e-14, atol=0.0)
            assert np.all(np.abs(got[~normal]) < 2.3e-308), (f.__name__, got)

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

    def test_inputs_left_unchanged(self):
        # the kernel and the log density work in place, in buffers of
        # their own: u, the rho column and the caller's array come back
        # as they went in, also through the rho = 1 branch where y is
        # subnormal (|u| = 720) or 0 (|u| = 800)
        u = np.array([[-800.0, -720.0, -1.0, 0.0, 2.5, 720.0, 800.0]] * 2)
        rho = np.array([[0.3], [1.0]])
        u0, rho0 = u.copy(), rho.copy()
        kernel_log_derivs(u, rho)
        kernel_log_derivs(u[1], 1.0)
        assert np.array_equal(u, u0) and np.array_equal(rho, rho0)
        w = np.array([1e-300, 0.3, 0.5, 0.9, 1.0 - 1e-16])
        w0 = w.copy()
        for th in ((1.0, 3.0, 1.0), (2.0, 0.5, 0.4)):
            uf_logpdf(w, th)
            uf_pdf(w, th)
        assert np.array_equal(w, w0)


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
        # every element stops on its own step test, whether it converges
        # at its start (rho = 0) or takes up to four evaluations (near
        # rho = 1), in both tails and deep into the lower one
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

    def test_rho_zero_closed_form(self):
        # the start is the root at rho = 0: Q(p) = p / (1 - p)
        p = np.concatenate([np.geomspace(5e-324, 0.5, 2000),
                            np.random.default_rng(3).uniform(0.0, 1.0, 2000)])
        lo = p <= 0.5
        x = kernel_quantile(p, 0.0)
        assert np.array_equal(x[lo], p[lo] / (1.0 - p[lo]))
        assert_allclose(x[~lo], p[~lo] / (1.0 - p[~lo]), rtol=1e-15)

    def test_iteration_budget(self, monkeypatch):
        # one evaluation at rho = 0, three up to rho = 1/2, four near 1
        monkeypatch.setattr(core, "QUANTILE_MAX_ITER", 4)
        p = np.concatenate([
            np.geomspace(5e-324, 0.5, 3000),
            np.random.default_rng(4).uniform(0.0, 1.0, 3000),
            1.0 - np.geomspace(1.2e-16, 0.5, 3000),
        ])
        for rho in (0.0, 1e-8, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-10,
                    1.0 - 1e-14, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kernel_quantile(p, rho)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 1.0 - 1e-10, 1.0])
    def test_monotone(self, rho):
        p = np.geomspace(5e-324, 1.0 - 1.2e-16, 5000)
        assert np.all(np.diff(kernel_quantile(p, rho)) >= 0.0)


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

    def test_extreme_alpha(self):
        # at alpha = 1e308 the log kernel argument u = alpha (log s -
        # log sigma) overflows to inf at w = 1 - 1e-16, where the density
        # is 0; at w = 0.7 the log density, about -|u| (or -2|u| at
        # rho = 1, where g ~ 4y), is still a double. (alpha - 1) log s
        # overflowing against log g once gave NaN and -inf here, with
        # overflow and invalid-value warnings
        u = 1e308 * (math.log(0.7) - math.log1p(-0.7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in (0.0, 0.5, 1.0):
                th = (1.0, 1e308, rho)
                assert uf_logpdf(1.0 - 1e-16, th) == -math.inf
                assert uf_pdf(1.0 - 1e-16, th) == 0.0
                want = -2.0 * u if rho == 1.0 else -u
                assert_allclose(uf_logpdf([0.3, 0.7], th), [want, want], rtol=1e-15)
        assert_allclose(uf_logpdf(0.7, (1.0, 1e308, 1.0)), -1.6945957e308, rtol=1e-7)

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

    def test_extreme_alpha_is_quiet(self):
        # at alpha = 1e308, u overflows to -inf and inf at the outer
        # points; the CDF takes its limits there, without a warning
        w = [1e-300, 0.3, 0.5, 0.7, 1.0 - 1e-16]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = uf_cdf(w, (1.0, 1e308, 0.5))
        assert np.array_equal(got, [0.0, 0.0, 0.5, 1.0, 1.0])

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

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            uf_sample(UfParams(1.0, 1.0, 0.0), 5, -1)

    def test_n_beyond_array_length(self):
        # rejected before any generator or array is built
        with pytest.raises(DomainError, match="n must be <="):
            uf_sample((1.0, 2.0, 0.5), 10**20, 1)

    @pytest.mark.parametrize(
        "n", (math.nan, math.inf, -math.inf, 2.7, True, "5", None), ids=repr
    )
    def test_n_must_be_integral(self, n):
        # a fraction is not truncated, a bool or a string is not a count
        with pytest.raises(DomainError, match="n must be an integer"):
            uf_sample(UfParams(1.0, 1.0, 0.0), n, 1)

    @pytest.mark.parametrize(
        "seed", (math.nan, math.inf, -math.inf, 1.5, False, "1", None), ids=repr
    )
    def test_seed_must_be_integral(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            uf_sample(UfParams(1.0, 1.0, 0.0), 5, seed)

    def test_integral_numbers_accepted(self):
        th = UfParams(1.0, 2.0, 0.5)
        want = uf_sample(th, 5, 3)
        assert np.array_equal(uf_sample(th, 5.0, np.int64(3)), want)
        assert np.array_equal(uf_sample(th, np.int32(5), 3.0), want)

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


# Blocked evaluation: every array entry point must give the same bits
# whatever core.BLOCK_ELEMENTS is. Edge values sit at every fifth point,
# so each block of five or more holds one.
P_EDGES = (1e-300, 1.0 - 1e-16)
W_CDF_EDGES = P_EDGES + (-0.5, 0.0, 1.0, 2.0)
X_EDGES = (5e-324, 1e-300, 1.0 - 1e-16, 1.0, 3.0, 1e300)
# below mu, mu, mu + 5e-324 (z underflows to 0 at sigma = 10) and +-inf
FRECHET_EDGES = (-1.0, 0.0, 5e-324, np.inf, -np.inf)
FRECHET_BLOCK = FrechetParams(0.0, 10.0, 2.0)
# biv_cdf(x, 1 - x): both coordinates, or one, at 0
BIV_EDGES = (0.0, 1.0, 5e-324, 1.0 - 1e-16)
BLOCK_SIZES = (1, 7, core.BLOCK_ELEMENTS)
BLOCK_THETA = UfParams(0.7, 2.5, 0.5)
BLOCKED_CALLS = {
    "uf_pdf": (lambda w: uf_pdf(w, BLOCK_THETA), P_EDGES),
    "uf_logpdf": (lambda w: uf_logpdf(w, BLOCK_THETA), P_EDGES),
    "uf_cdf": (lambda w: uf_cdf(w, BLOCK_THETA), W_CDF_EDGES),
    "uf_quantile": (lambda p: uf_quantile(p, BLOCK_THETA), P_EDGES),
    "uf_quantile_rho1": (lambda p: uf_quantile(p, (0.7, 2.5, 1.0)), P_EDGES),
    "kernel_pdf": (lambda x: kernel_pdf(x, 0.5), X_EDGES),
    "kernel_cdf": (lambda x: kernel_cdf(x, 0.5), X_EDGES),
    "kernel_sf": (lambda x: kernel_sf(x, 0.5), X_EDGES),
    "kernel_pdf_dx": (lambda x: kernel_pdf_dx(x, 0.5), X_EDGES),
    "kernel_pdf_drho": (lambda x: kernel_pdf_drho(x, 0.5), X_EDGES),
    "kernel_quantile": (lambda p: kernel_quantile(p, 0.9), P_EDGES),
    "frechet_pdf": (lambda x: frechet_pdf(x, FRECHET_BLOCK), FRECHET_EDGES),
    "frechet_cdf": (lambda x: frechet_cdf(x, FRECHET_BLOCK), FRECHET_EDGES),
    "biv_cdf": (lambda x: biv_cdf(x, 1.0 - x, (0.7, 1.3, 2.5, 0.5)), BIV_EDGES),
}
# SHA-256 of uf_sample((1, 2, 0.5), 10**5, 7).tobytes(), taken before
# the array layer was blocked
UF_SAMPLE_DIGEST = "6222782780e8b7e87fbfa85e6aaab3b29c86375e29e94eb109c3eab9c1a5011f"


def with_edges(edges, n, seed=0):
    """n points uniform in (0, 1) with ``edges`` cycled into every fifth
    position."""
    x = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    x[::5] = np.resize(edges, x[::5].size)
    return x


class TestBlocked:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("name", sorted(BLOCKED_CALLS))
    def test_independent_of_block_size(self, monkeypatch, whole, name, block):
        fn, edges = BLOCKED_CALLS[name]
        x = with_edges(edges, max(64, 3 * block + 5))
        want = whole(fn, x)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
        got = fn(x)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", (7, core.BLOCK_ELEMENTS))
    @pytest.mark.parametrize("name", sorted(BLOCKED_CALLS))
    def test_shapes_kept(self, monkeypatch, whole, name, block):
        # a 2-d input larger than one block, a 0-size input and a scalar
        fn, edges = BLOCKED_CALLS[name]
        x = with_edges(edges, 2 * (block + 3)).reshape(2, block + 3)
        want = whole(fn, x.ravel())
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
        got = fn(x)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()
        assert fn(np.empty(0)).shape == (0,)
        scalar = fn(float(x[0, 1]))
        assert type(scalar) is float and scalar == want[1]

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("rho", (0.0, 0.5, 1.0))
    def test_sample_independent_of_block_size(self, monkeypatch, whole, rho, block):
        th = UfParams(0.7, 2.5, rho)
        n = max(64, 3 * block + 5)
        want = whole(uf_sample, th, n, 11)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
        assert uf_sample(th, n, 11).tobytes() == want.tobytes()

    def test_sample_digest(self):
        # the bytes the whole-array sampler gave, pinned
        got = hashlib.sha256(uf_sample((1.0, 2.0, 0.5), 10**5, 7).tobytes())
        assert got.hexdigest() == UF_SAMPLE_DIGEST

    def test_one_block_goes_straight_through(self, monkeypatch):
        # study-sized arrays and scalars pay nothing for the blocking: the
        # kernel runs once, on the caller's own array
        seen = []
        x = np.linspace(0.01, 0.99, core.BLOCK_ELEMENTS)
        assert core.blockwise(lambda a: seen.append(a) or a, x) is x
        assert len(seen) == 1 and seen[0] is x

        real = core._kernel_quantile
        monkeypatch.setattr(
            core, "_kernel_quantile", lambda p, rho: seen.append(p) or real(p, rho)
        )
        seen.clear()
        p = np.linspace(0.01, 0.99, 100)
        uf_quantile(p, BLOCK_THETA)
        uf_quantile(0.3, BLOCK_THETA)
        assert len(seen) == 2 and seen[0] is p and seen[1].shape == (1,)
        seen.clear()
        uf_quantile(np.linspace(0.01, 0.99, core.BLOCK_ELEMENTS + 1), BLOCK_THETA)
        assert [len(b) for b in seen] == [core.BLOCK_ELEMENTS, 1]

    def test_quantile_failure_still_raises(self, monkeypatch):
        # p = 1/2 settles in one evaluation from its exact start, p = 0.3
        # at rho = 0.5 needs three: the one slow element, in the last
        # block, raises
        monkeypatch.setattr(core, "QUANTILE_MAX_ITER", 1)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 7)
        p = np.full(30, 0.5)
        assert np.all(uf_quantile(p, BLOCK_THETA) == uf_quantile(0.5, BLOCK_THETA))
        p[-1] = 0.3
        with pytest.raises(NumericalError):
            uf_quantile(p, BLOCK_THETA)


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
