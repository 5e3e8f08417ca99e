"""Tests for the Taylor moment approximations and Frechet marginal moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from unitfrechet.bivariate import biv_sample, estimate_cov, ratio_transform
from unitfrechet.errors import DomainError, ParameterError
from unitfrechet.moments import (
    ApproximationWarning,
    MomentInputs,
    approx_moment,
    approx_var,
    frechet_moments,
)

# mpmath oracles, frozen
SQRT_PI = 1.7724538509055160  # Gamma(1/2)
GAMMA_34 = 1.2254167024651776  # Gamma(3/4)
GAMMA_45 = 1.1642297137253034  # Gamma(4/5)
VAR_FRECHET_A4 = 0.2708077562248863  # Gamma(1/2) - Gamma(3/4)^2
VAR_FRECHET_A5 = 0.13376142249191526  # Gamma(3/5) - Gamma(4/5)^2
# E(W) expansion at p=1, mu=(2,1), var=(0.1,0.2), cov=0.05: the
# correction is (mu1 var2 - mu2 var1 + (mu1-mu2) cov)/(mu1+mu2)^3
# = (0.4 - 0.1 + 0.05)/27, total 2/3 + 0.35/27 = 367/540 (sympy
# Taylor-expansion oracle)
EW_2_1_EXAMPLE = 0.6796296296296296

means = st.floats(min_value=0.5, max_value=10.0)
fractions = st.floats(min_value=0.0, max_value=0.99)
signed = st.floats(min_value=-0.99, max_value=0.99)


def scaled_inputs(mu1, mu2, f1, f2, t):
    """Inputs inside the documented validity region sqrt(var) < mu/2."""
    var1 = (0.5 * f1 * mu1) ** 2
    var2 = (0.5 * f2 * mu2) ** 2
    # sqrt of each factor, as the Cauchy-Schwarz check takes it: the
    # product var1 * var2 rounds (or underflows) in the subnormal range
    cov = t * math.sqrt(var1) * math.sqrt(var2)
    return MomentInputs(mu1=mu1, mu2=mu2, var1=var1, var2=var2, cov=cov)


class TestMomentInputs:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MomentInputs(mu1=0.0, mu2=1.0)
        with pytest.raises(ParameterError):
            MomentInputs(mu1=1.0, mu2=1.0, var1=-0.1)
        with pytest.raises(ParameterError):
            MomentInputs(mu1=1.0, mu2=1.0, var1=1.0, var2=1.0, cov=math.inf)

    def test_cauchy_schwarz(self):
        with pytest.raises(ParameterError):
            MomentInputs(mu1=1.0, mu2=1.0, var1=1.0, var2=1.0, cov=1.5)
        # the boundary itself is allowed
        m = MomentInputs(mu1=1.0, mu2=1.0, var1=1.0, var2=1.0, cov=1.0)
        assert m.complete

    def test_cauchy_schwarz_tiny_variances(self):
        # var1 * var2 underflows to 0, but the bound is 1e-200
        m = MomentInputs(mu1=1.0, mu2=1.0, var1=1e-200, var2=1e-200, cov=5e-201)
        assert m.cov == 5e-201
        with pytest.raises(ParameterError):
            MomentInputs(mu1=1.0, mu2=1.0, var1=1e-200, var2=1e-200, cov=2e-200)

    def test_completeness_and_with_cov(self):
        m = MomentInputs(mu1=2.0, mu2=1.0, var1=0.1, var2=0.2)
        assert not m.complete
        filled = m.with_cov(0.05)
        assert filled.complete
        assert filled.cov == 0.05
        # original unchanged
        assert m.cov is None


class TestFrechetMoments:
    def test_alpha_two_means_only(self):
        m = frechet_moments((1.0, 1.0, 2.0, 0.3))
        assert_allclose(m.mu1, SQRT_PI, rtol=1e-12)
        assert_allclose(m.mu2, SQRT_PI, rtol=1e-12)
        assert m.var1 is None and m.var2 is None and not m.complete

    def test_alpha_four_values(self):
        m = frechet_moments((1.0, 1.0, 4.0, 0.0))
        assert_allclose(m.mu1, GAMMA_34, rtol=1e-12)
        assert_allclose(m.var1, VAR_FRECHET_A4, rtol=1e-12)
        assert_allclose(m.var2, VAR_FRECHET_A4, rtol=1e-12)

    def test_alpha_five_values(self):
        m = frechet_moments((1.0, 1.0, 5.0, 0.0))
        assert_allclose(m.mu1, GAMMA_45, rtol=1e-12)
        assert_allclose(m.var1, VAR_FRECHET_A5, rtol=1e-12)

    def test_scaling(self):
        base = frechet_moments((1.0, 1.0, 4.0, 0.2))
        scaled = frechet_moments((3.0, 1.0, 4.0, 0.2))
        assert_allclose(scaled.mu1, 3.0 * base.mu1, rtol=1e-14)
        assert_allclose(scaled.var1, 9.0 * base.var1, rtol=1e-14)
        assert_allclose(scaled.mu2, base.mu2, rtol=1e-14)

    def test_heavy_tail_rejected(self):
        with pytest.raises(DomainError):
            frechet_moments((1.0, 1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            frechet_moments((1.0, 1.0, 0.7, 0.0))

    def test_mean_only_band(self):
        m = frechet_moments((1.0, 2.0, 1.5, 0.0))
        assert m.mu1 > 0.0 and m.var1 is None

    @pytest.mark.parametrize(
        "p",
        ((1e300, 1.0, 3.0, 0.0), (1.0, 1e155, 3.0, 0.5), (1e306, 1.0, 1.001, 0.0),
         (1e-300, 1.0, 3.0, 0.0), (1.0, 1e-200, 6.0, 0.5)),
        ids=repr,
    )
    def test_outside_the_double_range(self, p):
        # a mean or variance that overflows, or a variance whose sigma^2
        # underflows, raises instead of a bare OverflowError or a
        # variance of 0
        with pytest.raises(DomainError, match="leave the double range"):
            frechet_moments(p)

    def test_approximations_at_large_scales(self):
        # the expansions are scale free; powers of mu1 + mu2 taken at the
        # margins' own scale would overflow
        base = frechet_moments((1.0, 2.0, 4.0, 0.0)).with_cov(0.0)
        large = frechet_moments((1e120, 2e120, 4.0, 0.0)).with_cov(0.0)
        for p in (1.0, 2.0):
            assert_allclose(approx_moment(p, large), approx_moment(p, base), rtol=1e-14)
        assert_allclose(approx_var(large), approx_var(base), rtol=1e-14)


class TestApproxMoment:
    def test_p_zero_exact(self):
        m = MomentInputs(mu1=2.0, mu2=1.0, var1=0.1, var2=0.2, cov=0.05)
        assert approx_moment(0.0, m) == 1.0

    def test_symmetric_mean_is_half(self):
        for cov in (-0.05, 0.0, 0.08):
            m = MomentInputs(mu1=1.3, mu2=1.3, var1=0.09, var2=0.09, cov=cov)
            assert_allclose(approx_moment(1.0, m), 0.5, rtol=1e-14)

    def test_worked_example(self):
        m = MomentInputs(mu1=2.0, mu2=1.0, var1=0.1, var2=0.2, cov=0.05)
        assert_allclose(approx_moment(1.0, m), EW_2_1_EXAMPLE, rtol=1e-14)

    def test_incomplete_rejected(self):
        m = MomentInputs(mu1=2.0, mu2=1.0, var1=0.1, var2=0.2)
        with pytest.raises(DomainError, match="cov"):
            approx_moment(1.0, m)

    def test_incomplete_says_why(self):
        m = MomentInputs(mu1=2.0, mu2=1.0, var1=0.1, var2=0.2)
        with pytest.raises(DomainError) as info:
            approx_moment(1.0, m)
        assert str(info.value).endswith("missing: cov")
        heavy = frechet_moments((1.0, 1.0, 1.5, 0.0)).with_cov(0.0)
        with pytest.raises(DomainError) as info:
            approx_var(heavy)
        assert str(info.value).endswith(
            "missing: var1, var2 (a Frechet margin with alpha <= 2 has no finite "
            "variance)"
        )

    @given(mu1=means, mu2=means, f1=fractions, f2=fractions, t=signed)
    @settings(max_examples=300)
    def test_mean_stays_in_unit_interval(self, mu1, mu2, f1, f2, t):
        m = scaled_inputs(mu1, mu2, f1, f2, t)
        assert 0.0 < approx_moment(1.0, m) < 1.0

    @given(
        mu1=means, mu2=means, f1=fractions, f2=fractions, t=signed,
        c=st.floats(min_value=0.01, max_value=100.0),
        p=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=200)
    def test_homogeneity(self, mu1, mu2, f1, f2, t, c, p):
        # W is a ratio, so consistent rescaling of the margins cannot
        # change any moment: mu by c, var and cov by c^2
        m = scaled_inputs(mu1, mu2, f1, f2, t)
        var1, var2 = c * c * m.var1, c * c * m.var2
        # the covariance comes from the scaled variances with the same
        # t: c^2 * cov rounds independently of c^2 * var2 in the
        # subnormal range and can then break the Cauchy-Schwarz bound
        scaled = MomentInputs(
            mu1=c * m.mu1, mu2=c * m.mu2, var1=var1, var2=var2,
            cov=t * math.sqrt(var1) * math.sqrt(var2),
        )
        assert_allclose(approx_moment(p, scaled), approx_moment(p, m), rtol=1e-9)

    def test_quality_warning(self):
        # alpha=2.5 puts the marginal CV around 1.03
        m = frechet_moments((1.0, 1.0, 2.5, 0.0)).with_cov(0.0)
        with pytest.warns(ApproximationWarning):
            approx_moment(1.0, m)

    def test_no_warning_when_comfortable(self):
        m = frechet_moments((1.0, 1.0, 6.0, 0.0)).with_cov(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            approx_moment(1.0, m)


class TestApproxVar:
    def test_degenerate_inputs(self):
        m = MomentInputs(mu1=2.0, mu2=1.0, var1=0.0, var2=0.0, cov=0.0)
        assert approx_var(m) == 0.0

    @given(mu1=means, mu2=means, f1=fractions, f2=fractions, t=signed)
    @settings(max_examples=300)
    def test_matches_moment_composition(self, mu1, mu2, f1, f2, t):
        # the assembled display and E(W^2) - E(W)^2 are the same
        # polynomial in the inputs; the identity must hold to rounding
        m = scaled_inputs(mu1, mu2, f1, f2, t)
        composed = approx_moment(2.0, m) - approx_moment(1.0, m) ** 2
        assert_allclose(approx_var(m), composed, rtol=1e-9, atol=1e-15)

    def test_nonnegative_for_symmetric(self):
        m = MomentInputs(mu1=1.3, mu2=1.3, var1=0.09, var2=0.09, cov=0.02)
        assert approx_var(m) >= 0.0

    def test_incomplete_rejected(self):
        m = MomentInputs(mu1=2.0, mu2=1.0)
        with pytest.raises(DomainError):
            approx_var(m)


class TestAgainstSampling:
    def test_mean_matches_monte_carlo(self):
        # one cell of the acceptance-grid comparison, scaled down
        p = (1.0, 1.0, 6.0, 0.5)
        m = frechet_moments(p).with_cov(estimate_cov(p, 100_000, 31).value)
        w = ratio_transform(biv_sample(p, 100_000, 32))
        assert abs(approx_moment(1.0, m) - float(np.mean(w))) < 0.02
