"""Tests for the bivariate extreme distribution and the ratio cross-check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import dblquad

from unitfrechet import bivariate
from unitfrechet.bivariate import (
    INVERT_MAX_ITER,
    BivParams,
    CovEstimate,
    SampleStats,
    biv_cdf,
    biv_pdf,
    biv_sample,
    estimate_cov,
    ratio_transform,
)
from unitfrechet.core import UfParams, frechet_cdf, frechet_pdf, uf_cdf
from unitfrechet.errors import DomainError, ParameterError

# mpmath oracles, frozen
EXP_M15 = 0.22313016014842983  # exp(-1.5)
VAR_FRECHET_A4 = 0.2708077562248863  # gamma(1/2) - gamma(3/4)^2
# roots s = log v of C(v | u) = q, mpmath at 60 digits: (u, q, rho, s);
# u runs over -1/log of biv_sample's clip ends 1e-300 and 1 - 1e-16 and
# 1. In the last rows unguarded Newton 2-cycles, and its first step
# from the rho = 0 root lands past the double range of v^4
U_LO = -1.0 / math.log(1e-300)  # 0.0014476482730108396
U_HI = -1.0 / math.log(1.0 - 1e-16)  # 9007199254740992.0
Q_HI = 1.0 - 1e-16
COND_ROOTS = (
    (U_LO, 1e-300, 0.0, -6.5378149199041569),
    (U_LO, 1e-300, 0.5, -6.7850668363231598),
    (U_LO, 1e-300, 0.9, -6.973426226143278),
    (U_LO, 1e-300, 1.0, -7.0185227574700824),
    (1.0, 1e-300, 0.0, -6.5378149199041569),
    (1.0, 1e-300, 0.5, -6.5375384032857752),
    (1.0, 1e-300, 0.9, -6.5358178227282147),
    (1.0, 1e-300, 1.0, -6.5307817814610263),
    (U_HI, 1e-300, 0.0, -6.5378149199041569),
    (U_HI, 1e-300, 0.5, -6.5368109828090321),
    (U_HI, 1e-300, 0.9, -6.5344760186386422),
    (U_HI, 1e-300, 1.0, -6.474288127214749),
    (U_LO, Q_HI, 0.0, 36.736800569677101),
    (U_LO, Q_HI, 0.5, 36.043653389117156),
    (U_LO, Q_HI, 0.9, 34.434215476683055),
    (U_LO, Q_HI, 1.0, 15.10021612540609),
    (1.0, Q_HI, 0.0, 36.736800569677101),
    (1.0, Q_HI, 0.5, 36.043653389117156),
    (1.0, Q_HI, 0.9, 34.434215476683075),
    (1.0, Q_HI, 1.0, 18.714973869530588),
    (U_HI, Q_HI, 0.0, 36.736800569677101),
    (U_HI, Q_HI, 0.5, 54.758627253059809),
    (U_HI, Q_HI, 0.9, 55.052520586135403),
    (U_HI, Q_HI, 1.0, 55.10520084397894),
    (382.08872150993653, 0.93354349758132, 0.5, 6.5124655246570222),
    (386784.09361988626, 0.989587197667045, 0.5, 14.64557375687386),
)
SAMPLER_RHOS = (0.0, 0.3, 0.5, 0.9, 0.999, 1.0)

coords = st.floats(min_value=0.01, max_value=50.0)
rhos = st.floats(min_value=0.0, max_value=1.0)


class TestBivParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BivParams(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            BivParams(1.0, -2.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            BivParams(1.0, 1.0, math.nan, 0.5)
        with pytest.raises(ParameterError):
            BivParams(1.0, 1.0, 1.0, 1.5)

    def test_of_length(self):
        with pytest.raises(ParameterError):
            BivParams.of((1.0, 2.0, 3.0))

    def test_ratio_mapping(self):
        p = BivParams(3.0, 2.0, 1.7, 0.4)
        assert p.scale_ratio == 1.5
        assert p.uf_params() == UfParams(1.5, 1.7, 0.4)


class TestBivCdf:
    def test_independence_product(self):
        # rho=0 factorizes into two Frechet CDFs
        assert_allclose(
            biv_cdf(1.0, 1.0, (1.0, 1.0, 2.0, 0.0)), math.exp(-2.0), rtol=1e-14
        )

    def test_full_association_value(self):
        assert_allclose(
            biv_cdf(1.0, 1.0, (1.0, 1.0, 2.0, 1.0)), EXP_M15, rtol=1e-14
        )

    def test_marginal_limit(self):
        got = biv_cdf(1.0, 1e6, (1.0, 1.0, 2.0, 0.5))
        assert abs(got - math.exp(-1.0)) < 1e-6

    def test_margin_against_frechet(self):
        p = (0.7, 1.3, 2.5, 0.8)
        for x in (0.2, 0.9, 3.0):
            assert_allclose(
                biv_cdf(x, 1e9, p), frechet_cdf(x, (0.0, 0.7, 2.5)), rtol=1e-9
            )
            assert_allclose(
                biv_cdf(1e9, x, p), frechet_cdf(x, (0.0, 1.3, 2.5)), rtol=1e-9
            )

    def test_zero_coordinate(self):
        p = (1.0, 1.0, 2.0, 0.5)
        assert biv_cdf(0.0, 1.0, p) == 0.0
        assert biv_cdf(1.0, 0.0, p) == 0.0
        assert biv_cdf(0.0, 0.0, p) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            biv_cdf(-1.0, 1.0, (1.0, 1.0, 2.0, 0.5))

    @given(x1=coords, x2=coords, rho=rhos)
    @settings(max_examples=200)
    def test_in_unit_interval(self, x1, x2, rho):
        v = biv_cdf(x1, x2, (1.0, 2.0, 1.5, rho))
        assert 0.0 <= v <= 1.0

    @given(a1=coords, b1=coords, a2=coords, b2=coords, rho=rhos)
    @settings(max_examples=200)
    def test_two_increasing(self, a1, b1, a2, b2, rho):
        # rectangle mass F(b1,b2)-F(a1,b2)-F(b1,a2)+F(a1,a2) >= 0
        lo1, hi1 = min(a1, b1), max(a1, b1)
        lo2, hi2 = min(a2, b2), max(a2, b2)
        p = (1.0, 1.0, 2.0, rho)
        mass = (
            biv_cdf(hi1, hi2, p)
            - biv_cdf(lo1, hi2, p)
            - biv_cdf(hi1, lo2, p)
            + biv_cdf(lo1, lo2, p)
        )
        assert mass >= -1e-12


class TestBivPdf:
    def test_independence_factorization(self):
        p = (1.0, 2.0, 1.5, 0.0)
        xs = np.array([0.3, 0.8, 1.0, 2.4, 7.0])
        for x1 in xs:
            got = biv_pdf(x1, xs, p)
            want = frechet_pdf(x1, (0.0, 1.0, 1.5)) * frechet_pdf(xs, (0.0, 2.0, 1.5))
            assert_allclose(got, want, rtol=1e-12)

    def test_cross_finite_difference(self):
        p = (1.0, 1.0, 2.0, 0.9)
        x1, x2, h = 1.3, 0.7, 1e-4
        fd = (
            biv_cdf(x1 + h, x2 + h, p)
            - biv_cdf(x1 + h, x2 - h, p)
            - biv_cdf(x1 - h, x2 + h, p)
            + biv_cdf(x1 - h, x2 - h, p)
        ) / (4.0 * h * h)
        assert_allclose(biv_pdf(x1, x2, p), fd, rtol=1e-4)

    def test_quadrature_mass(self):
        # The integral over [0,20]^2 must equal the CDF at the corner;
        # that value is exp(-0.004375) ~ 0.99563, so about 0.44% of the
        # mass lives outside this box and a 0.999 threshold would need
        # a much larger one.
        p = (1.0, 1.0, 2.0, 0.5)
        val, _ = dblquad(
            lambda y, x: biv_pdf(x, y, p),
            1e-9, 20.0, 1e-9, 20.0,
            epsabs=1e-6, epsrel=1e-6,
        )
        assert_allclose(val, biv_cdf(20.0, 20.0, p), atol=5e-6)
        assert biv_cdf(400.0, 400.0, p) > 0.999

    @given(x1=coords, x2=coords, rho=rhos)
    @settings(max_examples=200)
    def test_nonnegative(self, x1, x2, rho):
        assert biv_pdf(x1, x2, (0.8, 1.4, 2.0, rho)) >= 0.0

    def test_nonpositive_rejected(self):
        p = (1.0, 1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            biv_pdf(0.0, 1.0, p)
        with pytest.raises(DomainError):
            biv_pdf(1.0, -0.5, p)


class TestBivSample:
    def test_shape_and_support(self):
        xy = biv_sample((1.0, 2.0, 1.5, 0.6), 500, 11)
        assert xy.shape == (500, 2)
        assert np.all(xy > 0.0)
        assert np.all(np.isfinite(xy))

    def test_deterministic(self):
        a = biv_sample((1.0, 1.0, 2.0, 0.5), 1000, 42)
        b = biv_sample((1.0, 1.0, 2.0, 0.5), 1000, 42)
        c = biv_sample((1.0, 1.0, 2.0, 0.5), 1000, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_n_validation(self):
        with pytest.raises(DomainError):
            biv_sample((1.0, 1.0, 2.0, 0.5), 0, 1)

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            biv_sample((1.0, 1.0, 2.0, 0.5), 5, -1)

    def test_return_stats(self):
        xy, info = biv_sample((1.0, 1.0, 2.0, 0.5), 200, 7, return_stats=True)
        assert xy.shape == (200, 2)
        assert isinstance(info, SampleStats)
        assert info.resampled == 0 and info.rounds == 0
        # the rho = 0 start is the root, so one Newton pass settles it
        _, info = biv_sample((1.0, 1.0, 2.0, 0.0), 200, 7, return_stats=True)
        assert info.iterations == 1
        for rho in (0.5, 1.0):
            _, info = biv_sample((1.0, 1.0, 2.0, rho), 200, 7, return_stats=True)
            assert 1 <= info.iterations <= INVERT_MAX_ITER

    @pytest.mark.parametrize("rho", SAMPLER_RHOS)
    def test_no_runtime_warnings(self, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xy = biv_sample((1.0, 1.0, 2.0, rho), 100_000, 908)
        assert np.all(np.isfinite(xy) & (xy > 0.0))

    def test_margins_at_independence(self):
        xy = biv_sample((1.0, 1.0, 2.0, 0.0), 100_000, 901)
        crit = 1.63 / math.sqrt(100_000)
        for j, sig in ((0, 1.0), (1, 1.0)):
            d = stats.kstest(xy[:, j], lambda x: frechet_cdf(x, (0.0, sig, 2.0))).statistic
            assert d < crit

    def test_exceedance_probability(self):
        # P(X1 > X2) at sigma1/sigma2 = 2, alpha = 1, rho = 0 is
        # 1 - G(1/2) = 2/3; the sampler has to reproduce it
        xy = biv_sample((2.0, 1.0, 1.0, 0.0), 100_000, 902)
        assert abs(np.mean(xy[:, 0] > xy[:, 1]) - 2.0 / 3.0) < 0.01

    def test_uncorrelated_at_independence(self):
        xy = biv_sample((1.0, 1.0, 3.0, 0.0), 100_000, 903)
        assert abs(np.corrcoef(xy[:, 0], xy[:, 1])[0, 1]) < 0.02

    def test_joint_ecdf_matches_cdf(self):
        p = (1.0, 1.0, 2.0, 0.5)
        n = 20_000
        xy = biv_sample(p, n, 905)
        # probe at marginal Frechet quantiles covering both tails
        qs = 1.0 / np.sqrt(-np.log(np.linspace(0.08, 0.92, 10)))
        tol = 2.0 / math.sqrt(n)
        for a in qs:
            for b in qs:
                emp = np.mean((xy[:, 0] <= a) & (xy[:, 1] <= b))
                assert abs(emp - biv_cdf(a, b, p)) < tol


def sampler_uniforms(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, q) drawn and clipped as biv_sample draws them."""
    gen = np.random.Generator(np.random.Philox(seed))
    un = np.clip(gen.random(n), 1e-300, 1.0 - 1e-16)
    q = np.clip(gen.random(n), 1e-300, 1.0 - 1e-16)
    return -1.0 / np.log(un), q


def cond_residual(v: np.ndarray, u: np.ndarray, q: np.ndarray, rho: float) -> np.ndarray:
    """|log(-log C(v | u)) - log(-log q)|."""
    g, _ = bivariate._cond_exponent(np.log(v), u, rho)
    return np.abs(g - np.log(-np.log(q)))


class TestCondInvert:
    def test_roots_against_mpmath(self):
        for u, q, rho, s_ref in COND_ROOTS:
            u, q = np.array([u]), np.array([q])
            # the residual function itself reads ~0 at the mpmath root
            assert cond_residual(np.exp([s_ref]), u, q, rho)[0] <= 1e-14
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v, _ = bivariate._cond_invert(u, q, rho)
            assert cond_residual(v, u, q, rho)[0] <= 1e-13
            assert_allclose(np.log(v[0]), s_ref, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("rho", SAMPLER_RHOS)
    def test_residual_over_draws(self, rho):
        u, q = sampler_uniforms(100_000, 909)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, iterations = bivariate._cond_invert(u, q, rho)
        assert np.all(np.isfinite(v) & (v > 0.0))
        assert np.max(cond_residual(v, u, q, rho)) <= 1e-13
        assert 1 <= iterations <= INVERT_MAX_ITER

    def test_independent_of_order_and_blocking(self, monkeypatch):
        u, q = sampler_uniforms(40_001, 910)
        v, _ = bivariate._cond_invert(u, q, 0.7)
        perm = np.random.default_rng(1).permutation(u.size)
        assert np.array_equal(bivariate._cond_invert(u[perm], q[perm], 0.7)[0], v[perm])
        cuts = (0, 3, 16_385, 29_000, u.size)
        parts = [
            bivariate._cond_invert(u[a:b], q[a:b], 0.7)[0] for a, b in zip(cuts, cuts[1:])
        ]
        assert np.array_equal(np.concatenate(parts), v)
        monkeypatch.setattr(bivariate, "INVERT_BLOCK", 7)
        assert np.array_equal(bivariate._cond_invert(u[:3000], q[:3000], 0.7)[0], v[:3000])


class TestRatioTransform:
    def test_simple_values(self):
        out = ratio_transform([[1.0, 1.0], [3.0, 1.0]])
        assert_allclose(out, [0.5, 0.75], rtol=1e-15)

    def test_huge_pairs(self):
        out = ratio_transform([[1e300, 1e300], [1e308, 1e300]])
        assert out[0] == 0.5
        assert 0.0 < out[1] < 1.0

    def test_shape_rejected(self):
        with pytest.raises(DomainError):
            ratio_transform([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            ratio_transform([[1.0, 2.0, 3.0]])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            ratio_transform([[1.0, 0.0]])
        with pytest.raises(DomainError):
            ratio_transform([[-1.0, 2.0]])

    def test_ratio_law(self):
        # the sampler and the UF CDF are independent code paths; the
        # transformed ratios must follow UF(sigma1/sigma2, alpha, rho)
        xy = biv_sample((1.0, 2.0, 2.0, 0.7), 100_000, 904)
        w = ratio_transform(xy)
        th = UfParams(0.5, 2.0, 0.7)
        d = stats.kstest(w, lambda v: uf_cdf(v, th)).statistic
        assert d < 1.63 / math.sqrt(100_000)


class TestEstimateCov:
    def test_zero_at_independence(self):
        est = estimate_cov((1.0, 1.0, 3.0, 0.0), 50_000, 906)
        assert isinstance(est, CovEstimate)
        assert abs(est.value) <= 3.0 * est.se

    def test_positive_within_bound(self):
        est = estimate_cov((1.0, 1.0, 4.0, 0.9), 50_000, 907)
        assert est.value > 0.0
        # Cauchy-Schwarz: |Cov| <= sqrt(Var1 Var2) = Var at alpha=4
        assert est.value <= VAR_FRECHET_A4 + 3.0 * est.se

    def test_reproducible(self):
        a = estimate_cov((1.0, 1.0, 3.0, 0.5), 10_000, 5)
        b = estimate_cov((1.0, 1.0, 3.0, 0.5), 10_000, 5)
        assert a == b

    def test_alpha_requirement(self):
        with pytest.raises(DomainError):
            estimate_cov((1.0, 1.0, 2.0, 0.5), 10_000, 1)
        with pytest.raises(DomainError):
            estimate_cov((1.0, 1.0, 1.5, 0.5), 10_000, 1)

    def test_minimum_n(self):
        with pytest.raises(DomainError):
            estimate_cov((1.0, 1.0, 3.0, 0.5), 9_999, 1)

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            estimate_cov((1.0, 1.0, 3.0, 0.5), 10_000, -3)
