"""Tests for the bivariate extreme distribution and the ratio cross-check."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import dblquad

from unitfrechet import bivariate, core
from unitfrechet.bivariate import (
    BivParams,
    CovEstimate,
    SampleStats,
    biv_cdf,
    biv_pdf,
    biv_sample,
    estimate_cov,
    ratio_transform,
)
from unitfrechet.core import UfParams, uf_cdf
from unitfrechet.errors import DomainError, ParameterError

# mpmath oracles, frozen
EXP_M15 = 0.22313016014842983  # exp(-1.5)
VAR_FRECHET_A4 = 0.2708077562248863  # gamma(1/2) - gamma(3/4)^2
# biv_sample's clip ends for un and q (1e-300 and 1 - 1e-16) bound
# u = -1/log(un) and e = -log(q)
U_LO = -1.0 / math.log(1e-300)  # 0.0014476482730108396
U_HI = -1.0 / math.log(1.0 - 1e-16)  # 9007199254740992.0
E_LO = -math.log(1.0 - 1e-16)
E_HI = -math.log(1e-300)
# positive roots r of e r^2 + (e u - (1 - rho)) r - u = 0 at the
# corners of the (u, e) box, mpmath at 60 digits: (u, e, rho, r)
ROOT_CORNERS = (
    (U_LO, E_LO, 0.0, 9007199254740992.0),
    (U_LO, E_LO, 0.5, 4503599627370496.0),
    (U_LO, E_LO, 1.0 - 1e-9, 10276091.586379539),
    (U_LO, E_LO, 1.0, 3610991.0607148937),
    (U_LO, E_HI, 0.0, 0.0014476482730108395),
    (U_LO, E_HI, 0.5, 0.0011302896163389609),
    (U_LO, E_HI, 1.0 - 1e-9, 0.00089469583687590602),
    (U_LO, E_HI, 1.0, 0.00089469583647578589),
    (U_HI, E_LO, 0.0, 9007199254740992.0),
    (U_HI, E_LO, 0.5, 7032608665885197.9),
    (U_HI, E_LO, 1.0 - 1e-9, 5566755285362184.1),
    (U_HI, E_LO, 1.0, 5566755282872655.5),
    (U_HI, E_HI, 0.0, 0.0014476482730108395),
    (U_HI, E_HI, 0.5, 0.0014476482730108395),
    (U_HI, E_HI, 1.0 - 1e-9, 0.0014476482730108395),
    (U_HI, E_HI, 1.0, 0.0014476482730108395),
)
SAMPLER_RHOS = (0.0, 0.3, 0.5, 0.9, 0.999, 1.0)
# blocked evaluation: core.BLOCK_ELEMENTS monkeypatched to these sizes;
# coordinates at the edges of the double range sit at every fifth point
BLOCK_SIZES = (1, 7, core.BLOCK_ELEMENTS)
COORD_EDGES = (1e-300, 1.0 - 1e-16, 1e300, math.inf)
# SHA-256 of biv_sample((1, 1, 2, 0.5), 10**5, 7).tobytes(), taken
# before the sampler's transform was blocked
BIV_SAMPLE_DIGEST = "f551253c83ddb0a4b9f7530e17cf2f7b95209d29702413fd68219c249d935168"

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
        # scipy's invweibull(alpha, scale=sigma) is the Frechet law
        p = (0.7, 1.3, 2.5, 0.8)
        for x in (0.2, 0.9, 3.0):
            assert_allclose(
                biv_cdf(x, 1e9, p), stats.invweibull.cdf(x, 2.5, scale=0.7), rtol=1e-9
            )
            assert_allclose(
                biv_cdf(1e9, x, p), stats.invweibull.cdf(x, 2.5, scale=1.3), rtol=1e-9
            )

    def test_zero_coordinate(self):
        p = (1.0, 1.0, 2.0, 0.5)
        assert biv_cdf(0.0, 1.0, p) == 0.0
        assert biv_cdf(1.0, 0.0, p) == 0.0
        assert biv_cdf(0.0, 0.0, p) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            biv_cdf(-1.0, 1.0, (1.0, 1.0, 2.0, 0.5))

    @pytest.mark.parametrize("fn", (biv_cdf, biv_pdf), ids=lambda f: f.__name__)
    def test_unbroadcastable_rejected(self, fn):
        # a UnitFrechetError, not numpy's bare ValueError
        with pytest.raises(DomainError, match="do not broadcast"):
            fn([1.0, 2.0], [1.0, 2.0, 3.0], (1.0, 1.0, 2.0, 0.5))

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
            want = stats.invweibull.pdf(x1, 1.5) * stats.invweibull.pdf(xs, 1.5, scale=2.0)
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

    def test_extreme_values_are_quiet(self):
        # the density is 0 at an infinite coordinate and overflows to inf
        # at alpha = 1e300; neither comes with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert biv_pdf(math.inf, 1.0, (1.0, 1.0, 2.0, 0.5)) == 0.0
            assert biv_pdf(1.0, 1.0, (1.0, 1.0, 1e300, 0.5)) == math.inf
            assert biv_pdf(1e-300, 1e300, (1.0, 1.0, 1.5, 0.5)) == 0.0

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
        with pytest.raises(DomainError, match="^seed must be an integer >= 0, got -1$"):
            biv_sample((1.0, 1.0, 2.0, 0.5), 5, -1)

    def test_n_beyond_array_length(self):
        # rejected before any generator or array is built
        with pytest.raises(DomainError, match="n must be <="):
            biv_sample((1.0, 1.0, 2.0, 0.5), 10**20, 1)

    @pytest.mark.parametrize(
        "n, seed",
        ((math.nan, 1), (math.inf, 1), (2.7, 1), (True, 1), ("5", 1),
         (5, math.nan), (5, -math.inf), (5, 1.5), (5, False), (5, "1")),
        ids=repr,
    )
    def test_non_integer_rejected(self, n, seed):
        with pytest.raises(DomainError, match="must be an integer"):
            biv_sample((1.0, 1.0, 2.0, 0.5), n, seed)

    def test_return_stats(self):
        xy, info = biv_sample((1.0, 1.0, 2.0, 0.5), 200, 7, return_stats=True)
        assert xy.shape == (200, 2)
        assert isinstance(info, SampleStats)
        assert info.resampled == 0 and info.rounds == 0

    @pytest.mark.parametrize("rho", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("alpha", (0.01, 0.001))
    def test_small_alpha_redraws(self, alpha, rho):
        # the margins leave the double range for some draws; those pairs
        # are redrawn, without a floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xy, info = biv_sample((1.0, 1.0, alpha, rho), 10_000, 3, return_stats=True)
        assert info.resampled > 0 and info.rounds >= 1
        assert np.all(np.isfinite(xy) & (xy > 0.0))

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
            d = stats.kstest(xy[:, j], stats.invweibull(2.0, scale=sig).cdf).statistic
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


def coords_with_edges(n, seed=0):
    """Two coordinate arrays of n points in (0, 20), with COORD_EDGES
    cycled into every fifth position of each."""
    x = np.random.default_rng(seed).uniform(0.0, 20.0, (2, n))
    x[:, ::5] = np.resize(COORD_EDGES, x[0, ::5].size)
    x[1, ::5] = x[1, ::5][::-1]
    return x


class TestBlocked:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("fn", (biv_cdf, biv_pdf), ids=lambda f: f.__name__)
    def test_independent_of_block_size(self, monkeypatch, whole, fn, block):
        x1, x2 = coords_with_edges(max(64, 3 * block + 5))
        if fn is biv_cdf:
            x1[3::11] = 0.0
        p = (0.8, 1.4, 2.0, 0.5)
        want = whole(fn, x1, x2, p)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
        got = fn(x1, x2, p)
        assert got.shape == x1.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fn", (biv_cdf, biv_pdf), ids=lambda f: f.__name__)
    def test_shapes_kept(self, monkeypatch, whole, fn):
        # a 2-d input larger than one block, broadcast against a scalar;
        # a 0-size input; a scalar pair
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 7)
        p = (0.8, 1.4, 2.0, 0.5)
        x1 = coords_with_edges(24)[0].reshape(3, 8)
        got = fn(x1, 2.0, p)
        want = whole(fn, x1.ravel(), np.full(24, 2.0), p)
        assert got.shape == (3, 8) and got.tobytes() == want.tobytes()
        assert fn(np.empty(0), 2.0, p).shape == (0,)
        scalar = fn(float(x1[0, 1]), 2.0, p)
        assert type(scalar) is float and scalar == want[1]

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("rho", (0.0, 0.5, 1.0))
    def test_sample_independent_of_block_size(self, monkeypatch, whole, rho, block):
        p = (1.0, 2.0, 1.5, rho)
        n = max(64, 3 * block + 5)
        want = whole(biv_sample, p, n, 13)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
        assert biv_sample(p, n, 13).tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_redraws_independent_of_block_size(self, monkeypatch, whole, block):
        # at alpha = 1e-3 most pairs leave the double range and are
        # redrawn in rounds of shrinking batches
        p = (1.0, 1.0, 1e-3, 0.5)
        n = max(200, 3 * block + 5)
        want, want_stats = whole(biv_sample, p, n, 3, return_stats=True)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
        got, stats_ = biv_sample(p, n, 3, return_stats=True)
        assert want_stats.resampled > 0 and stats_ == want_stats
        assert got.tobytes() == want.tobytes()

    def test_sample_digest(self):
        # the bytes the whole-array transform gave, pinned
        got = hashlib.sha256(biv_sample((1.0, 1.0, 2.0, 0.5), 10**5, 7).tobytes())
        assert got.hexdigest() == BIV_SAMPLE_DIGEST


class TestCondDraw:
    @pytest.mark.parametrize("rho", SAMPLER_RHOS)
    def test_conditional_pit(self, rho):
        # the conditional CDF of V = (X2/sigma2)^alpha given
        # U = (X1/sigma1)^alpha, evaluated at the drawn pairs, must be
        # uniform on (0, 1)
        n = 100_000
        xy = biv_sample((1.0, 2.0, 2.0, rho), n, 911)
        u = xy[:, 0] ** 2
        v = (xy[:, 1] / 2.0) ** 2
        t = u + v
        c = np.exp(-1.0 / v + rho / t) * (1.0 - rho * (u / t) ** 2)
        assert stats.kstest(c, "uniform").statistic < 1.63 / math.sqrt(n)

    def test_root_against_mpmath(self):
        for u, e, rho, ref in ROOT_CORNERS:
            # q2 = 0 puts D at or below 0, so the draw is the root r
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = bivariate._cond_draw(np.array([u]), np.array([e]), np.zeros(1), rho)
            assert_allclose(r[0], ref, rtol=1e-15, atol=0.0)


class TestRatioTransform:
    def test_simple_values(self):
        out = ratio_transform([[1.0, 1.0], [3.0, 1.0]])
        assert_allclose(out, [0.5, 0.75], rtol=1e-15)

    def test_huge_pairs(self):
        out = ratio_transform([[1e300, 1e300], [1e308, 1e300]])
        assert out[0] == 0.5
        assert 0.0 < out[1] < 1.0

    def test_endpoints_past_the_double_range(self):
        # x2/x1 overflows or underflows: the proportion rounds to 0 or 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ratio_transform([[1e-320, 1e308], [1e308, 1e-320]])
        assert out.tolist() == [0.0, 1.0]

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
        with pytest.raises(DomainError, match="^seed must be an integer >= 0, got -3$"):
            estimate_cov((1.0, 1.0, 3.0, 0.5), 10_000, -3)

    @pytest.mark.parametrize(
        "n, seed",
        ((math.nan, 1), (-math.inf, 1), (10_000.5, 1), (True, 1), ("10000", 1),
         (10_000, math.inf), (10_000, 0.5), (10_000, "1")),
        ids=repr,
    )
    def test_non_integer_rejected(self, n, seed):
        with pytest.raises(DomainError, match="must be an integer"):
            estimate_cov((1.0, 1.0, 3.0, 0.5), n, seed)

    def test_integral_float_n(self):
        p = (1.0, 1.0, 3.0, 0.5)
        assert estimate_cov(p, 10_000.0, 5) == estimate_cov(p, 10_000, 5)

    def test_large_scales(self):
        # the draws scale with sigma1 sigma2, and so do the estimate and
        # its standard error, up to the rounding of the scaled draws;
        # (d1 d2)^2 at sigma = 1e150 would pass 1e600
        unit = estimate_cov((1.0, 1.0, 3.0, 0.5), 10_000, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = estimate_cov((1e150, 1e150, 3.0, 0.5), 10_000, 1)
            # a covariance past the largest double, or below the normal range
            for sigma in (1e300, 1e-300):
                with pytest.raises(DomainError, match="double range"):
                    estimate_cov((sigma, sigma, 3.0, 0.5), 10_000, 1)
        assert_allclose([big.value, big.se], [unit.value * 1e300, unit.se * 1e300], rtol=1e-13)
