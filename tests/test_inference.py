"""Tests for likelihood, fitting, goodness of fit, and model comparison."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from unitfrechet.core import uf_logpdf, uf_quantile, uf_sample
from unitfrechet.datasets import load_uefa
from unitfrechet.errors import DataError, DomainError, ParameterError
from unitfrechet.inference import (
    MODELS,
    UF_RHO_LEVELS,
    DataSeries,
    FitReport,
    describe,
    fit_beta,
    fit_kumaraswamy,
    fit_uf,
    ks_test,
    loglik_uf,
    model_handle,
    model_select,
    residuals,
    score_uf,
)
from unitfrechet.simulation import replication_seed

# An external reference fit of the bundled pass-completion data; the
# forensic values below were frozen from this package's own evaluation
# at that point.
REF_THETA = (0.8064, 1.0590, 0.8235)
REF_LOGLIK = 4.9208315416102195
REF_KS_STAT = 0.09614706717384142
REF_KS_PVALUE = 0.8836973550970003

# Frozen outputs of this package's fitters on the bundled data. The
# UF likelihood is maximized on the rho=0 boundary, with a clearly
# better log-likelihood than the reference point above.
UEFA_UF_THETA = (0.7956563513998594, 1.5704245922555098, 0.0)
UEFA_UF_LOGLIK = 4.935275506594081
UEFA_UF_KS_PVALUE = 0.9405159147654214
UEFA_BETA_THETA = (1.808225911452102, 2.18759337026144)
UEFA_BETA_LOGLIK = 4.94035797480469
UEFA_KUM_THETA = (1.6787187256638814, 2.3131813309213873)
UEFA_KUM_LOGLIK = 4.985622379038308
# Kumaraswamy densities and CDFs at KUM_EDGE_W, mpmath at 60 digits:
# ((a, b), densities, CDFs)
KUM_EDGE_W = (1e-20, 1e-17, 1e-10, 0.5, 1.0 - 1e-10, 1.0 - 2.0**-53)
KUM_NEAR_EDGES = (
    ((0.4, 2.3),
     (919999988039.99909, 14581014366.42613, 919880.40179404135,
      0.22064613633500155, 2.7955409789632049e-14, 5.0757370449418253e-22),
     (2.2999999850499974e-8, 3.6452539671335421e-7, 0.00022998505014950248,
      0.9616857684562459, 1.0, 1.0)),
    ((1.7, 2.3),
     (3.9100000000000074e-14, 4.9223983601152021e-12, 3.9100000000000036e-7,
      1.4919977505921452, 7.7940000070813177e-13, 1.4151212545407607e-20),
     (2.3000000000000043e-34, 2.8955284471265897e-29, 2.3000000000000023e-17,
      0.57090572346365898, 1.0, 1.0)),
    ((1.0, 2.0),
     (2.0, 2.0, 1.9999999998, 1.0, 2.000000165480742e-10, 2.2204460492503131e-16),
     (1.9999999999999999e-20, 2.0000000000000001e-17, 1.9999999999000001e-10,
      0.75, 1.0, 1.0)),
)
# Kumaraswamy log-likelihood at the reference comparison point
KUM_REF_POINT = (1.5721, 1.9757)
KUM_REF_LOGLIK = 4.783488588266576

unit_open = st.floats(min_value=1e-4, max_value=1.0 - 1e-4)


def series(values) -> DataSeries:
    return DataSeries(tuple(float(v) for v in values))


def sample_series(theta, n, seed) -> DataSeries:
    return series(uf_sample(theta, n, seed))


def kumaraswamy_series(a, b, n, seed) -> DataSeries:
    """n Kumaraswamy(a, b) draws by inversion: (1 - (1 - u)^(1/b))^(1/a)."""
    u = np.random.default_rng(seed).random(n)
    return series(np.exp(np.log(-np.expm1(np.log1p(-u) / b)) / a))


# Kumaraswamy fits checked against a grid of their profile, by name: the
# bundled data, the edge samples of TestFitKumaraswamy, and draws whose
# MLE of log a lies outside [-5, 5]
KUM_PROFILE_SAMPLES = {
    "uefa": load_uefa,
    "underflowing": lambda: sample_series((0.5, 4.0, 0.2), 50, replication_seed(7, 1, 50, 1)),
    "next_to_one": lambda: series([0.05, 0.2, 0.45, 0.7, 0.9, 0.99, 1.0 - 2.0**-53]),
    "log_a_above_5": lambda: kumaraswamy_series(math.exp(6.0), 2.0, 50, 1),
    "log_a_below_-5": lambda: kumaraswamy_series(math.exp(-6.0), 0.2, 50, 2),
}


class TestDataSeries:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            DataSeries(())

    def test_out_of_range_with_position(self):
        with pytest.raises(DataError, match="value 3"):
            series([0.2, 0.4, 1.0])
        with pytest.raises(DataError, match="value 1"):
            series([0.0, 0.5])
        with pytest.raises(DataError, match="value 2"):
            series([0.5, math.nan])

    def test_order_preserved(self):
        d = series([0.9, 0.1, 0.5])
        assert d.values == (0.9, 0.1, 0.5)
        assert d.n == 3
        assert np.array_equal(d.array, [0.9, 0.1, 0.5])

    def test_array_is_readonly(self):
        d = series([0.2, 0.8])
        with pytest.raises(ValueError):
            d.array[0] = 0.5

    def test_array_cannot_be_rebound(self):
        d = series([0.2, 0.8])
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.array = np.array([0.5, 0.5])

    def test_array_input_is_stored_once(self):
        # a float64 array is copied once, with no tuple of Python floats
        # beside it: 0.8 MB for the copy against 4.3 MB with the tuple
        w = np.random.default_rng(7).uniform(0.01, 0.99, 100_000)
        tracemalloc.start()
        try:
            d = DataSeries(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert len(d.values) == d.n == w.size
        assert type(d.values) is tuple and all(type(v) is float for v in d.values)

    def test_messages_name_the_first_bad_value(self):
        # also from a numpy array, whose np.float64 values repr differently
        for values, message in (
            ([0.5, math.inf, 2.0], "value 2 is not finite: inf"),
            ([0.5, -0.0, math.nan], "value 2 is outside the open interval (0, 1): -0.0"),
            ([0.5, 0.25, 1.5], "value 3 is outside the open interval (0, 1): 1.5"),
        ):
            for data in (values, np.array(values), np.array(values, dtype=np.float32)):
                with pytest.raises(DataError) as info:
                    DataSeries(data)
                assert str(info.value) == message

    @pytest.mark.parametrize(
        "values",
        [(0.5, "abc"), (0.5, None), ((0.1, 0.2),), [[0.1], [0.2]], (0.5, [0.2]),
         # numpy alone would turn None into NaN, and take the 2-D array whole
         pytest.param(np.array([0.5, None], dtype=object), id="object array with None"),
         pytest.param(np.array([[0.1], [0.2]]), id="2-D array"),
         pytest.param(np.array(0.5), id="0-d array")],
        ids=str,
    )
    def test_non_numbers_rejected(self, values):
        with pytest.raises(DataError, match="flat sequence of numbers"):
            DataSeries(values)

    def test_from_array(self):
        w = np.array([0.9, 0.1, 0.5])
        d = DataSeries(w)
        assert d.values == (0.9, 0.1, 0.5)
        assert all(type(v) is float for v in d.values)
        assert d == DataSeries((0.9, 0.1, 0.5))
        # the series holds its own read-only copy
        w[0] = 0.3
        assert d.array[0] == 0.9 and not d.array.flags.writeable
        # a generator and numeric strings (what load_uefa reads) go value
        # by value; a float32 array keeps its float32 values
        for values in ((v for v in (0.9, 0.1, 0.5)), ["0.9", "0.1", "0.5"]):
            assert DataSeries(values) == d
        w32 = np.array([0.9, 0.1, 0.5], dtype=np.float32)
        assert DataSeries(w32).values == tuple(float(v) for v in w32)

    def test_log_odds(self):
        d = series([0.2, 0.8])
        assert_allclose(d.log_odds, np.log([0.25, 4.0]), rtol=1e-14)


class TestLoglik:
    def test_single_datum_is_logpdf(self, uefa):
        th = (1.0, 2.0, 0.5)
        d = series([0.37])
        assert_allclose(loglik_uf(th, d), uf_logpdf(0.37, th), rtol=1e-14)

    def test_additive(self):
        th = (0.8, 1.5, 0.3)
        a = series([0.2, 0.4])
        b = series([0.6, 0.9])
        both = series([0.2, 0.4, 0.6, 0.9])
        assert_allclose(
            loglik_uf(th, both), loglik_uf(th, a) + loglik_uf(th, b), rtol=1e-13
        )

    def test_reference_point_value(self, uefa):
        assert_allclose(loglik_uf(REF_THETA, uefa), REF_LOGLIK, rtol=1e-12)

    @given(
        ws=st.lists(unit_open, min_size=1, max_size=12),
        sigma=st.floats(0.2, 5.0),
        alpha=st.floats(0.3, 5.0),
        rho=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150)
    # the exact sum is 0 here: the pass's Jacobian part must not cancel
    # two sums of opposite sign
    @example(ws=[0.015625], sigma=1.0, alpha=1.0, rho=0.0)
    def test_matches_logpdf_sum(self, ws, sigma, alpha, rho):
        th = (sigma, alpha, rho)
        d = series(ws)
        assert_allclose(
            loglik_uf(th, d), float(np.sum(uf_logpdf(d.array, th))), rtol=1e-10
        )

    def test_exact_past_the_double_range(self):
        # where the kernel density underflows (a datum near 1 under a
        # large alpha, rho = 1 or not) or its argument (s/sigma)^alpha
        # passes +-700 (the datum 1e-300), the log-space likelihood is
        # still exact; the values are mpmath's at 1200 digits
        cases = [
            ((1.0, 20.0, 1.0), [1.0 - 1e-16], -1428.3531955827331),
            ((1.0, 30.0, 1.0), [1.0 - 1e-16, 0.5], -2158.7717188627388),
            ((1.0, 3.0, 1.0), [1e-300, 0.5], -3449.7832949288464),
            ((1.0, 11.0, 0.5), [0.3, 0.5, 0.7, 1.0 - 1e-16], -375.12327189293557),
        ]
        for th, values, want in cases:
            assert_allclose(loglik_uf(th, series(values)), want, rtol=1e-12)


class TestScore:
    @staticmethod
    def fd_gradient(theta, data, h=1e-5):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(3)
        for k in range(3):
            step = h * max(1.0, abs(theta[k]))
            if k == 2:
                step = min(step, 0.49 * min(theta[2] if theta[2] > 0 else 1.0,
                                            1.0 - theta[2] if theta[2] < 1 else 1.0))
            vals = []
            for m in (-2, -1, 1, 2):
                t = theta.copy()
                t[k] += m * step
                vals.append(loglik_uf(t, data))
            out[k] = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * step)
        return out

    def test_matches_finite_difference(self):
        d = sample_series((1.0, 2.0, 0.5), 20, 314)
        for th in ((1.0, 2.0, 0.5), (0.5, 1.0, 0.1), (2.0, 4.0, 0.9), (1.0, 0.7, 0.5)):
            got = score_uf(th, d)
            want = self.fd_gradient(th, d)
            assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_stationary_at_fit(self, uefa):
        r = fit_uf(uefa)
        s = score_uf(r.theta_hat, uefa)
        # sigma and alpha are interior: gradient vanishes there. rho
        # sits on the lower boundary, so its component must push out
        assert abs(s[0]) < 1e-6
        assert abs(s[1]) < 1e-6
        assert s[2] <= 0.0

    def test_finite_where_the_kernel_underflows(self):
        # at rho = 1 the datum 1e-300 under alpha = 3 has y = e^-2072,
        # which underflows to 0, and r -> 1 there (r = -1 at the datum
        # 0.5): the sigma and alpha components are exact, while the rho
        # component, about -e^2072 / 4, overflows to -inf
        s = score_uf((1.0, 3.0, 1.0), series([1e-300, 0.5]))
        assert_allclose(s[:2], [-6.0, 2.0 / 3.0 + 2.0 * math.log(1e-300)], rtol=1e-13)
        assert s[2] == -math.inf

    def test_symmetric_data_scale_stationary(self):
        # mirror pairs w, 1-w make sigma=1 a stationary point of the
        # profile in sigma for any alpha, rho
        d = series([0.3, 0.7, 0.42, 0.58])
        s = score_uf((1.0, 1.7, 0.4), d)
        assert abs(s[0]) < 1e-12


def phi_of(theta):
    sg, al, rh = theta
    return [math.log(sg), math.log(al), rh]


class TestNewtonPass:
    """The fit's batched pass: log-likelihood, gradient and Hessian in
    (log sigma, log alpha, rho)."""

    # criterion 6's sample and grid, plus rho near 0 and near 1
    data = sample_series((1.0, 2.0, 0.5), 20, 314)
    thetas = [
        (s, a, r)
        for s in (0.5, 1.0, 2.0)
        for a in (0.5, 2.0, 4.0)
        for r in (0.1, 0.5, 0.9)
    ] + [(1.0, 2.0, 1e-4), (1.0, 2.0, 1.0 - 1e-4), (0.5, 4.0, 1e-3), (2.0, 0.5, 0.999)]

    def phi_score(self, phi):
        # score_uf in (sigma, alpha, rho), carried to (log sigma, log alpha, rho)
        theta = (math.exp(phi[0]), math.exp(phi[1]), phi[2])
        return score_uf(theta, self.data) * np.array([theta[0], theta[1], 1.0])

    def test_matches_public_functions_and_score_differences(self):
        from unitfrechet.inference import _uf_pass

        for th in self.thetas:
            phi = np.array(phi_of(th))
            ll, grad, hess = _uf_pass(phi[None, :], self.data)
            assert_allclose(ll[0], np.sum(uf_logpdf(self.data.array, th)), rtol=1e-12)
            assert_allclose(grad[0], self.phi_score(phi), rtol=1e-10, atol=1e-10)
            assert np.array_equal(hess[0], hess[0].T)
            fd = np.empty((3, 3))
            for k in range(3):
                h = 1e-4 * min(1.0, th[2], 1.0 - th[2]) if k == 2 else 1e-4
                e = np.zeros(3)
                e[k] = h
                fd[:, k] = (self.phi_score(phi + e) - self.phi_score(phi - e)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(hess[0] - fd)) <= 1e-6 * scale, (th, hess[0], fd)

    def test_batched_and_chunked_passes_agree(self, monkeypatch):
        from unitfrechet import inference

        phi = np.array([phi_of(th) for th in self.thetas])
        whole = inference._uf_pass(phi, self.data)
        for i in range(len(phi)):
            row = inference._uf_pass(phi[i:i + 1], self.data)
            for got, want in zip(row, whole):
                assert np.array_equal(got[0], want[i])
        # 9 columns per chunk whatever the row count: the sums run over 3
        # chunks, and each row of a 3-row pass is its 1-row pass bit for
        # bit, whichever rows share the pass and in whatever order
        monkeypatch.setattr(inference, "BLOCK_ELEMENTS", 9)
        shapes = []
        derivs = inference.kernel_log_derivs

        def recorded(u, rho):
            shapes.append(u.shape)
            return derivs(u, rho)

        monkeypatch.setattr(inference, "kernel_log_derivs", recorded)
        single = [inference._uf_pass(phi[i:i + 1], self.data) for i in range(3)]
        for order in ([0, 1, 2], [2, 0, 1]):
            shapes.clear()
            chunked = inference._uf_pass(phi[order], self.data)
            assert shapes == [(3, 9), (3, 9), (3, 2)]
            for j, i in enumerate(order):
                for got, want in zip(chunked, single[i]):
                    assert np.array_equal(got[j], want[0]), (order, i)
            for got, want in zip(chunked, whole):
                assert_allclose(got, want[order], rtol=1e-12, atol=1e-12)

    def test_pass_across_chunks(self, monkeypatch):
        # a sample of two full chunks and a narrower third: the value is
        # the sum of the log densities, the gradient score_uf's, the
        # result that of one chunk over the whole sample, and each row of
        # a 2-row pass its 1-row pass bit for bit; phi is left unchanged
        from unitfrechet import inference

        n = 2 * inference.BLOCK_ELEMENTS + 1234
        data = sample_series((1.0, 2.0, 0.5), n, 11)
        thetas = [(1.1, 1.8, rho) for rho in (0.0, 0.5, 1.0)]
        phi = np.array([phi_of(th) for th in thetas])
        phi0 = phi.copy()
        chunked = inference._uf_pass(phi, data)
        singles = [inference._uf_pass(phi[i:i + 1], data) for i in range(3)]
        for i, th in enumerate(thetas):
            ll, grad = chunked[0][i], chunked[1][i]
            assert_allclose(ll, np.sum(uf_logpdf(data.array, th)), rtol=1e-12)
            assert_allclose(grad / [th[0], th[1], 1.0], score_uf(th, data), rtol=1e-12)
        for pair in ([0, 1], [2, 0], [1, 2]):
            double = inference._uf_pass(phi[pair], data)
            for j, i in enumerate(pair):
                for got, want in zip(double, singles[i]):
                    assert np.array_equal(got[j], want[0]), (pair, i)
        monkeypatch.setattr(inference, "BLOCK_ELEMENTS", n)
        whole = inference._uf_pass(phi, data)
        for got, want in zip(chunked, whole):
            assert_allclose(got, want, rtol=1e-12)
        assert np.array_equal(phi, phi0)

    def test_pass_overflow_is_quiet(self):
        from unitfrechet import inference

        # alpha = e^705 carries the log odds -690.8 of 1e-300 past the
        # double range, u = -1.1e309
        data = series([1e-300, 0.3, 0.5, 0.9])
        phi = np.array([[0.0, 705.0, 0.5], phi_of((1.0, 2.0, 0.5))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = inference._uf_pass(phi, data)[0]
            single = [loglik_uf(th, data) for th in ((1.0, math.exp(705.0), 0.5), (1.0, 2.0, 0.5))]
        assert not math.isfinite(values[0]) and math.isfinite(values[1])
        assert np.array_equal(values, single, equal_nan=True)


class TestFitUf:
    def test_bundled_data_values(self, uefa):
        r = fit_uf(uefa)
        assert r.model == "uf"
        assert r.param_names == ("sigma", "alpha", "rho")
        assert_allclose(r.theta_hat[:2], UEFA_UF_THETA[:2], rtol=1e-6)
        assert r.theta_hat[2] == 0.0
        assert r.boundary_hit and r.converged
        assert_allclose(r.loglik, UEFA_UF_LOGLIK, rtol=1e-10)
        assert_allclose(r.ks_pvalue, UEFA_UF_KS_PVALUE, rtol=1e-8)
        # and bit for bit, which the in-package Kolmogorov law keeps
        assert r.ks_pvalue == 0.9405159158897634
        assert r.n == 37 and r.k_params == 3
        assert r.iterations > 0

    def test_beats_reference_point(self, uefa):
        r = fit_uf(uefa)
        assert r.loglik > REF_LOGLIK

    def test_information_criteria_identities(self, uefa):
        r = fit_uf(uefa)
        assert_allclose(r.aic, 2.0 * r.k_params - 2.0 * r.loglik, rtol=1e-14)
        assert_allclose(
            r.bic, r.k_params * math.log(r.n) - 2.0 * r.loglik, rtol=1e-14
        )

    def test_recovers_truth_at_n5000(self):
        # one documented draw; estimator spread at this n makes the
        # 10% band roughly a 1-in-5 event per seed, so the seed is
        # pinned and backed up by the median check below
        d = sample_series((1.0, 2.0, 0.5), 5000, 6)
        r = fit_uf(d)
        assert r.converged
        for got, want in zip(r.theta_hat, (1.0, 2.0, 0.5)):
            assert abs(got - want) / want < 0.10

    def test_median_rho_over_seeds(self):
        rho_hats = []
        for seed in range(1, 13):
            r = fit_uf(sample_series((1.0, 2.0, 0.5), 5000, seed))
            assert r.converged
            rho_hats.append(r.theta_hat[2])
        assert abs(float(np.median(rho_hats)) - 0.5) / 0.5 < 0.10

    def test_reflection_invariance(self):
        # W -> 1-W maps UF(sigma, alpha, rho) to UF(1/sigma, alpha, rho),
        # so the two fits must agree accordingly
        w = uf_sample((0.7, 1.3, 1.0), 400, 77)
        ra = fit_uf(series(w))
        rb = fit_uf(series(1.0 - np.asarray(w)))
        assert_allclose(ra.theta_hat[0] * rb.theta_hat[0], 1.0, rtol=1e-6)
        assert_allclose(ra.theta_hat[1], rb.theta_hat[1], rtol=1e-6)
        assert ra.theta_hat[2] == rb.theta_hat[2] == 1.0

    @pytest.mark.parametrize(
        "fitter", [fit_uf, fit_beta, fit_kumaraswamy], ids=lambda f: f.__name__
    )
    def test_identical_data_ill_posed(self, fitter):
        r = fitter(series([0.4] * 10))
        assert r.param_names and r.k_params == len(r.param_names)
        assert len(r.theta_hat) == r.k_params
        assert all(math.isnan(v) for v in r.theta_hat)
        for value in (r.loglik, r.aic, r.bic, r.ks_stat, r.ks_pvalue):
            assert math.isnan(value)
        assert len(r.residuals) == r.n == 10
        assert all(math.isnan(v) for v in r.residuals)
        assert r.iterations == 0
        assert not r.converged
        assert "ill-posed" in r.message

    def test_extreme_data_converges(self):
        from unitfrechet import inference

        # at the level starts' sigma (the median odds, 3e-300) the datum
        # next to 1 has kernel argument e^727, past the double range, yet
        # the likelihood is exact (mpmath at 1200 digits); every level
        # start has a finite likelihood
        d = series([1e-300, 2e-300, 3e-300, 1.0 - 1e-16, 0.5])
        assert_allclose(loglik_uf((3e-300, 1.0, 0.5), d), 687.21883474042865, rtol=1e-12)
        phi = inference._level_starts(d)
        assert np.array_equal(phi[:, 2], UF_RHO_LEVELS)
        assert np.isfinite(inference._uf_pass(phi, d)[0]).all()
        assert fit_uf(d).converged

    def test_reaches_rho_one_mode(self):
        # the log-likelihood of this sample rises towards rho = 1, where
        # a quasi-Newton run with a stale curvature model once stalled
        # at rho = 0.9915, 0.064 below the maximum
        d = sample_series((0.5, 4.0, 0.2), 100, replication_seed(1, 6, 100, 3))
        r = fit_uf(d)
        assert r.converged and r.boundary_hit and r.theta_hat[2] == 1.0
        assert r.loglik >= 96.0148078238083 - 1e-9

    @pytest.mark.parametrize(
        "seed, n, j, loglik, rho",
        [(1, 30, 1, 24.055627354950566, 0.0934), (3, 100, 8, 84.84155810629639, 0.0),
         (2, 100, 5, 87.34060572839866, 1.0)],
    )
    def test_finds_the_higher_of_two_rho_modes(self, seed, n, j, loglik, rho):
        # theta = (0.3, 3, 0) samples whose rho profile has a second mode
        # 0.02-0.22 lower at the other end of [0, 1]; Newton runs that
        # freed rho at once all fell into the lower one (the reference
        # values are an earlier engine's fits)
        d = sample_series((0.3, 3.0, 0.0), n, replication_seed(seed, 29, n, j))
        r = fit_uf(d)
        assert r.converged and r.loglik >= loglik - 1e-9
        assert abs(r.theta_hat[2] - rho) < 1e-3

    def test_starts_solve_no_quantile(self, uefa, monkeypatch):
        # the level starts read 2 log Q(3/4; rho) from UF_LEVEL_SPREADS,
        # formed once on import, so a fit solves no kernel quantile
        from unitfrechet import inference

        want = fit_uf(uefa)

        def unused(*args):
            raise AssertionError("fit_uf solved a kernel quantile")

        monkeypatch.setattr(inference, "kernel_quantile", unused)
        assert fit_uf(uefa) == want

    def test_too_few_observations(self):
        with pytest.raises(DataError):
            fit_uf(series([0.2, 0.5, 0.8]))

    @pytest.mark.parametrize(
        "values",
        [
            uf_sample((1e-290, 3.0, 0.5), 50, 1),
            (1e-300, 2e-300, 3e-300, 5e-300, 7e-300, 1.1e-299),
            (5e-324, 1e-323, 1.5e-323, 2e-323),
        ],
        ids=("sigma-1e-290", "sigma-1e-300", "subnormal"),
    )
    def test_reports_the_point_newton_found(self, values):
        # log sigma-hat lies below -600 on these samples; the report names
        # the point the winning Newton run ended at, which lies among the
        # data and beats its neighbours along sigma
        d = series(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = fit_uf(d)
        sigma, alpha, rho = r.theta_hat
        assert r.converged and math.log(sigma) < -600.0
        assert d.array.min() <= sigma <= d.array.max()
        for factor in (0.5, 2.0):
            assert loglik_uf((sigma * factor, alpha, rho), d) < r.loglik

    @pytest.mark.parametrize(
        "values, loglik",
        [([0.4] * 9 + [0.5], 25.89925859022763), ([0.4] * 3 + [0.5], 7.002516083713353)],
        ids=("tied-quartiles", "four-points"),
    )
    def test_mostly_tied_data(self, values, loglik):
        # in the first sample the quartiles of the log odds tie, so the
        # level starts take alpha from their range (the reference values
        # are an earlier engine's fits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = fit_uf(series(values))
        assert r.converged and r.loglik >= loglik - 1e-9

    def test_large_sample_report_loglik(self):
        # past BLOCK_ELEMENTS observations even a one-row pass sums over
        # two chunks; on this sample a one-chunk sum at theta_hat differs
        # in its last bit
        from unitfrechet import inference

        d = sample_series((1.0, 2.0, 0.5), 20_000, 4241)
        assert d.n > inference.BLOCK_ELEMENTS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = fit_uf(d)
            assert r.converged
            assert r.loglik == loglik_uf(r.theta_hat, d)

    def test_profile_runs_on_a_summary_past_summary_n(self, monkeypatch):
        # each _uf_pass call's sample size, under the stage that made it;
        # the last stage is the one-row pass of loglik_uf at theta_hat
        from unitfrechet import inference

        seen, profiled, rows = [], [], []
        newton, loglik = inference._newton, inference.loglik_uf
        uf_pass = inference._uf_pass

        def staged_newton(phi, data, hold):
            seen.append("profile" if hold else "refine")
            if hold:
                profiled.append(data)
            return newton(phi, data, hold)

        def staged_loglik(theta, data):
            seen.append("last")
            return loglik(theta, data)

        def counted_pass(phi, data):
            seen.append(data.n)
            rows.append(len(phi))
            return uf_pass(phi, data)

        monkeypatch.setattr(inference, "_newton", staged_newton)
        monkeypatch.setattr(inference, "loglik_uf", staged_loglik)
        monkeypatch.setattr(inference, "_uf_pass", counted_pass)

        def stages(values):
            seen.clear()
            fit_uf(series(values))
            marks = [i for i, v in enumerate(seen) if isinstance(v, str)]
            assert [seen[i] for i in marks] == ["profile", "refine", "last"]
            assert len(seen) - marks[-1] == 2 and rows[-1] == 1  # one pass of one row
            return [set(seen[i + 1:j]) for i, j in zip(marks, marks[1:] + [len(seen)])]

        m = inference.UF_SUMMARY_N
        w = uf_sample((1.0, 2.0, 0.5), m + 1, 2024)
        assert stages(w[:m]) == [{m}] * 3
        assert stages(w) == [{m}, {m + 1}, {m + 1}]
        # the summary is an ordinary sample of m values
        assert type(profiled[-1]) is DataSeries and len(profiled[-1].values) == m

    def test_report_that_did_not_converge(self, monkeypatch):
        # with one Newton step allowed, every run reaches UF_MAX_STEPS, so
        # the winning refine run's verdict is False; the report is still
        # whole, and a study counts the fit as a failed replication
        from unitfrechet import inference, simulation

        theta = (1.0, 2.0, 0.5)
        d = sample_series(theta, 50, 3)
        assert fit_uf(d).converged
        monkeypatch.setattr(inference, "UF_MAX_STEPS", 1)
        r = fit_uf(d)
        assert not r.converged and r.message
        assert r.iterations == 8  # one step in each of 6 levels and 2 refines
        assert r.loglik == loglik_uf(r.theta_hat, d)
        monkeypatch.setattr(simulation, "replication_seed", lambda *key: 3)
        assert simulation._run_cell((0, theta, 50, range(1), 0)) == [None]

    def test_ascent_holds_rho_where_its_newton_step_points_out(self):
        # at rho = 0 the gradient points into [0, 1] but the Newton step
        # points out, so the direction is solved again with rho held
        from unitfrechet.inference import _ascent

        phi = np.array([[0.0, 0.0, 0.0]])
        grad = np.array([[1.0, 0.0, 0.1]])
        hess = -np.array([[[1.0, 0.0, 0.9], [0.0, 1.0, 0.0], [0.9, 0.0, 1.0]]])
        d = _ascent(phi, grad, hess, np.zeros(1, dtype=bool))
        assert np.array_equal(d, [[1.0, 0.0, 0.0]])

    def test_runtime(self, uefa):
        import time

        t0 = time.perf_counter()
        fit_uf(uefa)
        assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize(
    "fit, k", [(fit_uf, 3), (fit_beta, 2), (fit_kumaraswamy, 2)],
    ids=("uf", "beta", "kumaraswamy"),
)
def test_minimum_sample_size(fit, k):
    # a fit takes one more observation than its model has parameters
    values = [0.2, 0.5, 0.8, 0.35]
    with pytest.raises(DataError, match=f"^fitting needs at least {k + 1} observations, got {k}$"):
        fit(series(values[:k]))
    r = fit(series(values[:k + 1]))
    assert (r.n, r.k_params) == (k + 1, k)
    assert r.converged and all(math.isfinite(v) for v in r.theta_hat)


def test_fitters_keep_their_public_face():
    # the report owner wraps each estimator under the estimator's own
    # name and docstring, and the model table holds the wrapped fitter
    assert [f.__name__ for f in (fit_uf, fit_beta, fit_kumaraswamy)] == [
        "fit_uf", "fit_beta", "fit_kumaraswamy"]
    assert fit_uf.__doc__.startswith("Maximum-likelihood fit of the UF distribution.")
    assert fit_beta.__doc__.startswith("Beta MLE via Newton iteration on the digamma equations.")
    assert fit_kumaraswamy.__doc__.startswith(
        "Kumaraswamy MLE by Newton iteration in t = log a on the profile.")
    assert [m.fit for m in MODELS.values()] == [fit_uf, fit_beta, fit_kumaraswamy]


class TestFitBeta:
    def test_bundled_data_values(self, uefa):
        r = fit_beta(uefa)
        assert r.model == "beta" and r.k_params == 2
        assert_allclose(r.theta_hat, UEFA_BETA_THETA, rtol=1e-9)
        assert_allclose(r.loglik, UEFA_BETA_LOGLIK, rtol=1e-10)
        assert r.converged and not r.boundary_hit

    def test_loglik_against_scipy(self, uefa):
        r = fit_beta(uefa)
        a, b = r.theta_hat
        oracle = float(np.sum(stats.beta.logpdf(uefa.array, a, b)))
        assert_allclose(r.loglik, oracle, rtol=1e-10)

    def test_near_uniform_recovery(self):
        rng = np.random.default_rng(123)
        d = series(rng.uniform(0.001, 0.999, 4000))
        r = fit_beta(d)
        assert abs(r.theta_hat[0] - 1.0) < 0.08
        assert abs(r.theta_hat[1] - 1.0) < 0.08

    def test_near_constant_data_reports_no_loglik(self):
        # a = b near 3e31: the log-likelihood's three terms are near 1e31,
        # so their sum is rounding error, not a likelihood, and the fit
        # must not win a ranking with it
        d = series([0.5, 0.5, 0.5, 0.5000000000000001])
        r = fit_beta(d)
        assert not r.converged and r.message
        assert all(math.isfinite(v) and v > 1e30 for v in r.theta_hat)
        assert math.isnan(r.loglik) and math.isnan(r.aic) and math.isnan(r.bic)
        assert math.isnan(r.ks_stat) and all(math.isnan(v) for v in r.residuals)
        assert model_select([r, fit_uf(d)]).best.model == "uf"

    def test_stationarity(self, uefa):
        # the digamma first-order conditions hold at the optimum
        from scipy.special import digamma

        a, b = fit_beta(uefa).theta_hat
        mlog = float(np.mean(np.log(uefa.array)))
        mlog1m = float(np.mean(np.log1p(-uefa.array)))
        assert abs(digamma(a) - digamma(a + b) - mlog) < 1e-9
        assert abs(digamma(b) - digamma(a + b) - mlog1m) < 1e-9


class TestFitKumaraswamy:
    def test_bundled_data_values(self, uefa):
        r = fit_kumaraswamy(uefa)
        assert r.model == "kumaraswamy" and r.k_params == 2
        assert_allclose(r.theta_hat, UEFA_KUM_THETA, rtol=1e-7)
        assert_allclose(r.loglik, UEFA_KUM_LOGLIK, rtol=1e-10)
        assert r.converged

    def test_beats_reference_point(self, uefa):
        r = fit_kumaraswamy(uefa)
        h = model_handle("kumaraswamy", KUM_REF_POINT)
        ll_ref = float(np.sum(np.log(h.pdf(uefa.array))))
        assert_allclose(ll_ref, KUM_REF_LOGLIK, rtol=1e-12)
        assert r.loglik > ll_ref

    def test_scan_points_where_every_power_underflows(self):
        # past log a of about 4.4 every w^a of this sample is below
        # rounding against 1, so log(1 - w^a) must come from w^a itself,
        # and a shape where s = sum log(1 - w^a) still rounds to 0
        # (b(a) = -n/s infinite) must count as no fit, not end the fit
        d = sample_series((0.5, 4.0, 0.2), 50, replication_seed(7, 1, 50, 1))
        r = fit_kumaraswamy(d)
        assert r.converged and all(math.isfinite(v) for v in r.theta_hat)
        assert 1.0 < math.log(r.theta_hat[0]) < 2.0
        h = model_handle("kumaraswamy", r.theta_hat)
        assert_allclose(r.loglik, np.sum(np.log(h.pdf(d.array))), rtol=1e-12)

    def test_near_constant_data_reports(self):
        # the profile climbs in a until b(a) = -n/s overflows; the report
        # says the fit did not converge and has no KS test or residuals
        # at an infinite b, where no model handle can be built
        r = fit_kumaraswamy(series([0.5, 0.5, 0.5, 0.5000000000000001]))
        assert not r.converged and r.message
        assert r.theta_hat[1] == math.inf
        assert math.isnan(r.ks_stat) and math.isnan(r.ks_pvalue)
        assert len(r.residuals) == 4 and all(math.isnan(v) for v in r.residuals)

    def test_value_next_to_one_is_quiet(self):
        # at the fitted a < 1/2, w^a rounds to 1 for w = 1 - 2^-53; the
        # report's density and CDF must not take log 0 there
        d = series([0.05, 0.2, 0.45, 0.7, 0.9, 0.99, 1.0 - 2.0**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = fit_kumaraswamy(d)
        assert r.converged and r.theta_hat[0] < 0.5
        h = model_handle("kumaraswamy", r.theta_hat)
        assert_allclose(r.loglik, np.sum(np.log(h.pdf(d.array))), rtol=1e-12)

    @pytest.mark.parametrize("name", KUM_PROFILE_SAMPLES)
    def test_reaches_profile_maximum(self, name):
        # no point of a dense grid of log a beats the fit on the profile
        # n log a + n log(n/-s) + (a - 1) sum log w - n - s, with
        # s = sum log(1 - w^a); where s rounds to 0, b(a) is infinite and
        # the point is no fit
        d = KUM_PROFILE_SAMPLES[name]()
        r = fit_kumaraswamy(d)
        assert r.converged
        n, logw = d.n, np.log(d.array)
        la = np.linspace(-10.0, 10.0, 2001)
        z = np.exp(la)[:, None] * logw
        with np.errstate(all="ignore"):
            s = np.where(z > -math.log(2.0), np.log(-np.expm1(z)), np.log1p(-np.exp(z)))
            s = s.sum(axis=1)
            ll = n * (la + math.log(n) - np.log(-s)) + (np.exp(la) - 1.0) * logw.sum() - n - s
        assert np.max(ll[s < 0.0]) <= r.loglik + 1e-9


class TestKsTest:
    def test_quantile_matched_construction(self):
        n = 20
        th = (1.0, 2.0, 0.5)
        probs = (np.arange(1, n + 1) - 0.5) / n
        d = series(uf_quantile(probs, th))
        ks = ks_test(d, model_handle("uf", th))
        assert_allclose(ks.statistic, 0.5 / n, atol=1e-12)

    def test_reference_point_values(self, uefa):
        ks = ks_test(uefa, model_handle("uf", REF_THETA))
        assert_allclose(ks.statistic, REF_KS_STAT, rtol=1e-12)
        assert_allclose(ks.pvalue, REF_KS_PVALUE, rtol=1e-10)

    def test_accepts_plain_callable(self, uefa):
        h = model_handle("uf", REF_THETA)
        assert ks_test(uefa, h.cdf) == ks_test(uefa, h)

    def test_matches_scipy_asymptotic(self, uefa):
        h = model_handle("uf", REF_THETA)
        ours = ks_test(uefa, h)
        sp = stats.kstest(uefa.array, h.cdf, mode="asymp")
        assert ours.statistic == pytest.approx(sp.statistic, abs=1e-14)
        assert ours.pvalue == pytest.approx(sp.pvalue, abs=1e-12)

    def test_kolmogorov_law_matches_scipy(self):
        # the two seven-term series against scipy's kolmogorov on a dense
        # grid of [0, 27], past where Q underflows to 0 (x ~ 19.4)
        from scipy.special import kolmogorov

        from unitfrechet.inference import _kolmogorov_sf

        x = np.linspace(0.0, 27.0, 270_001)
        want = kolmogorov(x)
        got = np.array([_kolmogorov_sf(v) for v in x.tolist()])
        err = np.abs(got - want)
        assert err.max() <= 1e-14
        positive = want > 0.0
        assert (err[positive] / want[positive]).max() <= 1e-13
        assert not got[~positive].any()

    @pytest.mark.parametrize(
        "x", [0.0, 1e-300, 5e-324, 0.1, 0.2, np.nextafter(1.0, 0.0), 1.0,
              np.nextafter(1.0, 2.0), -1.0, np.inf, -np.inf, np.nan],
    )
    def test_kolmogorov_law_at_its_edges(self, x):
        # at 1e-300 a naive theta series divides by 8 x^2 = 0; at and
        # below 0.1 the law is 1 in double precision, at inf it is 0, and
        # NaN stays NaN
        from scipy.special import kolmogorov

        from unitfrechet.inference import _kolmogorov_sf

        got = _kolmogorov_sf(float(x))
        assert type(got) is float
        assert_allclose(got, kolmogorov(x), rtol=1e-13, atol=1e-14)
        assert got == 1.0 or not x <= 0.1

    def test_null_calibration(self):
        # p-values under the null are asymptotically uniform; check the
        # 5% rejection rate over 500 independent draws
        th = (1.0, 2.0, 0.5)
        h = model_handle("uf", th)
        hits = 0
        for seed in range(500):
            d = sample_series(th, 10_000, 100_000 + seed)
            hits += ks_test(d, h).pvalue < 0.05
        assert 0.03 <= hits / 500 <= 0.07


class TestResiduals:
    def test_quantile_matched_bound(self):
        n = 25
        th = (1.0, 2.0, 0.5)
        probs = (np.arange(1, n + 1) - 0.5) / n
        d = series(uf_quantile(probs, th))
        r = residuals(d, model_handle("uf", th).cdf)
        assert np.max(np.abs(r)) <= 1.0 / n + 1e-12

    def test_bounds_and_order(self):
        d = sample_series((0.8, 1.5, 0.3), 200, 99)
        h = model_handle("uf", (0.8, 1.5, 0.3))
        r = residuals(d, h.cdf)
        assert r.shape == (200,)
        assert np.all(np.abs(r) <= 1.0)
        # permuting the data permutes the residuals the same way
        perm = np.random.default_rng(1).permutation(200)
        r_perm = residuals(series(d.array[perm]), h.cdf)
        assert_allclose(r_perm, r[perm], rtol=1e-14)

    def test_ties_get_average_rank(self):
        d = series([0.3, 0.3, 0.7])
        r = residuals(d, model_handle("uf", (1.0, 1.0, 0.0)).cdf)
        assert r[0] == r[1]

    def test_uefa_magnitude(self, uefa):
        rep = fit_uf(uefa)
        r = residuals(uefa, model_handle("uf", rep.theta_hat).cdf)
        assert np.max(np.abs(r)) <= rep.ks_stat + 1.0 / uefa.n


class TestModelSelect:
    def test_bundled_data_ranking(self, uefa):
        reports = [fit_uf(uefa), fit_beta(uefa), fit_kumaraswamy(uefa)]
        comp = model_select(reports)
        assert [r.model for r in comp.ranked] == ["kumaraswamy", "beta", "uf"]
        assert comp.best.model == "kumaraswamy"
        aics = [r.aic for r in comp.ranked]
        assert aics == sorted(aics)

    def test_needs_two(self, uefa):
        with pytest.raises(DomainError):
            model_select([fit_uf(uefa)])

    def test_mixed_sizes_rejected(self, uefa):
        other = fit_uf(sample_series((1.0, 2.0, 0.5), 50, 8))
        with pytest.raises(DataError):
            model_select([fit_uf(uefa), other])

    def test_bic_breaks_ties(self, uefa):
        base = fit_uf(uefa)
        import dataclasses

        a = dataclasses.replace(base, model="a", aic=10.0, bic=5.0)
        b = dataclasses.replace(base, model="b", aic=10.0, bic=4.0)
        comp = model_select([a, b])
        assert comp.best.model == "b"

    def test_failed_fit_sinks(self, uefa):
        base = fit_uf(uefa)
        import dataclasses

        bad = dataclasses.replace(base, model="bad", aic=math.nan, bic=math.nan)
        comp = model_select([bad, base])
        assert comp.ranked[-1].model == "bad"


class TestDescribe:
    def test_bundled_data_summary(self, uefa):
        got = describe(uefa)
        assert got["n"] == 37
        assert_allclose(got["mean"], 0.45435135135135135, rtol=1e-12)
        assert_allclose(got["median"], 0.456, rtol=1e-12)
        assert_allclose(got["sd"], 0.22369761537200863, rtol=1e-12)
        assert got["min"] == 0.022 and got["max"] == 0.911
        assert_allclose(got["q1"], 0.278, rtol=1e-12)
        assert_allclose(got["q3"], 0.6, rtol=1e-12)
        assert_allclose(got["skewness"], 0.1705043541001442, rtol=1e-10)
        assert_allclose(got["kurtosis_excess"], -0.8127453172001822, rtol=1e-10)

    def test_zero_spread_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = describe(series([0.4] * 4))
            # one ulp of spread: the deviations are rounding error
            near = describe(series([0.4, 0.4, 0.4, math.nextafter(0.4, 1.0)]))
        assert math.isnan(got["skewness"]) and math.isnan(got["kurtosis_excess"])
        assert got["sd"] == 0.0 and got["min"] == got["max"] == 0.4
        assert math.isnan(near["skewness"]) and math.isnan(near["kurtosis_excess"])
        assert near["min"] == 0.4 < near["max"]


class TestModelHandle:
    def test_unknown_rejected(self):
        # a name that is not a string is unknown too
        for model, theta in (("weibull", (1.0, 1.0)), (None, (1, 2, 0.5)), (5, (1, 2))):
            with pytest.raises(DomainError, match="unknown model"):
                model_handle(model, theta)
        with pytest.raises(DomainError) as info:
            model_handle("weibull", (1.0, 1.0))
        assert str(info.value) == "unknown model 'weibull'; choose from uf, beta, kumaraswamy"
        # the name's case is folded
        assert model_handle("Kumaraswamy", (1.0, 2.0)).name == "kumaraswamy"

    @pytest.mark.parametrize(
        "model, theta, text",
        [
            ("beta", ("a", 2), "a must be a number within the double range, got 'a'"),
            ("beta", (1,), "expected (a, b), got 1 values"),
            ("kumaraswamy", (-1, 2), "a must be finite and > 0, got -1.0"),
            ("kumaraswamy", (1, math.inf), "b must be finite and > 0, got inf"),
        ],
        ids=("text", "count", "negative", "infinite"),
    )
    def test_shapes_pass_core_rules(self, model, theta, text):
        # (a, b) pass core's count, conversion and positivity rules, as
        # the UF parameters do
        with pytest.raises(ParameterError) as info:
            model_handle(model, theta)
        assert str(info.value) == text

    def test_beta_matches_scipy(self, uefa):
        h = model_handle("beta", (1.8, 2.2))
        w = uefa.array
        assert_allclose(h.pdf(w), stats.beta.pdf(w, 1.8, 2.2), rtol=1e-12)
        assert_allclose(h.cdf(w), stats.beta.cdf(w, 1.8, 2.2), rtol=1e-12)

    def test_kumaraswamy_closed_form(self):
        a, b = 1.7, 2.3
        h = model_handle("kumaraswamy", (a, b))
        w = np.array([0.1, 0.4, 0.9])
        assert_allclose(h.cdf(w), 1.0 - (1.0 - w**a) ** b, rtol=1e-12)
        assert_allclose(
            h.pdf(w), a * b * w ** (a - 1.0) * (1.0 - w**a) ** (b - 1.0), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "theta, want_pdf, want_cdf", KUM_NEAR_EDGES, ids=["a=0.4", "a=1.7", "a=1"]
    )
    def test_kumaraswamy_near_one(self, theta, want_pdf, want_cdf):
        # 1 - w^a is formed from log w, so it keeps its precision where
        # w^a rounds to 1 (w = 1 - 2^-53 at a = 0.4) and where w^a is
        # below rounding against 1 (the CDF near 0 is then about b w^a)
        h = model_handle("kumaraswamy", theta)
        w = np.array(KUM_EDGE_W)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf, cdf = h.pdf(w), h.cdf(w)
        assert_allclose(pdf, want_pdf, rtol=1e-12)
        assert_allclose(cdf, want_cdf, rtol=1e-12)
        assert np.all(cdf[-2:] == 1.0)
