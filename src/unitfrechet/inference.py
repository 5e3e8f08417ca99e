"""Maximum-likelihood fitting and goodness of fit.

Fits the UF distribution by direct likelihood maximization with an
analytic score and Hessian, plus the two standard unit-interval
comparison models (Beta, Kumaraswamy), and provides the shared
diagnostics: information criteria, the Kolmogorov-Smirnov statistic
with its asymptotic p-value, rank-based residuals, and AIC/BIC model
ranking.

The UF log-likelihood, its gradient and its Hessian have one source,
the batched log-space pass ``_uf_pass`` over ``core.kernel_log_derivs``:
loglik_uf and score_uf are single-row passes, and the fit steps and
picks its winner with the same pass. The UF fit works in (log sigma,
log alpha, rho) with rho boxed to [0, 1], and it follows the shape of
the likelihood in rho, whose profile is flat and often has two modes:
projected Newton on the analytic Hessian first maximizes over (sigma,
alpha) with rho held at each of the levels UF_RHO_LEVELS, all in
lockstep, then runs again with rho free from the two highest local
maxima of that profile. The winning refine run's own stopping state is
the fit's one convergence rule. Past UF_SUMMARY_N observations the
profile runs on the sample's UF_SUMMARY_N midpoint quantiles, itself a
DataSeries, and only the refine on the data. A rho estimate on 0 or 1
sets ``boundary_hit``. A pass sums over column chunks of core's
BLOCK_ELEMENTS whatever its row count, so each row's value is the same
bits whichever rows share its pass. The fit's settings are module
constants (UF_RHO_LEVELS, the Newton settings UF_NEWTON_TOL through
UF_EIG_FLOOR, and UF_SUMMARY_N); fit_uf takes no tuning options.
There is no hidden randomness anywhere in the fit, so results are
reproducible bit for bit.

Each fitter's body is its model's estimator alone; _fitter wraps it
and is the one owner of every report: the minimum sample size, the
ill-posed report of identical data, the one text of a fit that did not
converge, and the KS test and residuals.

The KS p-value's Kolmogorov law is the package's own (_kolmogorov_sf),
so no UF evaluation, fit, report or study loads scipy. scipy.special is
imported where it is used, by the Beta fit and the Beta model; no fit
loads scipy.optimize.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import cached_property, wraps
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    BLOCK_ELEMENTS,
    UNIT_OPEN,
    UfParams,
    check_positive,
    kernel_log_derivs,
    kernel_quantile,
    log_odds,
    params_of,
    uf_cdf,
    uf_pdf,
)
from .errors import DataError, DomainError

__all__ = [
    "DataSeries",
    "FitReport",
    "KSResult",
    "ModelComparison",
    "ModelHandle",
    "describe",
    "fit_beta",
    "fit_kumaraswamy",
    "fit_uf",
    "ks_test",
    "loglik_uf",
    "model_handle",
    "model_select",
    "residuals",
    "score_uf",
]

# fit_uf's fixed settings. The rho profile is taken at UF_RHO_LEVELS:
# six levels reach every maximum of the fit corpus, and eleven cost
# about 1.4 times as much at n = 10^5. The rest belong to _newton, and
# the next four to fit_kumaraswamy too: a run settles at a gradient below
# UF_NEWTON_TOL times max(1, |loglik|), takes its last step once the
# predicted rise falls below UF_RISE_TOL times max(n, |loglik|), and
# stops after UF_MAX_STEPS steps or once its step halves below
# UF_MIN_STEP. A UF run converged when it settled or took its last step,
# at a finite point, without reaching either of those two limits.
# UF_ARMIJO is the sufficient-increase fraction and UF_EIG_FLOOR the
# relative floor on Hessian eigenvalue magnitudes. A pass sums over
# column chunks of core's BLOCK_ELEMENTS, the block the array layer
# evaluates everything else in, whatever its row count. Past UF_SUMMARY_N
# observations the profile runs on the sample's midpoint quantiles at
# (i + 1/2)/UF_SUMMARY_N: its only job is to pick the refine's starts,
# and at n = 10^5 that cut the fit from 0.28 to 0.10 s (2 cores) with
# its loglik within 1.5e-11.
UF_RHO_LEVELS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
# 2 log Q(3/4; rho) at each level, Q the kernel quantile: the log-odds
# interquartile range of the UF law with alpha = 1 (see fit_uf)
UF_LEVEL_SPREADS = tuple(
    2.0 * math.log(kernel_quantile(0.75, rho)) for rho in UF_RHO_LEVELS
)
UF_NEWTON_TOL = 1e-10
UF_RISE_TOL = 1e-14
UF_MAX_STEPS = 100
UF_MIN_STEP = 2.0 ** -30
UF_ARMIJO = 1e-4
UF_EIG_FLOOR = 1e-8
UF_SUMMARY_N = 2048


@dataclass(frozen=True, init=False, eq=False)
class DataSeries:
    """An ordered sample of proportions strictly inside (0, 1).

    Validation happens at construction: the series must be nonempty and
    every value must be a finite float in the open unit interval.
    Exact 0 and 1 are rejected because the UF log-likelihood diverges
    there. Ingestion order is preserved.

    The series holds one thing, ``array``: its own read-only float64
    copy of the values. A one-dimensional float array is copied by
    numpy in one call, with no walk through Python floats; any other
    input is converted value by value with ``float``, so numeric
    strings and generators are accepted and None is not. ``values``,
    the same numbers as a tuple of Python floats, is derived from the
    array on each read. Two series are equal when their arrays are; a
    series is not hashable.
    """

    array: np.ndarray

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        flat = isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "f"
        try:
            arr = np.array(values, float) if flat else np.fromiter(map(float, values), float)
        except (TypeError, ValueError, OverflowError):
            raise DataError("data series must be a flat sequence of numbers") from None
        if not arr.size:
            raise DataError("data series is empty")
        bad = ~UNIT_OPEN.test(arr)
        if bad.any():
            i = int(bad.argmax())
            v = float(arr[i])
            if not math.isfinite(v):
                raise DataError(f"value {i + 1} is not finite: {v!r}")
            raise DataError(f"value {i + 1} is outside the open interval (0, 1): {v!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __eq__(self, other) -> bool:
        return isinstance(other, DataSeries) and np.array_equal(self.array, other.array)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return self.array.size

    @cached_property
    def log_odds(self) -> np.ndarray:
        """log(w/(1-w)) per observation, the scale the likelihood lives on."""
        arr = log_odds(self.array)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _sum_log_w1w(self) -> float:
        # sum of log(w_i (1 - w_i)), the log-likelihood's Jacobian part
        return float((np.log(self.array) + np.log1p(-self.array)).sum())


class KSResult(NamedTuple):
    statistic: float
    pvalue: float


@dataclass(frozen=True)
class ModelHandle:
    """Uniform (pdf, cdf, k_params, name) view of a fitted model."""

    name: str
    k_params: int
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FitReport:
    """Everything a fit produces, immutable once built.

    The identities ``aic = -2 loglik + 2 k_params`` and
    ``bic = -2 loglik + k_params ln(n)`` hold exactly; residuals are in
    ingestion order and have length n. Fields are declared in the order
    the CLI report prints them.
    """

    model: str
    n: int
    param_names: tuple[str, ...]
    theta_hat: tuple[float, ...]
    loglik: float
    aic: float
    bic: float
    k_params: int
    ks_stat: float
    ks_pvalue: float
    converged: bool
    boundary_hit: bool
    iterations: int
    residuals: tuple[float, ...]
    message: str = ""


# ---------------------------------------------------------------------------
# UF likelihood and score
# ---------------------------------------------------------------------------

def _phi(th: UfParams) -> np.ndarray:
    """th as the one row (log sigma, log alpha, rho) of a pass."""
    return np.array([[math.log(th.sigma), math.log(th.alpha), th.rho]])


def loglik_uf(theta: UfParams | Sequence[float], data: DataSeries) -> float:
    """UF log-likelihood.

    n log alpha - n alpha log sigma + (alpha-1) sum log s_i
    + 2 sum log(s_i + 1) + sum log g(x_i; rho), with
    x_i = (s_i/sigma)^alpha and s_i = w_i/(1 - w_i), whose Jacobian
    terms -sum log s_i + 2 sum log(s_i + 1) are the one cached sum
    -sum log(w_i (1 - w_i)). It is the value of a single-row _uf_pass,
    the fit's own evaluation, so a report's loglik is loglik_uf at its
    theta_hat bit for bit. Formed in log space, it is exact for any
    finite u_i = alpha (log s_i - log sigma), including where x_i or
    g(x_i) lie outside the double range; it is non-finite only where
    u_i itself overflows. Agrees with summing uf_logpdf, whose log
    kernel density comes from the same code, to 1e-10 (asserted in
    tests).
    """
    return float(_uf_pass(_phi(UfParams.of(theta)), data)[0][0])


def score_uf(theta: UfParams | Sequence[float], data: DataSeries) -> np.ndarray:
    """Analytic gradient of loglik_uf in (sigma, alpha, rho).

    d/dsigma = -n alpha/sigma - (alpha/sigma) sum r_i
    d/dalpha = n/alpha - n log sigma + sum log s_i
               + sum r_i (log s_i - log sigma)
    d/drho   = sum (dg/drho)(x_i)/g(x_i)

    with r_i = x_i g'(x_i)/g(x_i): _uf_pass's gradient in (log sigma,
    log alpha, rho) divided by (sigma, alpha, 1). Matches central
    finite differences of loglik_uf to about 1e-9 relative; the
    finite-difference comparison is a standing test.
    """
    th = UfParams.of(theta)
    return _uf_pass(_phi(th), data)[1][0] / np.array([th.sigma, th.alpha, 1.0])


def describe(data: DataSeries) -> dict:
    """Descriptive statistics: n, mean, median, sd (ddof=1), quartiles,
    range, skewness and excess kurtosis (the biased moment estimators
    scipy.stats.skew and kurtosis compute). Skewness and kurtosis are NaN
    when the observations are equal to within rounding: when the second
    central moment is at most (eps * mean)^2, the test scipy applies
    too, since the deviations from the mean are then rounding error."""
    w = data.array
    q1, med, q3 = (float(q) for q in np.quantile(w, [0.25, 0.5, 0.75]))
    mean = float(np.mean(w))
    dev = w - mean
    m2, m3, m4 = (float(np.mean(dev**k)) for k in (2, 3, 4))
    flat = m2 <= (np.finfo(float).eps * mean) ** 2
    return {
        "n": data.n,
        "mean": mean,
        "median": med,
        "sd": float(np.std(w, ddof=1)) if data.n > 1 else 0.0,
        "min": float(np.min(w)),
        "q1": q1,
        "q3": q3,
        "max": float(np.max(w)),
        "skewness": math.nan if flat else m3 / m2**1.5,
        "kurtosis_excess": math.nan if flat else m4 / m2**2 - 3.0,
    }


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

def _as_cdf(cdf) -> Callable[[np.ndarray], np.ndarray]:
    return cdf.cdf if isinstance(cdf, ModelHandle) else cdf


def ks_test(data: DataSeries, cdf) -> KSResult:
    """Two-sided Kolmogorov-Smirnov test against a fully specified CDF.

    The statistic D is the larger of the two one-sided suprema over the
    sample points; the p-value is the asymptotic Kolmogorov law Q at
    sqrt(n) D, from seven terms of the Marsaglia-Tsang-Wang (2003)
    series (_kolmogorov_sf), within 1e-14 of scipy.special.kolmogorov
    on [0, 27] (a standing test). For small n the asymptotic p-value is
    conservative relative to the exact distribution of D. When the CDF's
    parameters were estimated from the same sample, as in every fit
    report, the p-value comes out too large: for UF fits under the null
    at n = 37-200 its median was 0.93-0.95 and it never fell below 0.10
    in 1000 replicates per setting, so such a test cannot reject.
    """
    return _ks_sorted(np.asarray(_as_cdf(cdf)(np.sort(data.array)), dtype=float))


def _kolmogorov_sf(x: float) -> float:
    """Q(x) = P(K > x) of the Kolmogorov law, seven terms of one of two
    series (Marsaglia, Tsang & Wang 2003): 2 sum (-1)^(k-1) e^(-2 k^2 x^2)
    for x >= 1, else 1 - sqrt(2 pi)/x sum e^(-(2k-1)^2 pi^2/(8 x^2)).
    Exactly 1 at x <= 0.1, where the second series subtracts less than
    1e-52 from 1, and NaN for NaN."""
    if x >= 1.0:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 8))
    if not x > 0.1:
        return x if math.isnan(x) else 1.0
    t = math.pi ** 2 / (8.0 * x * x)
    return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(
        math.exp(-(2 * k - 1) ** 2 * t) for k in range(1, 8))


def _ks_sorted(fv: np.ndarray) -> KSResult:
    """ks_test from the CDF at the sorted sample."""
    n = fv.size
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - fv))
    d_minus = float(np.max(fv - (i - 1.0) / n))
    d = max(d_plus, d_minus)
    p = _kolmogorov_sf(math.sqrt(n) * d)
    return KSResult(statistic=d, pvalue=min(max(p, 0.0), 1.0))


def residuals(data: DataSeries, cdf) -> np.ndarray:
    """Rank residuals R_i = ECDF(w_i) - F(w_i), in ingestion order.

    The empirical CDF uses ranks divided by n with ties averaged, so
    tied observations share one residual value.
    """
    w = data.array
    return _residuals(w, np.argsort(w), np.asarray(_as_cdf(cdf)(w), dtype=float))


def _residuals(w: np.ndarray, order: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """residuals from the sample w, its sorting permutation and the CDF at w."""
    s = w[order]
    # the sorted position of the last of each run of ties; a run of k
    # ties ending at rank r shares the average rank r - (k - 1)/2
    last = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    counts = np.diff(last, prepend=-1)
    ranks = np.empty(w.size)
    ranks[order] = np.repeat(last + 1 - (counts - 1) / 2.0, counts)
    return ranks / w.size - fv


def _fitter(model: str):
    """Make a model's estimator the model's fitter, the one owner of its
    report. The estimator takes a sample of at least the model's min_n
    observations, not all equal, and returns (theta_hat, loglik,
    converged, iterations, boundary_hit). The fitter raises a DataError
    below min_n, reports identical observations as ill-posed with NaN
    estimates, gives every fit that did not converge one message, and
    takes KS and residuals from the fitted CDF where theta_hat and
    loglik are finite, NaN elsewhere. So no fit raises for
    non-convergence."""
    def fitter(estimate: Callable[[DataSeries], tuple]) -> Callable[[DataSeries], FitReport]:
        @wraps(estimate)
        def fit(data: DataSeries) -> FitReport:
            spec = MODELS[model]
            n, k = data.n, len(spec.param_names)
            if n < spec.min_n:
                raise DataError(f"fitting needs at least {spec.min_n} observations, got {n}")
            if float(np.ptp(data.array)) > 0.0:
                theta_hat, loglik, converged, iterations, boundary_hit = estimate(data)
                message = "" if converged else (
                    "Newton run stalled, hit its step cap or went non-finite")
            else:
                theta_hat, loglik = (math.nan,) * k, math.nan
                converged, iterations, boundary_hit = False, 0, False
                message = "ill-posed: all observations are identical"
            if math.isfinite(loglik) and all(map(math.isfinite, theta_hat)):
                # one CDF evaluation and one sort feed both; the CDFs act
                # elementwise, so permuting their values equals evaluating
                # them at the sorted sample
                w = data.array
                order = np.argsort(w)
                fv = np.asarray(model_handle(model, theta_hat).cdf(w), dtype=float)
                ks = _ks_sorted(fv[order])
                res = tuple(_residuals(w, order, fv).tolist())
            else:
                ks = KSResult(math.nan, math.nan)
                res = (math.nan,) * n
            return FitReport(
                model=model,
                theta_hat=theta_hat,
                param_names=spec.param_names,
                loglik=loglik,
                aic=-2.0 * loglik + 2.0 * k,
                bic=-2.0 * loglik + k * math.log(n),
                k_params=k,
                ks_stat=ks.statistic,
                ks_pvalue=ks.pvalue,
                residuals=res,
                converged=converged,
                boundary_hit=boundary_hit,
                iterations=iterations,
                n=n,
                message=message,
            )
        return fit
    return fitter


def _log1m_pow(logw, a):
    """log(1 - w^a) from log w, precise for w^a near 0 and near 1: the
    Kumaraswamy density's, CDF's and profile's one form. It is Maechler's
    log1mexp at z = a log w, each branch fed only its own side of the cut."""
    z, cut = a * logw, -math.log(2.0)
    return np.where(z > cut, np.log(-np.expm1(np.maximum(z, cut))),
                    np.log1p(-np.exp(np.minimum(z, cut))))[()]


@dataclass(frozen=True)
class _Shapes:
    """The shapes (a, b) of the Beta and Kumaraswamy models, each finite
    and > 0 by core's rule."""

    a: float
    b: float

    def __post_init__(self) -> None:
        check_positive(self, "a", "b")

    of = classmethod(params_of)


def model_handle(model: str, theta: Sequence[float]) -> ModelHandle:
    """Build the uniform (pdf, cdf) view for a named model.

    Supported names, in any case (model_key): "uf" (theta = (sigma,
    alpha, rho)), "beta" (theta = (a, b)) and "kumaraswamy" (theta =
    (a, b)).
    """
    model = model_key(model)
    if model == "uf":
        th = UfParams.of(theta)

        def pdf(w):
            return np.asarray(uf_pdf(w, th))

        def cdf(w):
            return np.asarray(uf_cdf(w, th))

    elif model == "beta":
        from scipy.special import betainc, betaln

        a, b = astuple(_Shapes.of(theta))

        def pdf(w):
            return np.exp(
                (a - 1.0) * np.log(w)
                + (b - 1.0) * np.log1p(-np.asarray(w, dtype=float))
                - betaln(a, b)
            )

        def cdf(w):
            return betainc(a, b, np.asarray(w, dtype=float))

    else:
        a, b = astuple(_Shapes.of(theta))

        def pdf(w):
            logw = np.log(np.asarray(w, dtype=float))
            return a * b * np.exp((a - 1.0) * logw + (b - 1.0) * _log1m_pow(logw, a))

        def cdf(w):
            return -np.expm1(b * _log1m_pow(np.log(np.asarray(w, dtype=float)), a))

    return ModelHandle(name=model, k_params=len(MODELS[model].param_names), pdf=pdf, cdf=cdf)


# ---------------------------------------------------------------------------
# UF fit
# ---------------------------------------------------------------------------

def _uf_pass(phi: np.ndarray, data: DataSeries):
    """Log-likelihood, gradient and Hessian in (log sigma, log alpha,
    rho) at each row of ``phi``, shape (rows, 3), from one kernel pass
    over (rows x n).

    Writing u_i = alpha (log s_i - log sigma), the log-likelihood is
    n log alpha - sum log(w_i (1 - w_i)) + sum [u_i + log g(e^u_i; rho)],
    so every derivative is a sum over the data of the kernel_log_derivs
    terms times powers of u_i. Each chunk turns the kernel's first two
    rows into u + log g and 1 + r in place and sums them with the other
    four in one reduction, and the four products with u in another. The
    sums run over column chunks of BLOCK_ELEMENTS whatever the row
    count, so a row's summation order, and so its bits, do not depend
    on the rows beside it. The value is formed in log space, so it is
    exact for any finite u_i; a row whose point overflows gets a
    non-finite value, not a warning. This is the package's one UF
    log-likelihood, which loglik_uf, score_uf and the fit all read.
    """
    rows = len(phi)
    rho = phi[:, 2:]
    sums = np.zeros((10, rows))
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = np.exp(phi[:, 1:2])
        for lo in range(0, data.n, BLOCK_ELEMENTS):
            u = np.subtract(data.log_odds[lo:lo + BLOCK_ELEMENTS], phi[:, :1])
            u *= alpha
            # (u + log g, p = 1 + r, h, dr/du, dr/drho, dh/drho), then
            # (p u, dr/du u, dr/drho u, dr/du u^2), each summed per row
            terms = kernel_log_derivs(u, rho)
            terms[0] += u
            terms[1] += 1.0
            times_u = np.empty((4,) + u.shape)
            np.multiply(terms[1], u, out=times_u[0])
            np.multiply(terms[3:5], u, out=times_u[1:3])
            np.multiply(times_u[1], u, out=times_u[3])
            sums[:6] += terms.sum(axis=-1)
            sums[6:] += times_u.sum(axis=-1)
        s_val, s_p, s_h, s_ru, s_rr, s_hr, s_pu, s_ruu, s_rru, s_ruuu = sums
        a = alpha[:, 0]
        n = data.n
        ll = n * phi[:, 1] - data._sum_log_w1w + s_val
        grad = np.column_stack([-a * s_p, n + s_pu, s_h])
        hess = np.empty((rows, 3, 3))
        hess[:, 0, 0] = a * a * s_ru
        hess[:, 0, 1] = hess[:, 1, 0] = -a * (s_p + s_ruu)
        hess[:, 0, 2] = hess[:, 2, 0] = -a * s_rr
        hess[:, 1, 1] = s_ruuu + s_pu
        hess[:, 1, 2] = hess[:, 2, 1] = s_rru
        hess[:, 2, 2] = s_hr
    return ll, grad, hess


def _held(phi: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Rows whose rho sits on 0 or 1 with the gradient pointing out."""
    rho, d_rho = phi[:, 2], grad[:, 2]
    return ((rho <= 0.0) & (d_rho < 0.0)) | ((rho >= 1.0) & (d_rho > 0.0))


def _settled(phi, ll, grad, hess) -> np.ndarray:
    """Rows that leave the Newton batch as they stand: the projected
    gradient is below UF_NEWTON_TOL * max(1, |loglik|), or the gradient
    or Hessian is not finite."""
    free = np.where(_held(phi, grad)[:, None], [1.0, 1.0, 0.0], 1.0) * grad
    finite = np.isfinite(grad).all(axis=1) & np.isfinite(hess).all(axis=(1, 2))
    small = np.abs(free).max(axis=1) <= UF_NEWTON_TOL * np.maximum(1.0, np.abs(ll))
    return ~finite | small


def _ascent(phi, grad, hess, fixed) -> np.ndarray:
    """Newton ascent directions: -hess with each eigenvalue replaced by
    its magnitude, floored at UF_EIG_FLOOR times the largest (and 1),
    solved against the gradient. rho gets a zero component, decoupled
    from the other two, in the rows ``fixed`` (a mask, or one bool for
    every row) and wherever it sits on a bound with the gradient or the Newton
    step pointing out."""
    fixed = fixed | _held(phi, grad)
    while True:
        m = -hess
        g = grad.copy()
        m[fixed, 2, :] = m[fixed, :, 2] = 0.0
        m[fixed, 2, 2] = 1.0
        g[fixed, 2] = 0.0
        lam, vec = np.linalg.eigh(m)
        lam = np.abs(lam)
        floor = UF_EIG_FLOOR * np.maximum(lam.max(axis=1, keepdims=True), 1.0)
        lam = np.maximum(lam, floor)
        d = np.einsum("rij,rj->ri", vec, np.einsum("rji,rj->ri", vec, g) / lam)
        d[fixed, 2] = 0.0
        out = _held(phi, d)
        if not out.any():
            return d
        fixed = fixed | out


def _newton(
    phi: np.ndarray, data: DataSeries, hold: bool
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Projected Newton ascent from every row of ``phi`` in lockstep:
    one _uf_pass over the rows still running per iteration. With
    ``hold`` rho stays at its start in every row and the runs step in
    (log sigma, log alpha) alone: the rho derivatives, which may
    overflow (at rho = 1 past the double range), are set to zero, so
    they neither steer nor settle a run. Returns the final rows, their
    log-likelihoods, the number of Newton steps taken over all of them
    and whether each run converged.

    Each iteration takes every running row's ascent direction afresh;
    _ascent treats each row on its own, so a run whose step has just
    halved gets the same direction bit for bit. A trial point is the
    current point plus the step times the direction, with rho clipped to
    [0, 1]. It is accepted when it raises the log-likelihood by at least
    UF_ARMIJO times the first-order gain, and its pass then serves the
    next step; otherwise the step halves. A step whose predicted rise is
    under the rounding of the log-likelihood (UF_RISE_TOL times max(n,
    |loglik|)) is a run's last, kept unless it lowers the log-likelihood
    by more than that. A run also leaves when it settles (_settled),
    stalls (the step falls below UF_MIN_STEP) or has taken UF_MAX_STEPS
    steps. A run converged unless it stalled, reached UF_MAX_STEPS or
    ended where its log-likelihood, gradient or Hessian is not finite:
    it then ended settled or on its last step.
    """
    def evaluate(rows):
        ll, grad, hess = _uf_pass(rows, data)
        if hold:
            grad[:, 2] = hess[:, 2, :] = hess[:, :, 2] = 0.0
        return ll, grad, hess

    phi = phi.copy()
    ll, grad, hess = evaluate(phi)
    live = ~_settled(phi, ll, grad, hess)
    step = np.ones(len(phi))
    taken = np.zeros(len(phi), dtype=int)
    while live.any():
        idx = np.flatnonzero(live)
        direction = _ascent(phi[idx], grad[idx], hess[idx], hold)
        trial = phi[idx] + step[idx, None] * direction
        trial[:, 2] = np.clip(trial[:, 2], 0.0, 1.0)
        t_ll, t_grad, t_hess = evaluate(trial)
        gain = np.einsum("ij,ij->i", grad[idx], trial - phi[idx])
        # ll sums n terms, so its rounding error grows like n at least
        noise = UF_RISE_TOL * np.maximum(data.n, np.abs(ll[idx]))
        last = np.einsum("ij,ij->i", grad[idx], direction) <= noise
        ok = np.where(
            last,
            t_ll >= ll[idx] - noise,
            (t_ll > ll[idx]) & (t_ll - ll[idx] >= UF_ARMIJO * gain),
        )
        up, back = idx[ok], idx[~ok]
        phi[up], ll[up], grad[up], hess[up] = trial[ok], t_ll[ok], t_grad[ok], t_hess[ok]
        taken[up] += 1
        step[up] = 1.0
        step[back] *= 0.5
        live[back] = (step[back] >= UF_MIN_STEP) & ~last[~ok]
        live[up] = (
            ~_settled(phi[up], ll[up], grad[up], hess[up])
            & ~last[ok]
            & (taken[up] < UF_MAX_STEPS)
        )
    finite = np.isfinite(grad).all(axis=1) & np.isfinite(hess).all(axis=(1, 2))
    converged = finite & np.isfinite(ll) & (step >= UF_MIN_STEP) & (taken < UF_MAX_STEPS)
    return phi, ll, int(taken.sum()), converged


def _profile_sample(data: DataSeries) -> DataSeries:
    """The sample fit_uf's profile runs on: past M = UF_SUMMARY_N
    observations, the sample's M midpoint quantiles at (i + 1/2)/M,
    i < M, linearly interpolated in w in one sort (np.quantile's default
    rule), which lie strictly inside (0, 1) like the data; the data
    themselves up to M observations or where those quantiles' log odds
    are all equal, since a profile on M equal points diverges."""
    if data.n <= UF_SUMMARY_N:
        return data
    # midpoints, not 0 and 1: a summary holding the sample's extremes
    # led the refine of one n = 20000 sample to a mode 11 lower
    s = np.sort(data.array)
    h = (np.arange(UF_SUMMARY_N) + 0.5) * ((data.n - 1) / UF_SUMMARY_N)
    lo = h.astype(int)
    summary = DataSeries(s[lo] + (h - lo) * (s[lo + 1] - s[lo]))
    return summary if np.ptp(summary.log_odds) > 0.0 else data


def _level_starts(data: DataSeries) -> np.ndarray:
    """fit_uf's start at each rho level, as rows (log sigma, log alpha,
    rho): the UF law whose median and quartiles at that rho match the
    data's, on the log-odds scale (see fit_uf)."""
    q1, med, q3 = np.quantile(data.log_odds, [0.25, 0.5, 0.75])
    # positive, since the data are not all equal
    spread = (q3 - q1) or np.ptp(data.log_odds)
    alphas = [c / spread for c in UF_LEVEL_SPREADS]
    return np.column_stack([np.full(len(alphas), med), np.log(alphas), UF_RHO_LEVELS])


@_fitter("uf")
def fit_uf(data: DataSeries) -> tuple:
    """Maximum-likelihood fit of the UF distribution.

    A rho profile, then a free refine. Projected Newton on the analytic
    Hessian (see _newton) works in (log sigma, log alpha, rho) with rho
    boxed to [0, 1]. It first maximizes over (sigma, alpha) with rho
    held at each level of UF_RHO_LEVELS, all levels in lockstep. Each
    level starts (_level_starts) at log sigma = the median of the log
    odds and alpha = 2 log Q(3/4; rho) / IQR of the log odds (their
    range where the quartiles tie), with Q the kernel quantile: since
    log s = log sigma + (log x)/alpha and log x is symmetric about 0,
    that law has the data's median and quartiles. Newton then runs
    again with rho free from the two highest local maxima of the profile
    over the levels (the end levels count), since the rho profile is
    flat and often has a mode at each end of [0, 1]. The refined point
    with the highest log-likelihood wins, the first of equals.
    ``iterations`` counts the Newton steps of both phases. The settings
    are the module constants; the function takes no tuning options.

    Past UF_SUMMARY_N = M observations the profile, starts included,
    runs on the sample's M midpoint quantiles at (i + 1/2)/M, a
    DataSeries of M values (_profile_sample), in place of the data,
    since it only picks the refine's starts; the refine and the last
    pass at theta_hat run on the data. Up to M observations, or where
    those quantiles are all equal, the profile runs on the data. Every
    pass chunks its columns by BLOCK_ELEMENTS alone (_uf_pass), so a
    row's value does not depend on the rows run beside it.

    ``converged`` is the verdict of the winning refine run, _newton's
    one rule: the run ended settled or on its last step, it did not
    stall below UF_MIN_STEP or reach UF_MAX_STEPS steps, and its
    log-likelihood, gradient and Hessian are finite. ``loglik`` is loglik_uf at
    theta_hat, bit for bit. ``boundary_hit`` is set when the estimate of
    rho sits on 0 or 1.

    Never raises for non-convergence, which _fitter guarantees for all
    three models; the report says what happened.
    """
    sample = _profile_sample(data)
    ends, profile, steps, _ = _newton(_level_starts(sample), sample, True)

    # local maxima of the profile over the levels, highest first
    v = np.where(np.isnan(profile), -np.inf, profile)
    edged = np.concatenate([[-np.inf], v, [-np.inf]])
    peaks = np.flatnonzero((v >= edged[:-2]) & (v >= edged[2:]))
    peaks = peaks[np.argsort(-v[peaks], kind="stable")[:2]]
    ends, values, refine_steps, converged = _newton(ends[peaks], data, False)

    # the first of the highest refined points wins, with its run's verdict
    win = int(np.argmax(values))
    sigma, alpha = np.exp(ends[win, :2])
    theta_hat = (float(sigma), float(alpha), float(ends[win, 2]))
    return (
        theta_hat, loglik_uf(theta_hat, data), bool(converged[win]),
        steps + refine_steps, theta_hat[2] in (0.0, 1.0),
    )


# ---------------------------------------------------------------------------
# Comparison models
# ---------------------------------------------------------------------------

@_fitter("beta")
def fit_beta(data: DataSeries) -> tuple:
    """Beta MLE via Newton iteration on the digamma equations.

    Solves psi(a) - psi(a+b) = mean log w and
    psi(b) - psi(a+b) = mean log(1-w) with the exact 2x2 Jacobian of
    trigamma values, damped to keep (a, b) positive, starting from the
    method-of-moments point. The log-likelihood is n((a-1) mean log w +
    (b-1) mean log(1-w) - ln B(a, b)); where that sum's rounding error,
    about eps n times the sum of its terms' magnitudes, exceeds one, as
    at the shapes near 1e31 that near-constant data reach, it is
    cancellation, and the fit reports a NaN log-likelihood and does not
    converge.
    """
    from scipy.special import betaln, digamma, polygamma

    w = data.array
    n = data.n
    mean_lw = float(np.mean(np.log(w)))
    mean_l1w = float(np.mean(np.log1p(-w)))
    m = float(np.mean(w))
    v = float(np.var(w, ddof=1))
    t = m * (1.0 - m) / v - 1.0
    a = max(m * t, 1e-3)
    b = max((1.0 - m) * t, 1e-3)
    converged = False
    it = 0
    for it in range(1, 201):
        f1 = float(digamma(a) - digamma(a + b)) - mean_lw
        f2 = float(digamma(b) - digamma(a + b)) - mean_l1w
        if max(abs(f1), abs(f2)) < 1e-12:
            converged = True
            break
        tri_ab = float(polygamma(1, a + b))
        j11 = float(polygamma(1, a)) - tri_ab
        j22 = float(polygamma(1, b)) - tri_ab
        det = j11 * j22 - tri_ab * tri_ab
        da = (f1 * j22 + f2 * tri_ab) / det
        db = (f2 * j11 + f1 * tri_ab) / det
        scale = 1.0
        while a - scale * da <= 0.0 or b - scale * db <= 0.0:
            scale *= 0.5
        a -= scale * da
        b -= scale * db
    terms = ((a - 1.0) * mean_lw, (b - 1.0) * mean_l1w, -float(betaln(a, b)))
    usable = math.ulp(1.0) * n * sum(map(abs, terms)) <= 1.0
    return (a, b), n * sum(terms) if usable else math.nan, converged and usable, it, False


@_fitter("kumaraswamy")
def fit_kumaraswamy(data: DataSeries) -> tuple:
    """Kumaraswamy MLE by Newton iteration in t = log a on the profile.

    For fixed a the second shape has the closed-form maximizer b(a) = -n/s,
    s = sum log(1 - w^a), which leaves l = n log a + n log(-n/s) +
    (a - 1) sum log w - n - s with closed-form derivatives in t (Jones
    2009). Newton starts at a = 1, where s < 0, steps at most 1 in t
    (uphill where l is not concave), halves a step until l does not
    fall, and stops by the UF _newton's rules; ``iterations`` counts steps.
    """
    n = data.n
    logw = np.log(data.array)
    sum_logw = float(logw.sum())

    def profile(t: float) -> tuple[float, float, float]:
        # l, dl/dt and d2l/dt2; with z = a log w and r = w^a / (1 - w^a),
        # ds/dt = -sum z r and d2s/dt2 = -sum z r (1 + z + z r)
        a = math.exp(t)
        s = float(_log1m_pow(logw, a).sum())
        if s == 0.0:
            # every 1 - w^a rounds to 1, so b(a) is infinite: no fit there
            return -math.inf, 0.0, 0.0
        z = a * logw
        zr = z * np.exp(z) / -np.expm1(z)
        g, h = -float(zr.sum()) / s, -float((zr * (1.0 + z + zr)).sum()) / s
        ll = n * (t + math.log(n) - math.log(-s) - 1.0) + (a - 1.0) * sum_logw - s
        return ll, n + a * sum_logw - (n + s) * g, a * sum_logw - (n + s) * h + n * g * g

    t, steps, step = 0.0, 0, 1.0
    ll, score, curv = profile(t)
    converged = abs(score) <= UF_NEWTON_TOL * max(1.0, abs(ll))
    while not converged and step >= UF_MIN_STEP and steps < UF_MAX_STEPS:
        d = min(max(-score / curv if curv < 0.0 else math.copysign(1.0, score), -1.0), 1.0)
        noise = UF_RISE_TOL * max(n, abs(ll))
        # a step whose predicted rise is under the rounding of l is the
        # last, kept unless it lowers l by more than that rounding
        last = score * d <= noise
        trial = profile(t + step * d)
        if trial[0] >= ll - (noise if last else 0.0):
            t, (ll, score, curv), step = t + step * d, trial, 1.0
            steps += 1
        else:
            step *= 0.5
        converged = last or abs(score) <= UF_NEWTON_TOL * max(1.0, abs(ll))
    a = math.exp(t)
    return (a, -n / float(_log1m_pow(logw, a).sum())), ll, converged, steps, False


class _Model(NamedTuple):
    """A fitted model's parameter names, in theta order, and its fitter."""

    param_names: tuple[str, ...]
    fit: Callable[[DataSeries], FitReport]

    @property
    def min_n(self) -> int:
        """The fewest observations a fit takes: one more than the parameters."""
        return len(self.param_names) + 1


# The fitted models by name, in the CLI's default order: every report,
# model handle, study and the CLI's fit command take a model's name,
# parameter names, fitter and minimum sample size from here.
MODELS: dict[str, _Model] = {
    "uf": _Model(("sigma", "alpha", "rho"), fit_uf),
    "beta": _Model(("a", "b"), fit_beta),
    "kumaraswamy": _Model(("a", "b"), fit_kumaraswamy),
}


def model_key(model) -> str:
    """The MODELS key ``model`` names, in lower case; a DomainError
    naming the choices for anything else, a non-string included."""
    if not (isinstance(model, str) and model.lower() in MODELS):
        raise DomainError(f"unknown model {model!r}; choose from {', '.join(MODELS)}")
    return model.lower()


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelComparison:
    """Fit reports ranked by AIC, ties broken by BIC, then stably."""

    ranked: tuple[FitReport, ...] = field(default_factory=tuple)

    @property
    def best(self) -> FitReport:
        return self.ranked[0]


def model_select(reports: Sequence[FitReport]) -> ModelComparison:
    """Rank fitted models on the same data by AIC, then BIC.

    Reports with undefined criteria (failed fits) sink to the end.
    All reports must describe samples of the same size; mixing data of
    different lengths is an error because the criteria would not be
    comparable.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise DomainError("model_select needs at least 2 reports")
    sizes = {r.n for r in reports}
    if len(sizes) > 1:
        raise DataError(
            f"reports describe different sample sizes {sorted(sizes)}; "
            "criteria are not comparable"
        )

    def key(r: FitReport):
        bad = not math.isfinite(r.aic)
        return (bad, r.aic if not bad else 0.0, r.bic if not bad else 0.0)

    return ModelComparison(ranked=tuple(sorted(reports, key=key)))
