"""Maximum-likelihood fitting and goodness of fit.

Fits the UF distribution by direct likelihood maximization with an
analytic score and Hessian, plus the two standard unit-interval
comparison models (Beta, Kumaraswamy), and provides the shared
diagnostics: information criteria, the Kolmogorov-Smirnov statistic
with its asymptotic p-value, rank-based residuals, and AIC/BIC model
ranking.

The UF log-likelihood, its gradient and its Hessian have one source,
the batched log-space pass ``_uf_pass`` over ``core.kernel_log_derivs``:
loglik_uf and score_uf are single-row passes, and the fit ranks its
starts, steps, picks its winner and judges convergence with it. The
UF fit works in (log sigma, log alpha, rho) with rho boxed to
[0, 1]: a deterministic multistart grid is ranked by likelihood in one
batched pass, then projected Newton on the analytic Hessian runs from
the best few starts and from the best start at each rho level of the
grid, all in lockstep, one batched kernel pass per iteration. A rho
estimate on 0 or 1 sets ``boundary_hit``. The fit's settings are the
module constants UF_TOP_STARTS and UF_GRAD_TOL and those of the Newton
runs (UF_PROFILE_RISE through UF_PASS_ELEMENTS); fit_uf takes no tuning
options. There is no hidden randomness anywhere in the fit, so results
are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy import optimize, special, stats

from .core import (
    UfParams,
    kernel_log_derivs,
    log_odds,
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
    "START_GRID",
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

# Parameter names of each fitted model, in theta order; every report and
# model handle takes its parameter count from here.
PARAM_NAMES: dict[str, tuple[str, ...]] = {
    "uf": ("sigma", "alpha", "rho"),
    "beta": ("a", "b"),
    "kumaraswamy": ("a", "b"),
}

# fit_uf's fixed settings. Newton runs from the UF_TOP_STARTS best
# starts (besides the best start at each rho level); _uf_verdict's
# relative score tolerance is UF_GRAD_TOL. The rest belong to _newton:
# a run holds rho at its start until the predicted rise of a step falls
# below UF_PROFILE_RISE (log-likelihood units), settles at a projected
# gradient below UF_NEWTON_TOL times max(1, |loglik|), takes its last
# step once the predicted rise falls below UF_RISE_TOL times
# max(n, |loglik|), and stops after UF_MAX_STEPS steps or once its step
# halves below UF_MIN_STEP. UF_ARMIJO is the sufficient-increase
# fraction and UF_EIG_FLOOR the relative floor on Hessian eigenvalue
# magnitudes. A pass over more than UF_PASS_ELEMENTS (rows x n)
# elements sums over column chunks, which bounds its temporaries.
UF_TOP_STARTS = 3
UF_GRAD_TOL = 1e-6
UF_PROFILE_RISE = 1.0
UF_NEWTON_TOL = 1e-10
UF_RISE_TOL = 1e-14
UF_MAX_STEPS = 100
UF_MIN_STEP = 2.0 ** -30
UF_ARMIJO = 1e-4
UF_EIG_FLOOR = 1e-8
UF_PASS_ELEMENTS = 2 ** 14

# Deterministic multistart grid for fit_uf, ranked by likelihood before
# any optimizer runs. A moment-matched start derived from the sample
# median is prepended at fit time.
START_GRID: tuple[tuple[float, float, float], ...] = tuple(
    (sg, al, rh)
    for sg in (0.5, 1.0, 2.0)
    for al in (0.5, 1.0, 2.0, 4.0)
    for rh in (0.1, 0.5, 0.9)
)


@dataclass(frozen=True)
class DataSeries:
    """An ordered sample of proportions strictly inside (0, 1).

    Validation happens at construction: the series must be nonempty and
    every value must be a finite float in the open unit interval.
    Exact 0 and 1 are rejected because the UF log-likelihood diverges
    there. Ingestion order is preserved.
    """

    values: tuple[float, ...]
    label: str = ""
    source: str = ""

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DataError("data series is empty")
        for i, v in enumerate(vals):
            if not math.isfinite(v):
                raise DataError(f"value {i + 1} is not finite: {v!r}")
            if not (0.0 < v < 1.0):
                raise DataError(
                    f"value {i + 1} is outside the open interval (0, 1): {v!r}"
                )
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.asarray(self.values, dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def log_odds(self) -> np.ndarray:
        """log(w/(1-w)) per observation, the scale the likelihood lives on."""
        arr = log_odds(self.array)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _sum_log1p_odds(self) -> float:
        # sum of log(1 + s_i), computed as a softplus for stability
        return float(np.logaddexp(0.0, self.log_odds).sum())


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
    """th as the one row (log sigma, log alpha, rho) of a _uf_pass."""
    return np.array([[math.log(th.sigma), math.log(th.alpha), th.rho]])


def loglik_uf(theta: UfParams | Sequence[float], data: DataSeries) -> float:
    """UF log-likelihood.

    n log alpha - n alpha log sigma + (alpha-1) sum log s_i
    + 2 sum log(s_i + 1) + sum log g(x_i; rho), with
    x_i = (s_i/sigma)^alpha. Formed in log space by _uf_pass, the fit's
    own evaluation, so it is exact for any finite
    u_i = alpha (log s_i - log sigma), including where x_i or g(x_i)
    lie outside the double range; it is non-finite only where u_i
    itself overflows. Agrees with summing uf_logpdf, whose log kernel
    density comes from the same code, to 1e-10 (asserted in tests).
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

    The statistic is the larger of the two one-sided suprema over the
    sample points; the p-value is the asymptotic Kolmogorov series
    evaluated at sqrt(n) D. For small n the asymptotic p-value is
    conservative relative to the exact distribution, and when the
    reference CDF uses estimated parameters the usual caveat applies:
    the p-value is then optimistic. Both caveats are the caller's to
    weigh; the computation itself is exact for what it claims.
    """
    f = _as_cdf(cdf)
    w = np.sort(data.array)
    fv = np.asarray(f(w), dtype=float)
    n = data.n
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - fv))
    d_minus = float(np.max(fv - (i - 1.0) / n))
    d = max(d_plus, d_minus)
    p = float(special.kolmogorov(math.sqrt(n) * d))
    return KSResult(statistic=d, pvalue=min(max(p, 0.0), 1.0))


def residuals(data: DataSeries, cdf) -> np.ndarray:
    """Rank residuals R_i = ECDF(w_i) - F(w_i), in ingestion order.

    The empirical CDF uses ranks divided by n with ties averaged, so
    tied observations share one residual value.
    """
    f = _as_cdf(cdf)
    w = data.array
    ranks = stats.rankdata(w, method="average")
    return ranks / data.n - np.asarray(f(w), dtype=float)


def _build_report(
    model: str,
    data: DataSeries,
    theta_hat: tuple[float, ...],
    loglik: float,
    converged: bool,
    boundary_hit: bool,
    iterations: int,
    message: str,
) -> FitReport:
    """The report of a fit; KS and residuals need a finite loglik."""
    n = data.n
    k = len(PARAM_NAMES[model])
    if math.isfinite(loglik):
        handle = model_handle(model, theta_hat)
        ks = ks_test(data, handle)
        res = tuple(float(r) for r in residuals(data, handle))
    else:
        ks = KSResult(float("nan"), float("nan"))
        res = tuple([float("nan")] * n)
    return FitReport(
        model=model,
        theta_hat=theta_hat,
        param_names=PARAM_NAMES[model],
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


def model_handle(model: str, theta: Sequence[float]) -> ModelHandle:
    """Build the uniform (pdf, cdf) view for a named model.

    Supported names: "uf" (theta = (sigma, alpha, rho)), "beta"
    (theta = (a, b)) and "kumaraswamy" (theta = (a, b)).
    """
    model = model.lower()
    if model == "uf":
        th = UfParams.of(theta)

        def pdf(w):
            return np.asarray(uf_pdf(w, th))

        def cdf(w):
            return np.asarray(uf_cdf(w, th))

    elif model == "beta":
        a, b = (float(v) for v in theta)

        def pdf(w):
            return np.exp(
                (a - 1.0) * np.log(w)
                + (b - 1.0) * np.log1p(-np.asarray(w, dtype=float))
                - special.betaln(a, b)
            )

        def cdf(w):
            return special.betainc(a, b, np.asarray(w, dtype=float))

    elif model == "kumaraswamy":
        a, b = (float(v) for v in theta)

        def pdf(w):
            w = np.asarray(w, dtype=float)
            wa = np.exp(a * np.log(w))
            return a * b * np.exp(
                (a - 1.0) * np.log(w) + (b - 1.0) * np.log1p(-wa)
            )

        def cdf(w):
            w = np.asarray(w, dtype=float)
            wa = np.exp(a * np.log(w))
            return -np.expm1(b * np.log1p(-wa))

    else:
        raise DomainError(f"unknown model {model!r}")
    return ModelHandle(name=model, k_params=len(PARAM_NAMES[model]), pdf=pdf, cdf=cdf)


# ---------------------------------------------------------------------------
# UF fit
# ---------------------------------------------------------------------------

def _ill_posed_report(model: str, data: DataSeries, min_n: int) -> Optional[FitReport]:
    """An all-NaN report when every observation is the same, else None."""
    if data.n < min_n:
        raise DataError(f"fitting needs at least {min_n} observations, got {data.n}")
    if float(np.ptp(data.array)) > 0.0:
        return None
    nan = float("nan")
    theta_hat = (nan,) * len(PARAM_NAMES[model])
    message = "ill-posed: all observations are identical"
    return _build_report(model, data, theta_hat, nan, False, False, 0, message)


def _uf_verdict(th: UfParams, data: DataSeries) -> tuple[float, bool]:
    """(loglik_uf, converged) of a UF estimate, from one _uf_pass.

    Converged means the score in (log sigma, log alpha, logit rho) has
    infinity norm below UF_GRAD_TOL * max(1, |loglik|); on the rho
    boundary the rho component need only point out of [0, 1] (a KKT
    condition).
    """
    rh = th.rho
    ll, grad, _ = _uf_pass(_phi(th), data)
    # the pass's gradient is already (sigma d/dsigma, alpha d/dalpha, d/drho)
    ll, d = float(ll[0]), grad[0]
    # the attainable gradient floor scales with the likelihood magnitude
    # (each component sums n rounded terms), so the test is relative
    tol = UF_GRAD_TOL * max(1.0, abs(ll))
    if rh in (0.0, 1.0):
        free_grad = max(abs(d[0]), abs(d[1]))
        kkt = d[2] <= tol if rh == 0.0 else d[2] >= -tol
        return ll, bool(free_grad < tol and kkt and math.isfinite(ll))
    tgrad = d * [1.0, 1.0, rh * (1.0 - rh)]
    return ll, bool(np.max(np.abs(tgrad)) < tol and math.isfinite(ll))


def _uf_pass(phi: np.ndarray, data: DataSeries):
    """Log-likelihood, gradient and Hessian in (log sigma, log alpha,
    rho) at each row of ``phi``, shape (rows, 3), from one kernel pass
    over (rows x n).

    Writing u_i = alpha (log s_i - log sigma), the log-likelihood is
    n log alpha - sum log s_i + 2 sum log(1 + s_i)
    + sum [u_i + log g(e^u_i; rho)], so every derivative is a sum over
    the data of the kernel_log_derivs terms times powers of u_i. Above
    UF_PASS_ELEMENTS elements the sums run over column chunks. The value
    is formed in log space, so it is exact for any finite u_i; a row
    whose point overflows gets a non-finite value, not a warning. This
    is the package's one UF log-likelihood: loglik_uf, score_uf and the
    fit all read it.
    """
    rows = len(phi)
    log_sigma, rho = phi[:, :1], phi[:, 2:]
    width = max(1, UF_PASS_ELEMENTS // rows)
    sums = np.zeros((10, rows))
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = np.exp(phi[:, 1:2])
        for lo in range(0, data.n, width):
            u = alpha * (data.log_odds[lo:lo + width] - log_sigma)
            logg, r, h, dr_du, dr_drho, dh_drho = kernel_log_derivs(u, rho)
            p = 1.0 + r
            ru = dr_du * u
            sums += np.stack([
                u + logg, p, p * u, h, dr_du, ru, ru * u, dr_drho, dr_drho * u, dh_drho,
            ]).sum(axis=-1)
        s_val, s_p, s_pu, s_h, s_ru, s_ruu, s_ruuu, s_rr, s_rru, s_hr = sums
        a = alpha[:, 0]
        n = data.n
        ll = n * phi[:, 1] - data.log_odds.sum() + 2.0 * data._sum_log1p_odds + s_val
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
    from the other two, in the rows ``fixed`` and wherever it sits on a
    bound with the gradient or the Newton step pointing out."""
    rho = phi[:, 2]
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
        out = ((rho <= 0.0) & (d[:, 2] < 0.0)) | ((rho >= 1.0) & (d[:, 2] > 0.0))
        if not out.any():
            return d
        fixed = fixed | out


def _newton(phi: np.ndarray, data: DataSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """Projected Newton ascent from every row of ``phi`` in lockstep:
    one _uf_pass over the rows still running per iteration. Returns the
    final rows, their log-likelihoods and the number of Newton steps
    taken over all of them.

    Each run first holds rho at its start and steps in (log sigma,
    log alpha) alone, until the predicted rise of that step falls below
    UF_PROFILE_RISE; then rho is freed. A run thus sets out along rho
    from the profile likelihood at its own rho level and tends to stay
    with the mode nearest that level: freed at once, runs from every
    level could leap into one mode together and miss the other.

    A trial point is the current point plus the step times the
    direction, with rho clipped to [0, 1]. It is accepted when it raises
    the log-likelihood by at least UF_ARMIJO times the first-order gain,
    and its pass then serves the next step; otherwise the step halves.
    A step whose predicted rise is under the rounding of the
    log-likelihood (UF_RISE_TOL times max(n, |loglik|)) is a run's
    last, kept unless it lowers the log-likelihood by more than that. A
    run also leaves when it settles (_settled), stalls (the step falls
    below UF_MIN_STEP) or has taken UF_MAX_STEPS steps.
    """
    def aim(rows):
        direction[rows] = _ascent(phi[rows], grad[rows], hess[rows], profiling[rows])
        rise[rows] = np.einsum("ij,ij->i", grad[rows], direction[rows])
        freed = rows[profiling[rows] & (rise[rows] <= UF_PROFILE_RISE)]
        if len(freed):
            profiling[freed] = False
            aim(freed)

    phi = phi.copy()
    ll, grad, hess = _uf_pass(phi, data)
    live = ~_settled(phi, ll, grad, hess)
    profiling = np.ones(len(phi), dtype=bool)
    direction = np.zeros_like(phi)
    rise = np.zeros(len(phi))
    aim(np.flatnonzero(live))
    step = np.ones(len(phi))
    taken = np.zeros(len(phi), dtype=int)
    while live.any():
        idx = np.flatnonzero(live)
        trial = phi[idx] + step[idx, None] * direction[idx]
        trial[:, 2] = np.clip(trial[:, 2], 0.0, 1.0)
        t_ll, t_grad, t_hess = _uf_pass(trial, data)
        gain = np.einsum("ij,ij->i", grad[idx], trial - phi[idx])
        # ll sums n terms, so its rounding error grows like n at least
        noise = UF_RISE_TOL * np.maximum(data.n, np.abs(ll[idx]))
        last = rise[idx] <= noise
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
        aim(up[live[up]])
    return phi, ll, int(taken.sum())


def _theta(phi: np.ndarray) -> UfParams:
    """The parameters at a point (log sigma, log alpha, rho)."""
    sg, al = np.exp(np.clip(phi[:2], -600.0, 600.0))
    return UfParams(float(sg), float(al), min(max(float(phi[2]), 0.0), 1.0))


def fit_uf(data: DataSeries) -> FitReport:
    """Maximum-likelihood fit of the UF distribution.

    The multistart grid (START_GRID plus a moment-matched start whose
    sigma solves the median equation sigma/(1+sigma) = sample median) is
    ranked by log-likelihood in one batched pass. Projected Newton on
    the analytic Hessian (see _newton) then runs in (log sigma,
    log alpha, rho), with rho boxed to [0, 1], from the UF_TOP_STARTS
    best starts and from the best start at each distinct rho level of
    the grid, all in lockstep. The per-level starts matter because the
    rho profile can have one mode on the boundary and another inside.
    The run whose end point has the highest log-likelihood wins, the
    first of equals. ``iterations`` counts the Newton steps of all runs.
    The settings are the module constants; the function takes no tuning
    options.

    ``converged`` means the reparameterized score has infinity norm
    below UF_GRAD_TOL * max(1, |loglik|). ``boundary_hit`` is set when
    the estimate of rho sits on 0 or 1; the convergence flag then checks
    the two free gradient components plus the sign of the rho derivative
    (a KKT condition) instead of all three.

    Never raises for non-convergence; the report says what happened.
    """
    ill_posed = _ill_posed_report("uf", data, 4)
    if ill_posed is not None:
        return ill_posed

    med = float(np.median(data.array))
    starts = [(med / (1.0 - med), 1.0, 0.5), *START_GRID]
    phi = np.array([(math.log(sg), math.log(al), rh) for sg, al, rh in starts])
    values = _uf_pass(phi, data)[0]
    # every start is finite on valid data (all |u_i| < 3000), but a
    # non-finite value is kept out of the ranking all the same
    order = [i for i in np.argsort(values)[::-1] if math.isfinite(values[i])]
    picked = order[:UF_TOP_STARTS]
    for level in sorted({starts[i][2] for i in order}):
        best_at_level = next(i for i in order if starts[i][2] == level)
        if best_at_level not in picked:
            picked.append(best_at_level)

    ends, values, iterations = _newton(phi[picked], data)
    best = _theta(ends[int(np.argmax(values))])
    ll, converged = _uf_verdict(best, data)
    theta_hat = best.astuple()
    return _build_report(
        "uf", data, theta_hat, ll, converged,
        boundary_hit=theta_hat[2] in (0.0, 1.0),
        iterations=iterations,
        message="" if converged else "gradient tolerance not reached",
    )


# ---------------------------------------------------------------------------
# Comparison models
# ---------------------------------------------------------------------------

def fit_beta(data: DataSeries) -> FitReport:
    """Beta MLE via Newton iteration on the digamma equations.

    Solves psi(a) - psi(a+b) = mean log w and
    psi(b) - psi(a+b) = mean log(1-w) with the exact 2x2 Jacobian of
    trigamma values, damped to keep (a, b) positive, starting from the
    method-of-moments point.
    """
    ill_posed = _ill_posed_report("beta", data, 3)
    if ill_posed is not None:
        return ill_posed
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
        f1 = float(special.digamma(a) - special.digamma(a + b)) - mean_lw
        f2 = float(special.digamma(b) - special.digamma(a + b)) - mean_l1w
        if max(abs(f1), abs(f2)) < 1e-12:
            converged = True
            break
        tri_ab = float(special.polygamma(1, a + b))
        j11 = float(special.polygamma(1, a)) - tri_ab
        j22 = float(special.polygamma(1, b)) - tri_ab
        det = j11 * j22 - tri_ab * tri_ab
        da = (f1 * j22 + f2 * tri_ab) / det
        db = (f2 * j11 + f1 * tri_ab) / det
        scale = 1.0
        while a - scale * da <= 0.0 or b - scale * db <= 0.0:
            scale *= 0.5
        a -= scale * da
        b -= scale * db
    ll = float(
        n * ((a - 1.0) * mean_lw + (b - 1.0) * mean_l1w - special.betaln(a, b))
    )
    return _build_report(
        "beta", data, (a, b), ll, converged,
        boundary_hit=False,
        iterations=it,
        message="" if converged else "Newton iteration did not converge",
    )


def fit_kumaraswamy(data: DataSeries) -> FitReport:
    """Kumaraswamy MLE via the profile likelihood in the first shape.

    For fixed a the second shape has the closed-form maximizer
    b(a) = n / (-sum log(1 - w^a)), so only a one-dimensional search
    over log a remains: a coarse scan brackets the optimum and Brent
    iteration finishes it.
    """
    ill_posed = _ill_posed_report("kumaraswamy", data, 3)
    if ill_posed is not None:
        return ill_posed
    w = data.array
    n = data.n
    logw = np.log(w)
    sum_logw = float(logw.sum())

    def profile_nll(la: float) -> float:
        a = math.exp(la)
        # log(1 - w^a) without losing precision for w^a near 0 or 1
        log1m_wa = np.log(-np.expm1(a * logw))
        s = float(log1m_wa.sum())  # equals -n/b(a)
        if s == 0.0:
            # every 1 - w^a rounds to 1, so b(a) is infinite: no fit there
            return math.inf
        b = -n / s
        ll = (
            n * la
            + n * math.log(b)
            + (a - 1.0) * sum_logw
            + (b - 1.0) * s
        )
        return -ll

    grid = np.linspace(-5.0, 5.0, 81)
    grid_vals = np.array([profile_nll(la) for la in grid])
    k = int(np.argmin(grid_vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    res = optimize.minimize_scalar(
        profile_nll, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12, "maxiter": 500},
    )
    la, nll = float(res.x), float(res.fun)
    if not nll <= grid_vals[k]:
        # the search found no point better than the scan's, possibly
        # none with a finite b: keep the scan's best, which is finite
        # because the scan's first point always is
        la, nll = float(grid[k]), float(grid_vals[k])
    a = math.exp(la)
    b = -n / float(np.log(-np.expm1(a * logw)).sum())
    ll = -nll
    at_edge = la <= grid[0] + 1e-9 or la >= grid[-1] - 1e-9
    converged = bool(res.success and not at_edge)
    return _build_report(
        "kumaraswamy", data, (a, b), ll, converged,
        boundary_hit=False,
        iterations=int(res.nfev) + grid.size,
        message="" if converged else "profile search hit its bounds",
    )


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
