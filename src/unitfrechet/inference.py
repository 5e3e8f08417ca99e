"""Maximum-likelihood fitting and goodness of fit.

Fits the UF distribution by direct likelihood maximization with an
analytic score, plus the two standard unit-interval comparison models
(Beta, Kumaraswamy), and provides the shared diagnostics: information
criteria, the Kolmogorov-Smirnov statistic with its asymptotic p-value,
rank-based residuals, and AIC/BIC model ranking.

The UF optimizer works in (log sigma, log alpha, rho) with rho boxed
to [0, 1]: a deterministic multistart grid is ranked by likelihood, and
bounded L-BFGS-B runs from the best few starts and from the best start
at each rho level of the grid, and restarts from the winner while it
fails the convergence test. Every run evaluates the log-likelihood and
its analytic score together, from one pass over the kernel. A rho
estimate on 0 or 1 sets ``boundary_hit``. The fit's settings are the
module constants UF_TOP_STARTS, UF_FTOL, UF_GTOL, UF_GRAD_TOL and
UF_RESTARTS; fit_uf takes no tuning options. There is no hidden
randomness anywhere in the fit, so results are reproducible bit for bit.
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
    kernel_arg,
    kernel_pdf_and_ratios,
    kernel_pdf_unchecked,
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

# fit_uf's fixed settings: L-BFGS-B runs from the UF_TOP_STARTS best
# starts (besides the best start at each rho level) with ftol UF_FTOL
# and gtol UF_GTOL; _uf_verdict's relative score tolerance UF_GRAD_TOL;
# and up to UF_RESTARTS fresh runs from a best point that fails it.
UF_TOP_STARTS = 3
UF_FTOL = 1e-14
UF_GTOL = 1e-8
UF_GRAD_TOL = 1e-6
UF_RESTARTS = 2

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

def _assemble_loglik(th: UfParams, data: DataSeries, gx: np.ndarray) -> float:
    # -inf when a kernel density underflows to zero (or is not finite)
    if np.any(gx <= 0.0) or not np.all(np.isfinite(gx)):
        return float("-inf")
    n = data.n
    return float(
        n * math.log(th.alpha)
        - n * th.alpha * math.log(th.sigma)
        + (th.alpha - 1.0) * data.log_odds.sum()
        + 2.0 * data._sum_log1p_odds
        + np.log(gx).sum()
    )


def loglik_uf(theta: UfParams | Sequence[float], data: DataSeries) -> float:
    """UF log-likelihood.

    n log alpha - n alpha log sigma + (alpha-1) sum log s_i
    + 2 sum log(s_i + 1) + sum log g(x_i; rho), with
    x_i = (s_i/sigma)^alpha. Returns -inf when any kernel density
    evaluation underflows to zero, which tells the optimizer the point
    is hopeless without poisoning it with NaNs. Agrees with summing
    uf_logpdf to 1e-10 (asserted in tests; the two share the kernel
    but assemble the Jacobian terms independently).
    """
    th = UfParams.of(theta)
    gx = kernel_pdf_unchecked(kernel_arg(data.log_odds, th.sigma, th.alpha), th.rho)
    return _assemble_loglik(th, data, gx)


def _loglik_and_score(th: UfParams, data: DataSeries) -> tuple[float, np.ndarray]:
    """(loglik_uf, score_uf) at th from one kernel evaluation.

    Both values equal the public functions' bit for bit, including the
    -inf log-likelihood sentinel, where the score is still returned.
    """
    x = kernel_arg(data.log_odds, th.sigma, th.alpha)
    gx, r, h = kernel_pdf_and_ratios(x, th.rho)
    n = data.n
    logs = data.log_odds
    log_sigma = math.log(th.sigma)
    d_sigma = -n * th.alpha / th.sigma - (th.alpha / th.sigma) * r.sum()
    d_alpha = (
        n / th.alpha
        - n * log_sigma
        + logs.sum()
        + float(np.dot(r, logs - log_sigma))
    )
    d_rho = h.sum()
    return _assemble_loglik(th, data, gx), np.array([d_sigma, d_alpha, d_rho])


def score_uf(theta: UfParams | Sequence[float], data: DataSeries) -> np.ndarray:
    """Analytic gradient of loglik_uf in (sigma, alpha, rho).

    d/dsigma = -n alpha/sigma - (alpha/sigma) sum r_i
    d/dalpha = n/alpha - n log sigma + sum log s_i
               + sum r_i (log s_i - log sigma)
    d/drho   = sum (dg/drho)(x_i)/g(x_i)

    with r_i = x_i g'(x_i)/g(x_i). Matches central finite differences
    of loglik_uf to about 1e-9 relative; the finite-difference
    comparison is a standing test.
    """
    return _loglik_and_score(UfParams.of(theta), data)[1]


def describe(data: DataSeries) -> dict:
    """Descriptive statistics: n, mean, median, sd (ddof=1), quartiles,
    range, skewness and excess kurtosis. Skewness and kurtosis are NaN
    when all observations are equal."""
    w = data.array
    q1, med, q3 = (float(q) for q in np.quantile(w, [0.25, 0.5, 0.75]))
    # scipy would warn of catastrophic cancellation and return NaN
    flat = float(np.ptp(w)) == 0.0
    return {
        "n": data.n,
        "mean": float(np.mean(w)),
        "median": med,
        "sd": float(np.std(w, ddof=1)) if data.n > 1 else 0.0,
        "min": float(np.min(w)),
        "q1": q1,
        "q3": q3,
        "max": float(np.max(w)),
        "skewness": math.nan if flat else float(stats.skew(w)),
        "kurtosis_excess": math.nan if flat else float(stats.kurtosis(w)),
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
    """(loglik, converged) of a UF estimate.

    Converged means the score in (log sigma, log alpha, logit rho) has
    infinity norm below UF_GRAD_TOL * max(1, |loglik|); on the rho
    boundary the rho component need only point out of [0, 1] (a KKT
    condition).
    """
    sg, al, rh = th.astuple()
    ll, d = _loglik_and_score(th, data)
    # the attainable gradient floor scales with the likelihood magnitude
    # (each component sums n rounded terms), so the test is relative
    tol = UF_GRAD_TOL * max(1.0, abs(ll))
    if rh in (0.0, 1.0):
        free_grad = max(abs(d[0] * sg), abs(d[1] * al))
        kkt = d[2] <= tol if rh == 0.0 else d[2] >= -tol
        return ll, bool(free_grad < tol and kkt and math.isfinite(ll))
    tgrad = np.array([d[0] * sg, d[1] * al, d[2] * rh * (1.0 - rh)])
    return ll, bool(np.max(np.abs(tgrad)) < tol and math.isfinite(ll))


def fit_uf(data: DataSeries) -> FitReport:
    """Maximum-likelihood fit of the UF distribution.

    The multistart grid (START_GRID plus a moment-matched start whose
    sigma solves the median equation sigma/(1+sigma) = sample median) is
    ranked by log-likelihood. L-BFGS-B, driven by the log-likelihood and
    its analytic score from one kernel pass, then runs from the
    UF_TOP_STARTS best starts and from the best start at each distinct
    rho level of the grid, in (log sigma, log alpha, rho) with rho boxed
    to [0, 1] and L-BFGS-B's ``ftol`` and ``gtol`` set to UF_FTOL and
    UF_GTOL; the best run wins. The per-level starts matter because the
    rho profile can have one mode on the boundary and another inside.
    While the winner fails the convergence test, L-BFGS-B restarts from
    it, up to UF_RESTARTS times. These settings are fixed; the function
    takes no tuning options.

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

    def unpack(t: np.ndarray) -> UfParams:
        sg, al = np.exp(np.clip(t[:2], -600.0, 600.0))
        return UfParams(float(sg), float(al), min(max(float(t[2]), 0.0), 1.0))

    def objective(t: np.ndarray) -> tuple[float, np.ndarray]:
        th = unpack(t)
        ll, d = _loglik_and_score(th, data)
        return -ll, -np.array([d[0] * th.sigma, d[1] * th.alpha, d[2]])

    med = float(np.median(data.array))
    starts = [(med / (1.0 - med), 1.0, 0.5), *START_GRID]
    values = np.array([loglik_uf(s, data) for s in starts])
    # START_GRID starts are finite on every valid sample (worst -8948, at
    # w = 5e-324, 1e-300, 1 - 2**-53); only the median start can be -inf
    order = [i for i in np.argsort(values)[::-1] if math.isfinite(values[i])]
    picked = order[:UF_TOP_STARTS]
    for level in sorted({starts[i][2] for i in order}):
        best_at_level = next(i for i in order if starts[i][2] == level)
        if best_at_level not in picked:
            picked.append(best_at_level)

    def run(t0: np.ndarray):
        return optimize.minimize(
            objective,
            t0,
            method="L-BFGS-B",
            jac=True,
            bounds=((None, None), (None, None), (0.0, 1.0)),
            options={"ftol": UF_FTOL, "gtol": UF_GTOL, "maxiter": 200},
        )

    runs = [
        run(np.array([math.log(sg), math.log(al), rh]))
        for sg, al, rh in (starts[i] for i in picked)
    ]
    iterations = sum(int(res.nit) for res in runs)
    best = min(runs, key=lambda res: res.fun)  # the first of equals
    ll, converged = _uf_verdict(unpack(best.x), data)
    # L-BFGS-B can stall on a stale curvature model (seen close to
    # rho = 1); a restart from where it stopped builds a fresh one
    for _ in range(UF_RESTARTS):
        if converged:
            break
        res = run(best.x)
        iterations += int(res.nit)
        if not res.fun < best.fun:
            break
        best = res
        ll, converged = _uf_verdict(unpack(best.x), data)

    theta_hat = unpack(best.x).astuple()
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
        s = float(log1m_wa.sum())  # equals -n/b(a), strictly negative
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
    la = float(res.x)
    a = math.exp(la)
    s = float(np.log(-np.expm1(a * logw)).sum())
    b = -n / s
    ll = -float(res.fun)
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
