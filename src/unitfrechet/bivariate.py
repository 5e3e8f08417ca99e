"""Bivariate extreme distribution with Frechet margins.

Joint CDF

    F(x1, x2) = exp{ -(x1/sigma1)^(-alpha) - (x2/sigma2)^(-alpha)
                     + rho [ (x1/sigma1)^alpha + (x2/sigma2)^alpha ]^(-1) }

together with its density (the mixed second partial, derived
symbolically and checked against finite differences in the tests), a
sampler that inverts the conditional CDF of X2 given X1 by safeguarded
Newton in log scale, block by block, the ratio transform that connects
this law to the unit-Frechet distribution, and a Monte Carlo covariance
estimator for the margins.

The sampler and the UF CDF are fully independent code paths; their
agreement through ``ratio_transform`` is one of the package's main
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import LOG_GUARD, UfParams, sample_stream
from .errors import DomainError, NumericalError, ParameterError

__all__ = [
    "BivParams",
    "CovEstimate",
    "SampleStats",
    "biv_cdf",
    "biv_pdf",
    "biv_sample",
    "ratio_transform",
    "estimate_cov",
]

# Conditional inversion in biv_sample: pairs per block (each block is
# solved on its own, so the solver's temporaries stay small; no result
# depends on the value), the per-element stopping step in log v, and
# the iteration cap past which NumericalError is raised.
INVERT_BLOCK = 2 ** 14
INVERT_TOL = 1e-12
INVERT_MAX_ITER = 64


@dataclass(frozen=True)
class BivParams:
    """Parameters (sigma1, sigma2, alpha, rho) of the bivariate law."""

    sigma1: float
    sigma2: float
    alpha: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("sigma1", "sigma2", "alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ParameterError(f"{name} must be finite and > 0, got {v!r}")
        if not (math.isfinite(self.rho) and 0.0 <= self.rho <= 1.0):
            raise ParameterError(f"rho must lie in [0, 1], got {self.rho!r}")

    @classmethod
    def of(cls, p: "BivParams | Sequence[float]") -> "BivParams":
        if isinstance(p, cls):
            return p
        vals = tuple(float(v) for v in p)
        if len(vals) != 4:
            raise ParameterError(
                f"expected (sigma1, sigma2, alpha, rho), got {len(vals)} values"
            )
        return cls(*vals)

    @property
    def scale_ratio(self) -> float:
        return self.sigma1 / self.sigma2

    def uf_params(self) -> UfParams:
        """UF parameters of the induced ratio X1 / (X1 + X2)."""
        return UfParams(self.scale_ratio, self.alpha, self.rho)


class CovEstimate(NamedTuple):
    """Monte Carlo covariance estimate with its standard error."""

    value: float
    se: float
    n: int


class SampleStats(NamedTuple):
    """Bookkeeping from biv_sample: how many pairs were redrawn, in how
    many rounds, and the largest iteration count the conditional
    inversion needed over all blocks and rounds."""

    resampled: int
    rounds: int
    iterations: int


def _powers(x1: np.ndarray, x2: np.ndarray, p: BivParams) -> tuple[np.ndarray, np.ndarray]:
    """(x1/sigma1)^alpha and (x2/sigma2)^alpha, formed in log space."""
    lu = p.alpha * (np.log(x1) - math.log(p.sigma1))
    lv = p.alpha * (np.log(x2) - math.log(p.sigma2))
    u = np.exp(np.clip(lu, -LOG_GUARD, LOG_GUARD))
    v = np.exp(np.clip(lv, -LOG_GUARD, LOG_GUARD))
    return u, v


def _coords(x1, x2, strict: bool) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both coordinates as broadcast 1-d float arrays plus a was-scalar
    flag. Every coordinate must be > 0 (``strict``) or >= 0; NaN is
    neither and is rejected."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.broadcast_arrays(np.atleast_1d(x1), np.atleast_1d(x2))
    low = np.minimum(x1, x2)  # NaN propagates
    if strict and not np.all(low > 0.0):
        raise DomainError("coordinates must be strictly positive")
    if not np.all(low >= 0.0):
        raise DomainError("coordinates must be nonnegative")
    return x1, x2, scalar


def biv_cdf(x1, x2, p: BivParams | Sequence[float]):
    """Joint CDF of the bivariate extreme distribution.

    Zero (as the limit) whenever a coordinate is zero; both coordinates
    must be nonnegative.
    """
    p = BivParams.of(p)
    x1, x2, scalar = _coords(x1, x2, strict=False)
    out = np.zeros(x1.shape, dtype=float)
    pos = (x1 > 0.0) & (x2 > 0.0)
    if np.any(pos):
        u, v = _powers(x1[pos], x2[pos], p)
        out[pos] = np.exp(-1.0 / u - 1.0 / v + p.rho / (u + v))
    return float(out[0]) if scalar else out


def biv_pdf(x1, x2, p: BivParams | Sequence[float]):
    """Joint density: the mixed partial d^2 F / dx1 dx2.

    With u = (x1/sigma1)^alpha and v = (x2/sigma2)^alpha the closed form
    is

        F(x1,x2) * (alpha^2 u v / (x1 x2))
        * [ (u^-2 - rho (u+v)^-2) (v^-2 - rho (u+v)^-2)
            + 2 rho (u+v)^-3 ]

    The first factor in the bracket is a product of two nonnegative
    terms (rho <= 1 and u, v <= u+v imply u^-2 >= (u+v)^-2 >= rho
    (u+v)^-2), so the density is nonnegative everywhere.
    """
    p = BivParams.of(p)
    x1, x2, scalar = _coords(x1, x2, strict=True)
    u, v = _powers(x1, x2, p)
    t = u + v
    logF = -1.0 / u - 1.0 / v + p.rho / t
    bracket = (1.0 / u**2 - p.rho / t**2) * (1.0 / v**2 - p.rho / t**2) + 2.0 * p.rho / t**3
    # assemble in log space: alpha^2 u v / (x1 x2) can overflow on its own
    log_jac = (
        2.0 * math.log(p.alpha)
        + np.log(u) + np.log(v)
        - np.log(x1) - np.log(x2)
    )
    with np.errstate(divide="ignore"):
        out = np.where(
            bracket > 0.0,
            np.exp(logF + log_jac + np.log(np.where(bracket > 0.0, bracket, 1.0))),
            0.0,
        )
    return float(out[0]) if scalar else out


def _cond_exponent(s: np.ndarray, u: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """G(s) = log(-log C(e^s | u)) and dG/ds, where C is the conditional
    CDF of V = (X2/sigma2)^alpha given U = (X1/sigma1)^alpha = u.

    C is dF/dx1 divided by the marginal density of X1; in the (u, v)
    scale it reads exp(-1/v + rho/t) (1 - rho (u/t)^2) with t = u + v,
    increasing in v from 0 to 1. With m = (1 - rho) u^2 + v (2u + v),
    which is t^2 - rho u^2,

        -log C = (u + (1 - rho) v) / (v t) + log1p(rho u^2 / m)
        d(-log C)/dv = -(u (u + 2v) + (1 - rho) v^2) / (v^2 t^2)
                       - 2 rho u^2 / (t m)

    Every term keeps one sign, so nothing cancels (the textbook forms
    1/v - rho/t and 2/t - 2t/m do). At rho = 0, G(s) = -s.
    """
    c = 1.0 - rho
    v = np.exp(s)
    t = u + v
    uu = u * u
    m = c * uu + v * (2.0 * u + v)
    minus_log_c = (u + c * v) / (v * t) + np.log1p(rho * uu / m)
    # v d(-log C)/dv, the derivative in s
    ds = -(u * (u + 2.0 * v) + c * v * v) / (v * t * t) - 2.0 * rho * uu * v / (t * m)
    return np.log(minus_log_c), ds / minus_log_c


def _cond_invert(u: np.ndarray, q: np.ndarray, rho: float) -> tuple[np.ndarray, int]:
    """Solve C(v | u) = q for v, elementwise; returns v and the largest
    iteration count any element needed.

    Safeguarded Newton (after Numerical Recipes' ``rtsafe``) on
    G(s) = log(-log C(e^s | u)) = log(-log q) in s = log v, from the
    rho = 0 root s = -log(-log q), which is exact at rho = 0. Each
    element keeps its own bracket from the sign of G - log(-log q) (G
    decreases in s). It takes the Newton point unless that point leaves
    the bracket, lies past |s| = LOG_GUARD / 4 (where v^4 would leave
    the double range) or, once the bracket is closed, moves more than
    half the previous step (which breaks Newton 2-cycles). In its place
    it steps 1 in s towards the root while the bracket is open on that
    side, and bisects once it is closed. An element stops once its
    step is at most INVERT_TOL, so it ends within about 1e-12 relative
    of its root. Only unconverged elements are iterated, over blocks
    of INVERT_BLOCK pairs that keep the temporaries small. No element's
    path depends on another's, so the result does not depend on the
    blocking or on the order of the pairs. ``q`` must lie in
    [1e-300, 1 - 1e-16], as biv_sample clips it.
    """
    target = np.log(-np.log(q))
    s = np.empty_like(target)
    iterations = 0
    for start in range(0, target.size, INVERT_BLOCK):
        block = slice(start, start + INVERT_BLOCK)
        s[block], k = _invert_block(u[block], target[block], rho)
        iterations = max(iterations, k)
    return np.exp(s), iterations


def _invert_block(u: np.ndarray, target: np.ndarray, rho: float) -> tuple[np.ndarray, int]:
    """_cond_invert's iteration on one block, in s = log v."""
    s = -target
    out = np.empty_like(s)
    pending = np.arange(s.size)
    lo = np.full(s.size, -np.inf)
    hi = np.full(s.size, np.inf)
    last = np.full(s.size, np.inf)
    for it in range(1, INVERT_MAX_ITER + 1):
        g, slope = _cond_exponent(s, u, rho)
        f = g - target
        lo = np.where(f >= 0.0, s, lo)
        hi = np.where(f < 0.0, s, hi)
        closed = np.isfinite(lo) & np.isfinite(hi)
        dx = f / slope
        nxt = s - dx
        newton = (
            (nxt > lo) & (nxt < hi) & (np.abs(nxt) <= LOG_GUARD / 4.0)
            & (~closed | (np.abs(dx) <= 0.5 * last))
        ) | (np.abs(dx) <= INVERT_TOL)
        safe = np.where(closed, 0.5 * (lo + hi), np.where(f >= 0.0, s + 1.0, s - 1.0))
        nxt = np.where(newton, nxt, safe)
        last = np.abs(nxt - s)
        done = last <= INVERT_TOL
        out[pending[done]] = nxt[done]
        if done.all():
            return out, it
        keep = ~done
        pending, s, u, target, lo, hi, last = (
            a[keep] for a in (pending, nxt, u, target, lo, hi, last)
        )
    raise NumericalError(
        f"conditional inversion did not converge in {INVERT_MAX_ITER} iterations"
    )


def biv_sample(
    p: BivParams | Sequence[float],
    n: int,
    seed: int,
    return_stats: bool = False,
):
    """Draw n pairs from the bivariate extreme distribution.

    X1 comes from inverting its Frechet marginal; X2 given X1 comes from
    inverting the analytic conditional CDF by safeguarded Newton in
    log scale (``_cond_invert``), to about 1e-12 relative. That solve
    uses nothing from the UF code, so the ratio law it implies is an
    independent check of ``uf_cdf``. Deterministic for fixed
    (p, n, seed) via the Philox counter-based generator.

    Pairs whose coordinates overflow or underflow to nonfinite or
    nonpositive floats (possible for very small alpha, where the tails
    are extremely heavy) are redrawn from the same stream rather than
    clamped. ``return_stats`` also returns a ``SampleStats`` with the
    redraw counts and the largest inversion iteration count.
    """
    p = BivParams.of(p)
    n, gen = sample_stream(n, seed)

    def draw(k: int) -> tuple[np.ndarray, np.ndarray, int]:
        un = np.clip(gen.random(k), 1e-300, 1.0 - 1e-16)
        qn = np.clip(gen.random(k), 1e-300, 1.0 - 1e-16)
        u = -1.0 / np.log(un)
        v, iterations = _cond_invert(u, qn, p.rho)
        x1 = p.sigma1 * u ** (1.0 / p.alpha)
        x2 = p.sigma2 * v ** (1.0 / p.alpha)
        return x1, x2, iterations

    x1, x2, iterations = draw(n)
    resampled = 0
    rounds = 0
    while True:
        bad = ~(np.isfinite(x1) & np.isfinite(x2) & (x1 > 0.0) & (x2 > 0.0))
        k = int(bad.sum())
        if k == 0:
            break
        rounds += 1
        resampled += k
        if rounds > 100:
            raise NumericalError("bivariate sampler failed to produce finite pairs")
        r1, r2, more = draw(k)
        x1[bad] = r1
        x2[bad] = r2
        iterations = max(iterations, more)
    out = np.column_stack([x1, x2])
    if return_stats:
        return out, SampleStats(resampled=resampled, rounds=rounds, iterations=iterations)
    return out


def ratio_transform(pairs) -> np.ndarray:
    """Map pairs (x1, x2) to proportions x1 / (x1 + x2).

    Computed as 1 / (1 + x2/x1), which stays accurate when both
    coordinates are huge. All entries must be strictly positive.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("pairs must be an (n, 2) array")
    if np.any(~(arr > 0.0)):
        raise DomainError("pair entries must be strictly positive")
    return 1.0 / (1.0 + arr[:, 1] / arr[:, 0])


def estimate_cov(p: BivParams | Sequence[float], n: int, seed: int) -> CovEstimate:
    """Monte Carlo estimate of Cov(X1, X2) with a standard error.

    No closed form for this covariance is available, only the
    Cauchy-Schwarz bound sigma1 sigma2 [Gamma(1-2/alpha) -
    Gamma(1-1/alpha)^2]; alpha > 2 is required so second moments exist,
    and n of at least 10^4 keeps the estimate usable. The standard
    error is the usual large-sample plug-in
    sqrt((m22 - cov^2)/n) with m22 the sample mean of the products of
    squared deviations; for alpha close to 2 the fourth-moment tails
    make it noisy, so treat it as indicative there.
    """
    p = BivParams.of(p)
    if p.alpha <= 2.0:
        raise DomainError("estimate_cov requires alpha > 2 (finite second moments)")
    n = int(n)
    if n < 10_000:
        raise DomainError(f"estimate_cov requires n >= 10000, got {n}")
    xy = biv_sample(p, n, seed)
    d1 = xy[:, 0] - xy[:, 0].mean()
    d2 = xy[:, 1] - xy[:, 1].mean()
    cov = float(np.dot(d1, d2) / (n - 1))
    m22 = float(np.mean((d1 * d2) ** 2))
    se = math.sqrt(max(m22 - cov * cov, 0.0) / n)
    return CovEstimate(value=cov, se=se, n=n)
