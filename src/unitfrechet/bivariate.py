"""Bivariate extreme distribution with Frechet margins.

Joint CDF

    F(x1, x2) = exp{ -(x1/sigma1)^(-alpha) - (x2/sigma2)^(-alpha)
                     + rho [ (x1/sigma1)^alpha + (x2/sigma2)^alpha ]^(-1) }

together with its density (the mixed second partial, derived
symbolically and checked against finite differences in the tests), a
conditional-inversion sampler, the ratio transform that connects this
law to the unit-Frechet distribution, and a Monte Carlo covariance
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

from .core import LOG_GUARD, UfParams
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
    """Bookkeeping from biv_sample: how many draws were replaced."""

    resampled: int
    rounds: int


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


def _cond_cdf(v: np.ndarray, u: np.ndarray, rho: float) -> np.ndarray:
    """Conditional CDF of V = (X2/sigma2)^alpha given U = (X1/sigma1)^alpha = u.

    Obtained from dF/dx1 divided by the marginal density of X1; in the
    (u, v) scale it reads exp(-1/v + rho/(u+v)) (1 - rho (u/(u+v))^2),
    which is increasing in v from 0 to 1.
    """
    t = u + v
    return np.exp(-1.0 / v + rho / t) * (1.0 - rho * (u / t) ** 2)


def _cond_invert(u: np.ndarray, q: np.ndarray, rho: float, tol: float = 1e-12) -> np.ndarray:
    """Solve _cond_cdf(v, u, rho) = q for v, elementwise.

    The rho = 0 solution v0 = -1/log q seeds a geometric bracket that is
    widened by halving/doubling and then shrunk by bisection in log
    space (midpoint sqrt(lo*hi)), 60 iterations, to ~1e-12 relative.
    """
    v = -1.0 / np.log(q)
    lo = v.copy()
    hi = v.copy()
    for _ in range(200):
        bad = _cond_cdf(lo, u, rho) > q
        if not np.any(bad):
            break
        lo = np.where(bad, lo * 0.5, lo)
    else:
        raise NumericalError("conditional-inversion lower bracket did not close")
    for _ in range(200):
        bad = _cond_cdf(hi, u, rho) < q
        if not np.any(bad):
            break
        hi = np.where(bad, hi * 2.0, hi)
    else:
        raise NumericalError("conditional-inversion upper bracket did not close")
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        below = _cond_cdf(mid, u, rho) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi / lo) - 1.0 < tol:
            break
    return np.sqrt(lo * hi)


def biv_sample(
    p: BivParams | Sequence[float],
    n: int,
    seed: int,
    return_stats: bool = False,
):
    """Draw n pairs from the bivariate extreme distribution.

    X1 comes from inverting its Frechet marginal; X2 given X1 comes from
    numerically inverting the analytic conditional CDF. Deterministic
    for fixed (p, n, seed) via the Philox counter-based generator.

    Pairs whose coordinates overflow or underflow to nonfinite or
    nonpositive floats (possible for very small alpha, where the tails
    are extremely heavy) are redrawn from the same stream rather than
    clamped, and the replacement count is reported through
    ``return_stats``.
    """
    p = BivParams.of(p)
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    gen = np.random.Generator(np.random.Philox(int(seed)))

    def draw(k: int) -> tuple[np.ndarray, np.ndarray]:
        un = np.clip(gen.random(k), 1e-300, 1.0 - 1e-16)
        qn = np.clip(gen.random(k), 1e-300, 1.0 - 1e-16)
        u = -1.0 / np.log(un)
        v = _cond_invert(u, qn, p.rho)
        x1 = p.sigma1 * u ** (1.0 / p.alpha)
        x2 = p.sigma2 * v ** (1.0 / p.alpha)
        return x1, x2

    x1, x2 = draw(n)
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
        r1, r2 = draw(k)
        x1[bad] = r1
        x2[bad] = r2
    out = np.column_stack([x1, x2])
    if return_stats:
        return out, SampleStats(resampled=resampled, rounds=rounds)
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
