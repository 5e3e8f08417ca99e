"""Bivariate extreme distribution with Frechet margins.

Joint CDF

    F(x1, x2) = exp{ -(x1/sigma1)^(-alpha) - (x2/sigma2)^(-alpha)
                     + rho [ (x1/sigma1)^alpha + (x2/sigma2)^alpha ]^(-1) }

together with its density (the mixed second partial, derived
symbolically and checked against finite differences in the tests), a
sampler, the ratio transform that connects this law to the
unit-Frechet distribution, and a Monte Carlo covariance estimator for
the margins.

The sampler draws X1 from its Frechet margin and X2 given X1 in closed
form: with u = (x1/sigma1)^alpha the conditional CDF of
v = (x2/sigma2)^alpha is exp(-1/v + rho/(u+v)) (1 - rho (u/(u+v))^2),
a product of two CDFs in v, so v is the larger of two independent
draws, each the root of a quadratic. Nothing is solved iteratively.

The sampler and the UF CDF are fully independent code paths; their
agreement through ``ratio_transform`` is one of the package's main
cross-checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import LOG_GUARD, UfParams, blockwise, sample_stream
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
    """Bookkeeping from biv_sample: how many pairs were redrawn, and in
    how many rounds."""

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
    out = blockwise(lambda a, b: _biv_cdf(a, b, p), x1, x2)
    return float(out[0]) if scalar else out


def _biv_cdf(x1: np.ndarray, x2: np.ndarray, p: BivParams) -> np.ndarray:
    out = np.zeros(x1.shape, dtype=float)
    pos = (x1 > 0.0) & (x2 > 0.0)
    if np.any(pos):
        u, v = _powers(x1[pos], x2[pos], p)
        out[pos] = np.exp(-1.0 / u - 1.0 / v + p.rho / (u + v))
    return out


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
    out = blockwise(lambda a, b: _biv_pdf(a, b, p), x1, x2)
    return float(out[0]) if scalar else out


def _biv_pdf(x1: np.ndarray, x2: np.ndarray, p: BivParams) -> np.ndarray:
    u, v = _powers(x1, x2, p)
    t = u + v
    logF = -1.0 / u - 1.0 / v + p.rho / t
    # at the clipped powers the squares and cubes may overflow and their
    # reciprocals read 0, and a density beyond the double range reads
    # inf. A power below 1e-154 can make the bracket inf * 0 = NaN, but
    # F has underflowed to 0 there, and the density is 0. These values
    # come without a warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bracket = (1.0 / u**2 - p.rho / t**2) * (1.0 / v**2 - p.rho / t**2) + 2.0 * p.rho / t**3
        # assemble in log space: alpha^2 u v / (x1 x2) can overflow on its own
        log_jac = (
            2.0 * math.log(p.alpha)
            + np.log(u) + np.log(v)
            - np.log(x1) - np.log(x2)
        )
        return np.where(
            bracket > 0.0,
            np.exp(logF + log_jac + np.log(np.where(bracket > 0.0, bracket, 1.0))),
            0.0,
        )


def _cond_draw(u: np.ndarray, e: np.ndarray, q2: np.ndarray, rho: float) -> np.ndarray:
    """V = (X2/sigma2)^alpha given U = (X1/sigma1)^alpha = u, elementwise,
    from e = -log q and a second uniform q2.

    The conditional CDF dF/dx1 over the marginal density of X1 reads,
    in the (u, v) scale,

        C(v | u) = exp(-1/v + rho/(u+v)) * (1 - rho (u/(u+v))^2)
                 = F_R(v) * F_D(v),

    a product of two CDFs in v: the exponent of F_R has derivative
    1/v^2 - rho/(u+v)^2 > 0, and F_D rises from 1 - rho at v = 0 to 1.
    So V = max(R, D) for independent R ~ F_R and D ~ F_D, and each has
    a closed-form inverse.

    F_R(r) = q is the quadratic e r^2 + (e u - c) r - u = 0 with
    c = 1 - rho. With h = (e u - c)/2 and t = |h| + sqrt(h^2 + e u),
    which is positive and formed without cancellation, its positive
    root is u/t where h >= 0 and t/e where h < 0. F_D(d) = q2 gives
    d = u (sqrt(rho/(1 - q2)) - 1), which is <= 0 (the atom of D at 0)
    exactly when q2 < 1 - rho; at rho = 0 that is always, and V = 1/e
    (biv_sample takes that value directly, without drawing q2). ``u``
    is kept; ``e`` and ``q2`` are overwritten, and the result is a new
    array.
    """
    eu = e * u
    h = np.subtract(eu, 1.0 - rho)
    h *= 0.5
    pos = h >= 0.0
    t = np.multiply(h, h)
    t += eu
    np.sqrt(t, out=t)
    t += np.abs(h, out=h)
    r = np.divide(t, e, out=eu)
    np.divide(u, t, out=r, where=pos)
    d = np.subtract(1.0, q2, out=q2)
    np.divide(rho, d, out=d)
    np.sqrt(d, out=d)
    d -= 1.0
    d *= u
    return np.maximum(r, d, out=r)


def _uniforms(gen: np.random.Generator, k: int) -> np.ndarray:
    """k uniforms clipped to [1e-300, 1 - 1e-16], so that -log of each
    is finite and positive."""
    q = gen.random(k)
    return np.clip(q, 1e-300, 1.0 - 1e-16, out=q)


def biv_sample(
    p: BivParams | Sequence[float],
    n: int,
    seed: int,
    return_stats: bool = False,
):
    """Draw n pairs from the bivariate extreme distribution.

    U = (X1/sigma1)^alpha = -1/log(un) is unit Frechet. Given U, the
    conditional CDF of V = (X2/sigma2)^alpha factors into two CDFs, so
    V is the larger of two independent closed-form draws
    (``_cond_draw``): one from a second uniform q through a quadratic,
    and, when rho > 0, one from a third uniform q2 (at rho = 0,
    V = -1/log(q)). Each batch of k pairs takes k values of un, then k
    of q, then k of q2 from the stream, and then transforms them block
    by block (``blockwise``); each pair depends only on its own
    uniforms, so the output does not depend on the block size. Nothing
    here uses the UF code, so the ratio law it implies is an
    independent check of ``uf_cdf``. Deterministic for fixed
    (p, n, seed) via the Philox counter-based generator.

    Pairs whose coordinates overflow or underflow to nonfinite or
    nonpositive floats (possible for very small alpha, where the tails
    are extremely heavy) are redrawn from the same stream rather than
    clamped. ``return_stats`` also returns a ``SampleStats`` with the
    redraw counts.
    """
    p = BivParams.of(p)
    n, gen = sample_stream(n, seed)
    power = 1.0 / p.alpha

    def transform(u: np.ndarray, e: np.ndarray, q2: np.ndarray | None = None) -> np.ndarray:
        # overwrites the batch's own uniforms, block by block
        np.log(u, out=u)
        np.divide(-1.0, u, out=u)
        np.log(e, out=e)
        np.negative(e, out=e)
        if q2 is not None:
            v = _cond_draw(u, e, q2, p.rho)
        else:
            v = np.divide(1.0, e, out=e)
        pairs = np.empty((len(u), 2))
        # heavy tails at small alpha leave the double range here; the
        # redraw loop catches the inf or 0 that results
        with np.errstate(over="ignore", under="ignore"):
            for w, sigma, col in ((u, p.sigma1, pairs[:, 0]), (v, p.sigma2, pairs[:, 1])):
                np.power(w, power, out=w)
                np.multiply(w, sigma, out=col)
        return pairs

    def draw(k: int) -> np.ndarray:
        # the whole batch's uniforms first, in stream order, then the
        # transform block by block
        batch = [_uniforms(gen, k), _uniforms(gen, k)]
        if p.rho > 0.0:
            batch.append(gen.random(k))
        return blockwise(transform, *batch)

    out = draw(n)
    resampled = 0
    rounds = 0
    # NaN fails both comparisons, like an inf or a 0
    while not (out.min() > 0.0 and out.max() < np.inf):
        ok = (out > 0.0) & (out < np.inf)
        bad = ~(ok[:, 0] & ok[:, 1])
        k = int(np.count_nonzero(bad))
        rounds += 1
        resampled += k
        if rounds > 100:
            raise NumericalError("bivariate sampler failed to produce finite pairs")
        out[bad] = draw(k)
    if return_stats:
        return out, SampleStats(resampled=resampled, rounds=rounds)
    return out


def ratio_transform(pairs) -> np.ndarray:
    """Map pairs (x1, x2) to proportions x1 / (x1 + x2).

    Computed as 1 / (1 + x2/x1), which stays accurate when both
    coordinates are huge. All entries must be strictly positive. A
    proportion too close to 0 or 1 for a double comes back as 0.0 or
    1.0, without a warning (x2/x1 overflows, or underflows); a caller
    that needs the open interval checks for them.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("pairs must be an (n, 2) array")
    if np.any(~(arr > 0.0)):
        raise DomainError("pair entries must be strictly positive")
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + arr[:, 1] / arr[:, 0])


def estimate_cov(p: BivParams | Sequence[float], n: int, seed: int) -> CovEstimate:
    """Monte Carlo estimate of Cov(X1, X2) with a standard error.

    alpha > 2 is required so second moments exist, and n of at least
    10^4 keeps the estimate usable. The covariance also has a closed
    form, a one-dimensional integral from Hoeffding's covariance
    identity and the -alpha homogeneity of the exponent function:

        Cov = Gamma(1 - 2/alpha)/2 * int_0^1 [B(t)^(2/alpha) - A(t)^(2/alpha)] dt

    with B(t) = (t/sigma1)^-alpha + ((1-t)/sigma2)^-alpha and
    A(t) = B(t) - rho / ((t/sigma1)^alpha + ((1-t)/sigma2)^alpha); this
    estimator is the Monte Carlo check of it. The standard error is the
    usual large-sample plug-in sqrt((m22 - cov^2)/n) with m22 the
    sample mean of the products of squared deviations; for alpha close
    to 2 the fourth-moment tails make it noisy, so treat it as
    indicative there.

    Both are formed on the draws divided by (sigma1, sigma2) and scaled
    back by sigma1 sigma2, so the fourth moments do not overflow at
    large scales. DomainError is raised where the result leaves the
    double range: a value or standard error that overflows, or a
    sigma1 sigma2 below the smallest normal double.
    """
    p = BivParams.of(p)
    if p.alpha <= 2.0:
        raise DomainError("estimate_cov requires alpha > 2 (finite second moments)")
    n, _ = sample_stream(n, seed)
    if n < 10_000:
        raise DomainError(f"estimate_cov requires n >= 10000, got {n}")
    xy = biv_sample(p, n, seed)
    xy /= [p.sigma1, p.sigma2]
    d1 = xy[:, 0] - xy[:, 0].mean()
    d2 = xy[:, 1] - xy[:, 1].mean()
    cov = float(np.dot(d1, d2) / (n - 1))
    m22 = float(np.mean((d1 * d2) ** 2))
    se = math.sqrt(max(m22 - cov * cov, 0.0) / n)
    scale = p.sigma1 * p.sigma2
    cov, se = cov * scale, se * scale
    if not (math.isfinite(cov) and math.isfinite(se)) or scale < sys.float_info.min:
        raise DomainError(
            "the covariance estimate leaves the double range at "
            f"sigma1={p.sigma1!r}, sigma2={p.sigma2!r}"
        )
    return CovEstimate(value=cov, se=se, n=n)
