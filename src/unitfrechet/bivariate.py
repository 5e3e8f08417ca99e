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

from .core import (
    LOG_GUARD,
    NONNEGATIVE,
    POSITIVE,
    UfParams,
    blockwise,
    check_positive,
    check_rho,
    finish,
    params_of,
    prepare,
    sample_stream,
    uniforms,
)
from .errors import DomainError, NumericalError

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
        check_positive(self, "sigma1", "sigma2", "alpha")
        object.__setattr__(self, "rho", check_rho(self.rho))

    of = classmethod(params_of)

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


def _coords(x1, x2, domain) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both coordinates checked against ``domain`` by ``prepare`` and
    broadcast together, plus a was-scalar flag."""
    (x1, scalar1), (x2, scalar2) = prepare(x1, "x1", domain), prepare(x2, "x2", domain)
    try:
        return (*np.broadcast_arrays(x1, x2), scalar1 and scalar2)
    except ValueError:
        raise DomainError(
            f"x1 of shape {x1.shape} and x2 of shape {x2.shape} do not broadcast"
        ) from None


def biv_cdf(x1, x2, p: BivParams | Sequence[float]):
    """Joint CDF of the bivariate extreme distribution.

    Zero (as the limit) whenever a coordinate is zero; both coordinates
    must be nonnegative.
    """
    p = BivParams.of(p)
    x1, x2, scalar = _coords(x1, x2, NONNEGATIVE)
    return finish(blockwise(lambda a, b: _biv_cdf(a, b, p), x1, x2), scalar)


def _biv_cdf(x1: np.ndarray, x2: np.ndarray, p: BivParams) -> np.ndarray:
    # a zero coordinate's power clips to e^-700, where F reads 0
    with np.errstate(divide="ignore"):
        u, v = _powers(x1, x2, p)
    return np.exp(-1.0 / u - 1.0 / v + p.rho / (u + v))


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
    x1, x2, scalar = _coords(x1, x2, POSITIVE)
    return finish(blockwise(lambda a, b: _biv_pdf(a, b, p), x1, x2), scalar)


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

    A pair with a coordinate that overflows to inf or underflows to 0
    is redrawn from the same stream rather than clamped, without a
    warning, so the sample is conditioned on both coordinates being
    positive finite doubles. That happens for very small alpha, where
    the tails are extremely heavy, and for scales near the ends of the
    double range: ``biv_sample((1e307, 1, 3, 0.5), 10**5, 1)`` redraws
    16 pairs whose first coordinate overflowed. ``return_stats`` also
    returns a ``SampleStats`` that counts the redrawn pairs and the
    redraw rounds.
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
        batch = [uniforms(gen, k), uniforms(gen, k)]
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
    arr, _ = prepare(pairs, "pair entries", POSITIVE)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("pairs must be an (n, 2) array")
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
