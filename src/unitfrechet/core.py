"""Core evaluation of the unit-Frechet (UF) distribution.

The UF law is the distribution on (0, 1) of the proportion
``W = X1 / (X1 + X2)`` when ``(X1, X2)`` follows a bivariate extreme
distribution with Frechet margins. It is parameterized by
``theta = (sigma, alpha, rho)`` where ``sigma > 0`` is the scale ratio
of the two margins, ``alpha > 0`` is the common shape, and
``rho in [0, 1]`` measures association (``rho = 0`` gives independent
margins).

Everything reduces to an auxiliary one-dimensional law on (0, infinity)
through the odds transform ``s = w / (1 - w)``: with
``x = (s / sigma) ** alpha``,

    F_W(w) = kernel_cdf(x, rho)
    f_W(w) = (alpha / sigma**alpha) * s**(alpha-1) * (s+1)**2
             * kernel_pdf(x, rho)

The kernel density and CDF satisfy the exact reflection identities

    kernel_cdf(1/x, rho) = 1 - kernel_cdf(x, rho)
    kernel_pdf(1/x, rho) / x**2 = kernel_pdf(x, rho)

which this module applies in one place, ``_fold`` (with its log-scale
twin ``_fold_log`` beside it): arguments larger than 1 are folded back
to (0, 1], so tail evaluation never overflows and the sigma = 1
symmetry of the density holds to machine precision. The kernel's
polynomials are written once, in ``_kernel_polys``; its density, CDF,
quantile and log-derivatives all evaluate them at the folded point.
The UF functions (``uf_cdf``, ``uf_logpdf``, ``uf_pdf``,
``stress_strength``) and ``kernel_log_derivs``, which serves the
likelihood, take the log argument ``u = alpha (log s - log sigma)``
and fold it to ``y = exp(-|u|)``, never forming ``x = e^u``. They need
no guard, and the CDF, its complement and the log density keep their
relative accuracy for any finite u, into the subnormal range.

Public functions validate their arguments once (NaN raises
``DomainError``). Beneath them is an unvalidated array layer
(``log_odds`` and ``kernel_log_derivs``); ``inference`` builds its
likelihood from the two on data it has validated.

All public functions are pure and accept scalars or numpy arrays;
scalar input yields a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, NumericalError, ParameterError

__all__ = [
    "UfParams",
    "FrechetParams",
    "frechet_pdf",
    "frechet_cdf",
    "kernel_pdf",
    "kernel_cdf",
    "kernel_sf",
    "kernel_quantile",
    "kernel_pdf_dx",
    "kernel_pdf_drho",
    "uf_pdf",
    "uf_logpdf",
    "uf_cdf",
    "uf_quantile",
    "uf_sample",
    "stress_strength",
]

# Log-space guard of the Frechet helpers, of uf_quantile's
# sigma * y**(1/alpha) and of bivariate's margin powers: exp(+-700) stays
# inside the double range; beyond it the enclosing expressions take
# analytic limits.
LOG_GUARD = 700.0

# kernel_quantile's Newton solve: an element stops once its step is at
# most QUANTILE_TOL times the iterate, and NumericalError is raised past
# QUANTILE_MAX_ITER steps. |x g'(x) / g(x)| <= 1 on (0, 1], so a step of
# relative size d leaves an error of about d^2 / 2: below rounding.
QUANTILE_TOL = 1e-8
QUANTILE_MAX_ITER = 32

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class UfParams:
    """Parameter triple (sigma, alpha, rho) of the UF distribution.

    Attributes
    ----------
    sigma : float
        Scale ratio of the two Frechet margins, strictly positive.
    alpha : float
        Common shape parameter, strictly positive.
    rho : float
        Association parameter in the closed interval [0, 1]. The value
        1 is permitted for evaluation but sits in a non-identifiable
        corner of the parameter space.
    """

    sigma: float
    alpha: float
    rho: float

    def __post_init__(self) -> None:
        sigma, alpha, rho = self.sigma, self.alpha, self.rho
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ParameterError(f"sigma must be finite and > 0, got {sigma!r}")
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ParameterError(f"alpha must be finite and > 0, got {alpha!r}")
        if not (math.isfinite(rho) and 0.0 <= rho <= 1.0):
            raise ParameterError(f"rho must lie in [0, 1], got {rho!r}")

    @classmethod
    def of(cls, theta: "UfParams | Sequence[float]") -> "UfParams":
        """Coerce a (sigma, alpha, rho) sequence into UfParams."""
        if isinstance(theta, cls):
            return theta
        vals = tuple(float(v) for v in theta)
        if len(vals) != 3:
            raise ParameterError(
                f"theta must have exactly 3 components, got {len(vals)}"
            )
        return cls(*vals)

    def astuple(self) -> tuple[float, float, float]:
        return (self.sigma, self.alpha, self.rho)


@dataclass(frozen=True)
class FrechetParams:
    """Location, scale and shape of a univariate Frechet distribution."""

    mu: float
    sigma: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ParameterError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ParameterError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if not math.isfinite(self.mu):
            raise ParameterError(f"mu must be finite, got {self.mu!r}")

    @classmethod
    def of(cls, p: "FrechetParams | Sequence[float]") -> "FrechetParams":
        if isinstance(p, cls):
            return p
        vals = tuple(float(v) for v in p)
        if len(vals) != 3:
            raise ParameterError(f"expected (mu, sigma, alpha), got {len(vals)} values")
        return cls(*vals)


# Argument domains for _prepare: an elementwise test and the complaint
# when it fails. NaN fails every test.
_REAL = (lambda a: ~np.isnan(a), "must not be NaN")
_POSITIVE = (lambda a: a > 0.0, "must be strictly positive")
_UNIT_OPEN = (lambda a: (a > 0.0) & (a < 1.0), "must lie strictly inside (0, 1)")


def _prepare(x: ArrayLike, name: str, domain=_REAL) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array plus a was-scalar flag, checked against
    ``domain``; the shared check of every public array argument."""
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr)
    test, rule = domain
    if not np.all(test(flat)):
        raise DomainError(f"{name} {rule}")
    return flat, arr.ndim == 0


def _finish(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (math.isfinite(rho) and 0.0 <= rho <= 1.0):
        raise ParameterError(f"rho must lie in [0, 1], got {rho!r}")
    return rho


# ---------------------------------------------------------------------------
# Univariate Frechet helpers
# ---------------------------------------------------------------------------

def frechet_pdf(x: ArrayLike, p: FrechetParams | Sequence[float]):
    """Density of the Frechet(mu, sigma, alpha) distribution.

    Returns 0 at and below the location ``mu``; elsewhere
    ``(alpha/sigma) * z**(-alpha-1) * exp(-z**(-alpha))`` with
    ``z = (x - mu) / sigma``.
    """
    p = FrechetParams.of(p)
    x, scalar = _prepare(x, "x")
    out = np.zeros_like(x)
    pos = x > p.mu
    if np.any(pos):
        z = (x[pos] - p.mu) / p.sigma
        logz = np.log(z)
        out[pos] = np.exp(
            np.log(p.alpha) - np.log(p.sigma)
            - (p.alpha + 1.0) * logz
            - np.exp(np.clip(-p.alpha * logz, -LOG_GUARD, LOG_GUARD))
        )
    return _finish(out, scalar)


def frechet_cdf(x: ArrayLike, p: FrechetParams | Sequence[float]):
    """CDF of the Frechet(mu, sigma, alpha) distribution."""
    p = FrechetParams.of(p)
    x, scalar = _prepare(x, "x")
    out = np.zeros_like(x)
    pos = x > p.mu
    if np.any(pos):
        logz = np.log((x[pos] - p.mu) / p.sigma)
        out[pos] = np.exp(-np.exp(np.clip(-p.alpha * logz, -LOG_GUARD, LOG_GUARD)))
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# Auxiliary kernel: the law of (S / sigma) ** alpha
# ---------------------------------------------------------------------------

def _kernel_coeffs(rho):
    """``(1 - rho, 2 - rho, 6 + rho (2 - rho))``: the rho-dependent
    coefficients of the kernel polynomials, as ``_kernel_polys`` takes
    them."""
    return 1.0 - rho, 2.0 - rho, 6.0 + rho * (2.0 - rho)


def _kernel_polys(y, c0, c1, c2):
    """``(P, N, B)`` at y in Horner form, from ``_kernel_coeffs(rho)``:
    the one place the kernel's polynomials are written,

        N = P y + (1 - rho)
          = (1 - rho) y^4 + 4 y^3 + (6 + rho (2 - rho)) y^2 + 4 y + (1 - rho)
        B = y^2 + (2 - rho) y + 1

    so that ``g(y) = N / ((y + 1) B)^2`` and
    ``G(y) = y (y^2 + 2 y + 1 - rho) / ((y + 1) B)``. Every coefficient
    is nonnegative for rho in [0, 1]: the textbook two-fraction density
    cancels catastrophically near rho = 1 for small y (g(y; 1) ~ 4y),
    and ``(y + 1)^2 - rho`` in the CDF loses all precision there.
    Intended for y in (0, 1]; callers fold larger arguments first.
    """
    p = ((c0 * y + 4.0) * y + c2) * y + 4.0
    return p, p * y + c0, (y + c1) * y + 1.0


def _kernel_pdf_direct(y: np.ndarray, rho: float) -> np.ndarray:
    """g(y; rho) for y in (0, 1]."""
    _, n, b = _kernel_polys(y, *_kernel_coeffs(rho))
    ab = (y + 1.0) * b
    return n / (ab * ab)


def _kernel_dx_direct(x: np.ndarray, rho: float) -> np.ndarray:
    d = (x + 1.0) ** 2 - rho * x
    num = (
        rho**3 * x**3
        - rho * (x - 2.0) ** 2 * (x + 1.0) ** 4
        + (x + 1.0) ** 6
        + rho**2 * (1.0 + 3.0 * x - 5.0 * x**3 - 3.0 * x**4)
    )
    return -2.0 * num / ((x + 1.0) ** 3 * d**3)


def _kernel_drho_direct(x: np.ndarray, rho: float) -> np.ndarray:
    d = (x + 1.0) ** 2 - rho * x
    num = x**4 + (rho - 2.0) * x**3 - 6.0 * x * x + (rho - 2.0) * x + 1.0
    return -num / d**3


# ---------------------------------------------------------------------------
# Array layer: float arrays in, arrays out, no validation
# ---------------------------------------------------------------------------

def _fold(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect x into (0, 1]: returns ``y = min(x, 1/x)`` and the mask
    ``x > 1``. The only place the x -> 1/x reflection is applied; the
    reciprocal is never formed for x <= 1, so subnormal x cannot
    overflow."""
    big = x > 1.0
    return np.divide(1.0, x, out=x.copy(), where=big), big


def _fold_log(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_fold`` for ``x = exp(u)`` given u: returns ``y = exp(-|u|)`` and
    the mask ``u > 0``, without forming x, so no |u| overflows."""
    return np.exp(-np.abs(u)), u > 0.0


def log_odds(w: np.ndarray) -> np.ndarray:
    """``log(w / (1 - w))`` for w in (0, 1), the scale the likelihood
    lives on."""
    return np.log(w) - np.log1p(-w)


def _kernel_cdf_folded(y, big, rho: float, upper: bool = False) -> np.ndarray:
    """G(x; rho), or 1 - G(x; rho) when ``upper``, from the fold
    ``(y, big)`` of x that ``_fold`` or ``_fold_log`` returns.

    Uses ``1 - G(x) = G(1/x)``: whichever tail the folded point lands in
    is evaluated directly, the other as its complement.
    """
    b = _kernel_polys(y, *_kernel_coeffs(rho))[2]
    c = y * ((y + 2.0) * y + (1.0 - rho)) / ((y + 1.0) * b)
    return np.where(big == upper, c, 1.0 - c)


def _kernel_logpdf(u, y, big, c0, c1, c2):
    """log g(x; rho) at ``x = exp(u)`` from the fold
    ``(y, big) = _fold_log(u)`` and ``_kernel_coeffs(rho)``, with the
    polynomials ``(P, N, B)`` at y and the mask ``deep`` where rho = 1
    and y is subnormal or 0: the evaluation ``uf_logpdf`` and
    ``kernel_log_derivs`` share. At rho = 1, N = y P ~ 4y has lost bits
    at a subnormal y (and all of them at 0), so there log N is formed as
    log P - |u|; the caller silences the divide warning of log 0.
    """
    p, n, b = _kernel_polys(y, c0, c1, c2)
    deep = (c0 == 0.0) & (y < np.finfo(float).tiny)
    logn = np.log(n)
    if deep.any():
        logn = np.where(deep, np.log(p) - np.abs(u), logn)
    logg = logn - 2.0 * np.log1p(y) - 2.0 * np.log(b)
    return np.where(big, logg - 2.0 * u, logg), p, n, b, deep


def kernel_log_derivs(u: np.ndarray, rho) -> tuple[np.ndarray, ...]:
    """log g(x; rho) at ``x = exp(u)`` with its first and second
    derivatives in (u, rho): ``(log g, r, h, dr/du, dr/drho, dh/drho)``
    with ``r = d log g / du = x g'(x)/g(x)`` and
    ``h = d log g / drho``.

    ``rho`` is a float or a column broadcasting against u. Everything
    is formed at the folded point y = exp(-|u|) from
    ``g = N / ((y+1)^2 B^2)`` and the polynomials of ``_kernel_polys``;
    log g is ``uf_logpdf``'s, from ``_kernel_logpdf``, and x itself is
    never formed, so it stays exact for any finite u. For u > 0 the
    reflection gives ``log g = log g(y) - 2u``, ``r = -r(y) - 2``
    and ``dr/drho = -dr/drho(y)``; dr/du, h and dh/drho are the same at
    x and y. The one exception is rho = 1, where N = y P(y) ~ 4y and
    y N' = y Q(y): log g and r stay exact, taking log N = log P - |u|
    and y N'/N = Q/P where y is subnormal or 0, but h ~ -1/(4y) and
    dh/drho overflow to -inf as y shrinks, and once y underflows to 0
    (|u| > 745) the second derivatives read -inf or NaN. Those values
    are returned as they come, without a warning.
    """
    y, big = _fold_log(u)
    c0, c1, c2 = _kernel_coeffs(rho)
    w = y * y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logg, p, n, b, deep = _kernel_logpdf(u, y, big, c0, c1, c2)
        q = ((4.0 * c0 * y + 12.0) * y + 2.0 * c2) * y + 4.0
        pn = q * y / n
        if deep.any():
            pn = np.where(deep, q / p, pn)
        # y N'/N (pn), y B'/B and y/(y+1): r at y is their combination,
        # and y d/dy of each ratio t = y f'/f is t + y^2 f''/f - t^2
        pb = (2.0 * y + c1) * y / b
        p1 = y / (1.0 + y)
        r = pn - 2.0 * p1 - 2.0 * pb
        dr_du = (
            pn + ((12.0 * c0 * y + 24.0) * y + 2.0 * c2) * w / n - pn * pn
            - 2.0 * p1 * (1.0 - p1)
            - 2.0 * (pb + 2.0 * w / b - pb * pb)
        )
        # rho derivatives: N_rho = -((1 - y^2)^2 + 2 rho y^2), B_rho = -y
        e = -((1.0 - w) ** 2 + 2.0 * rho * w) / n
        yb = y / b
        dr_drho = 4.0 * w * (c0 - w) / n - pn * e + 2.0 * yb * (1.0 - pb)
        dh_drho = -2.0 * w / n - e * e + 2.0 * yb * yb
    return (
        logg,
        np.where(big, -r - 2.0, r),
        e + 2.0 * yb,
        dr_du,
        np.where(big, -dr_drho, dr_drho),
        dh_drho,
    )


def kernel_pdf(x: ArrayLike, rho: float):
    """Density g(x; rho) of the auxiliary kernel law on (0, infinity).

    This is the law of ``(S / sigma) ** alpha`` where ``S`` is the odds
    of a UF variate. Closed form:

        g(x; rho) = [2(x+1)^2 - rho (x^2+1)] / [(x+1)^2 - rho x]^2
                    - 1 / (x+1)^2

    Arguments above 1 are evaluated through the exact reflection
    ``g(x) = g(1/x) / x**2`` so the value never overflows.

    Parameters
    ----------
    x : float or array_like
        Evaluation points, strictly positive.
    rho : float
        Association parameter in [0, 1].
    """
    rho = _check_rho(rho)
    x, scalar = _prepare(x, "x", _POSITIVE)
    y, big = _fold(x)
    g = _kernel_pdf_direct(y, rho)
    return _finish(np.where(big, g * y * y, g), scalar)


def kernel_cdf(x: ArrayLike, rho: float):
    """CDF G(x; rho) of the auxiliary kernel law.

    Closed form ``G(x; rho) = [x/(x+1)] [(x+1)^2 - rho] / [(x+1)^2 - rho x]``,
    evaluated through the reflection ``G(x) = 1 - G(1/x)`` for x > 1.
    ``kernel_cdf(1.0, rho)`` is exactly 0.5 for every rho.
    """
    rho = _check_rho(rho)
    x, scalar = _prepare(x, "x", _POSITIVE)
    return _finish(_kernel_cdf_folded(*_fold(x), rho), scalar)


def kernel_sf(x: ArrayLike, rho: float):
    """Survival function 1 - G(x; rho), computed without cancellation.

    Uses the reflection identity directly: the survival probability at x
    equals the CDF at 1/x, so right-tail values stay accurate down to
    the underflow threshold.
    """
    rho = _check_rho(rho)
    x, scalar = _prepare(x, "x", _POSITIVE)
    return _finish(_kernel_cdf_folded(*_fold(x), rho, upper=True), scalar)


def kernel_pdf_dx(x: ArrayLike, rho: float):
    """Derivative in x of the kernel density g(x; rho).

    The closed form for moderate x is

        g'(x) = -2 [rho^3 x^3 - rho (x-2)^2 (x+1)^4 + (x+1)^6
                    + rho^2 (1 + 3x - 5x^3 - 3x^4)]
                / [(x+1)^3 ((x+1)^2 - rho x)^3]

    and for x > 1 the reflected form
    ``g'(x) = -g'(1/x)/x^4 - 2 g(x)/x`` is used, which follows from
    differentiating the density reflection identity.
    """
    rho = _check_rho(rho)
    x, scalar = _prepare(x, "x", _POSITIVE)
    y, big = _fold(x)
    d = _kernel_dx_direct(y, rho)
    g = _kernel_pdf_direct(y, rho) * y * y
    return _finish(np.where(big, -d * y**4 - 2.0 * g * y, d), scalar)


def kernel_pdf_drho(x: ArrayLike, rho: float):
    """Derivative in rho of the kernel density g(x; rho).

    Closed form ``-[x^4 + (rho-2)x^3 - 6x^2 + (rho-2)x + 1] / D^3`` with
    ``D = (x+1)^2 - rho x``; the numerator polynomial is palindromic, so
    the reflection ``d/drho g(x) = x**(-2) d/drho g(1/x)`` holds and is
    used for x > 1.
    """
    rho = _check_rho(rho)
    x, scalar = _prepare(x, "x", _POSITIVE)
    y, big = _fold(x)
    h = _kernel_drho_direct(y, rho)
    return _finish(np.where(big, h * y * y, h), scalar)


def _by_branch(mask: np.ndarray, yes, no, *args: np.ndarray) -> np.ndarray:
    """``yes(*args)`` where ``mask`` holds and ``no(*args)`` elsewhere,
    both elementwise formulas. When one of them covers every element it
    runs on the whole arrays, without the gather and scatter, so each
    element gets the same value whichever path runs."""
    if mask.all():
        return yes(*args)
    if not mask.any():
        return no(*args)
    out = np.empty_like(args[0])
    out[mask] = yes(*(a[mask] for a in args))
    rest = ~mask
    out[rest] = no(*(a[rest] for a in args))
    return out


def _cardano_root(h, k, disc, shift):
    """The real root where disc >= 0 (k is unused; see ``_by_branch``)."""
    sq = np.sqrt(disc)
    return np.cbrt(sq - h) - np.cbrt(h + sq) - shift


def _trig_root(h, k, disc, shift):
    """The largest of three real roots, where disc < 0: the positive one."""
    r = np.sqrt(-k)
    arg = np.clip(h / (k * r), -1.0, 1.0)
    return 2.0 * r * np.cos(np.arccos(arg) / 3.0) - shift


def _positive_cubic_root(p: np.ndarray, rho: float) -> np.ndarray:
    """Unique positive root of the quantile cubic, for p in (0, 1/2].

    The kernel quantile solves
    ``(p-1) x^3 + [(3-rho)p - 2] x^2 + [(3-rho)p + rho - 1] x + p = 0``,
    which has exactly one root in (0, infinity) because G is strictly
    increasing. With ``x = t - shift`` the cubic becomes
    ``t^3 + 3k t + 2h``; its discriminant ``h^2 + k^3`` picks Cardano's
    formula where it is nonnegative and the trigonometric method (the
    largest of three real roots) where it is negative. For rho > 0 that
    is every p; at rho = 0 about half of them. Relative accuracy is
    about 1e-10 for p >= 1e-12, where ``kernel_quantile`` uses it as
    the start of its Newton solve.
    """
    a = p - 1.0
    t = (3.0 - rho) * p
    shift = (t - 2.0) / (3.0 * a)
    cc = (t + (rho - 1.0)) / a
    s = shift * shift
    k = cc / 3.0 - s
    h = shift * (s - 0.5 * cc) + 0.5 * p / a
    # cubes as products: k < 0 whenever rho > 0, and numpy's ** sends a
    # negative base down libm pow's slow path (~70x the cost)
    disc = h * h + k * k * k
    return _by_branch(disc >= 0.0, _cardano_root, _trig_root, h, k, disc, shift)


def kernel_quantile(p: ArrayLike, rho: float):
    """Quantile function of the kernel law, inverse of kernel_cdf.

    Probabilities above one half are reflected to the lower tail via
    ``Q(p) = 1 / Q(1 - p)``, so the lower-tail quantile x lies in
    [q, 1] for ``q = min(p, 1 - p)``. Its start is the closed-form root
    of the quantile cubic for q >= 1e-12 and, below that, where the
    cubic is ill conditioned, the positive root of the two-term
    expansion ``G(x) ~ (1 - rho) x + 2 x^2 = q``, which also holds at
    rho = 1. Newton's method on ``G(x) - q`` then runs on each element
    until its step is at most QUANTILE_TOL times the iterate, never
    stepping below a tenth of it; the error left after a step that
    small is below rounding. Only unconverged elements are iterated, so
    no element depends on its neighbours or on the order of the array.
    One step suffices for nearly every p, two near p = 1e-12 when rho
    is close to 1. ``NumericalError`` is raised past QUANTILE_MAX_ITER
    steps.
    """
    rho = _check_rho(rho)
    p, scalar = _prepare(p, "p", _UNIT_OPEN)
    return _finish(_kernel_quantile(p, rho), scalar)


def _kernel_quantile(p: np.ndarray, rho: float) -> np.ndarray:
    q = np.minimum(p, 1.0 - p)
    c0 = 1.0 - rho
    x = _by_branch(
        q < 1e-12,
        # (1 - rho) x + 2 x^2 = q, solved without cancellation
        lambda t: 2.0 * t / (c0 + np.sqrt(c0 * c0 + 8.0 * t)),
        lambda t: np.clip(_positive_cubic_root(t, rho), t, 1.0),
        q,
    )
    x = _kernel_newton(x, q, rho)
    np.divide(1.0, x, out=x, where=p > 0.5)
    return x


def _kernel_newton(x: np.ndarray, q: np.ndarray, rho: float) -> np.ndarray:
    """_kernel_quantile's Newton solve of G(x) = q from the start x,
    which it overwrites and returns. G and g come from one evaluation:
    ``G = x C / (A B)`` and ``g = N / (A B)^2`` with A = x + 1,
    C = x^2 + 2x + (1 - rho), and N and B from ``_kernel_polys``."""
    coeffs = _kernel_coeffs(rho)
    c0 = coeffs[0]
    out, idx = x, None
    for _ in range(QUANTILE_MAX_ITER):
        _, n, b = _kernel_polys(x, *coeffs)
        ab = (x + 1.0) * b
        # (G - q) / g
        step = (x * ((x + 2.0) * x + c0) - q * ab) * ab / n
        done = np.abs(step) <= QUANTILE_TOL * x
        # never below a tenth of the iterate, which keeps it positive
        np.maximum(x - step, 0.1 * x, out=x)
        if idx is not None:
            out[idx] = x
        if done.all():
            return out
        keep = np.flatnonzero(~done)
        idx = keep if idx is None else idx[keep]
        x, q = x[keep], q[keep]
    raise NumericalError(
        f"kernel quantile did not converge in {QUANTILE_MAX_ITER} iterations"
    )


# ---------------------------------------------------------------------------
# UF distribution
# ---------------------------------------------------------------------------

def uf_cdf(w: ArrayLike, theta: UfParams | Sequence[float]):
    """CDF of the UF distribution.

    Clamp semantics at the edges: 0 for w <= 0 and 1 for w >= 1.
    Inside the unit interval the value is ``G(e^u; rho)`` at the log
    argument ``u = alpha (log s - log sigma)``, s the odds of w,
    evaluated at the folded point ``exp(-|u|)`` without forming e^u, so
    both tails keep their relative accuracy down to the subnormal
    range. For rho = 0 this reduces to the closed form
    ``w**alpha / (w**alpha + sigma**alpha (1-w)**alpha)``.
    """
    th = UfParams.of(theta)
    w, scalar = _prepare(w, "w")
    out = np.where(w >= 1.0, 1.0, 0.0)
    inside = (w > 0.0) & (w < 1.0)
    if np.any(inside):
        u = th.alpha * (log_odds(w[inside]) - math.log(th.sigma))
        out[inside] = _kernel_cdf_folded(*_fold_log(u), th.rho)
    return _finish(out, scalar)


def _uf_logpdf(w: np.ndarray, th: UfParams) -> np.ndarray:
    logs = log_odds(w)
    u = th.alpha * (logs - math.log(th.sigma))
    with np.errstate(divide="ignore"):
        logg = _kernel_logpdf(u, *_fold_log(u), *_kernel_coeffs(th.rho))[0]
    logg += (
        math.log(th.alpha)
        - th.alpha * math.log(th.sigma)
        + (th.alpha - 1.0) * logs
        + 2.0 * np.log1p(np.exp(logs))
    )
    return logg


def uf_logpdf(w: ArrayLike, theta: UfParams | Sequence[float]):
    """Natural log of the UF density, finite for every w in (0, 1).

    The log of the Jacobian prefactor
    ``(alpha / sigma**alpha) s**(alpha-1) (s+1)**2`` plus log g at the
    log argument ``u = alpha (log s - log sigma)``, formed in log space
    at the folded point ``exp(-|u|)`` by the code that gives
    ``kernel_log_derivs`` its value, so it is exact for any finite u.
    """
    th = UfParams.of(theta)
    w, scalar = _prepare(w, "w", _UNIT_OPEN)
    return _finish(_uf_logpdf(w, th), scalar)


def uf_pdf(w: ArrayLike, theta: UfParams | Sequence[float]):
    """Density of the UF distribution at w in (0, 1).

    ``exp(uf_logpdf(w, theta))``: the Jacobian prefactor and the kernel
    density are combined in log space, so the value is 0 only where the
    true density underflows. Tests verify agreement with the fully
    expanded closed form.
    """
    th = UfParams.of(theta)
    w, scalar = _prepare(w, "w", _UNIT_OPEN)
    return _finish(np.exp(_uf_logpdf(w, th)), scalar)


def uf_quantile(p: ArrayLike, theta: UfParams | Sequence[float]):
    """Quantile function of the UF distribution.

    Maps the kernel quantile y back through the stochastic
    representation ``W = sigma y**(1/alpha) / (1 + sigma y**(1/alpha))``.
    The roundtrip ``uf_cdf(uf_quantile(p)) = p`` holds to 1e-10 across
    p in [1e-6, 1 - 1e-6]. Results stay strictly inside (0, 1): when
    the exact quantile rounds past the last double below 1 (possible
    for p near 1 with small alpha) the nearest interior value is
    returned instead.
    """
    th = UfParams.of(theta)
    p, scalar = _prepare(p, "p", _UNIT_OPEN)
    return _finish(_uf_quantile(p, th), scalar)


def _uf_quantile(p: np.ndarray, th: UfParams) -> np.ndarray:
    y = _kernel_quantile(p, th.rho)
    # t = sigma * y**(1/alpha) in log space, then w = t / (1 + t)
    logt = math.log(th.sigma) + np.log(y) / th.alpha
    logt = np.clip(logt, -LOG_GUARD, LOG_GUARD)
    w = 1.0 / (1.0 + np.exp(-logt))
    return np.minimum(w, np.nextafter(1.0, 0.0))


def uf_sample(theta: UfParams | Sequence[float], n: int, seed: int) -> np.ndarray:
    """Draw n independent UF variates by quantile inversion.

    The generator is numpy's Philox counter-based bit generator, so the
    output is a pure function of (theta, n, seed) and parallel callers
    with distinct seeds never share state. Uniform draws are clipped to
    [1e-300, 1 - 1e-16] before inversion; an exact 0 would otherwise
    map to the boundary of the support. Each draw is inverted as
    ``uf_quantile`` does it: a closed-form start and ``kernel_quantile``'s
    Newton steps, each element until its own step is at most
    QUANTILE_TOL relative (one step for nearly every draw), so a draw
    depends only on its own uniform. ``NumericalError`` is raised past
    QUANTILE_MAX_ITER steps.
    """
    th = UfParams.of(theta)
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    gen = np.random.Generator(np.random.Philox(int(seed)))
    u = np.clip(gen.random(n), 1e-300, 1.0 - 1e-16)
    return _uf_quantile(u, th)


def stress_strength(theta: UfParams | Sequence[float]) -> float:
    """Probability that the first component exceeds the second.

    For ``W = X1 / (X1 + X2)`` this is ``P(X1 > X2) = P(W > 1/2)``,
    which is ``1 - G(sigma**(-alpha); rho) = G(sigma**alpha; rho)``: the
    kernel CDF at the log argument ``u = alpha log sigma``, evaluated at
    the folded point like ``uf_cdf``, so it keeps its relative accuracy
    in both tails. It reduces to ``sigma**alpha / (sigma**alpha + 1)``
    at rho = 0 and to 1/2 at sigma = 1, and equals
    ``1 - uf_cdf(0.5, theta)`` to machine precision; the identity is
    enforced in tests.
    """
    th = UfParams.of(theta)
    u = np.float64(th.alpha * math.log(th.sigma))
    return float(_kernel_cdf_folded(*_fold_log(u), th.rho))
