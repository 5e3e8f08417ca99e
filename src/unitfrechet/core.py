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
twin ``_fold_log``): arguments above 1 are folded back to (0, 1], so
nothing overflows and the sigma = 1 symmetry holds to machine
precision. At the folded point y, ``g = N / ((y + 1) B)^2`` with N and
B written once in ``_kernel_polys`` and N', B' and N_rho beside them;
the CDF evaluates the same B, and ``kernel_pdf_dx``, ``kernel_pdf_drho``
and ``kernel_log_derivs`` are their quotient rule. The quantile solves
G = q by Newton's method in ``t = x / (1 + x)``, where the equation
becomes a quadratic plus a ``q / t`` term. The UF functions
(``uf_cdf``, ``uf_logpdf``, ``uf_pdf``, ``stress_strength``)
and ``kernel_log_derivs`` take the log argument
``u = alpha (log s - log sigma)`` and fold it to ``y = exp(-|u|)``
without forming ``x = e^u``, so the CDF, its complement and the log
density keep their relative accuracy for any finite u, into the
subnormal range.

Public functions validate their arguments once (NaN raises
``DomainError``), through the argument rules written once here and
shared with the sibling modules: ``as_float``, ``check_positive``,
``check_rho``, ``params_of`` (every parameter record's ``of``),
``prepare`` and ``evaluate`` for array arguments, ``check_integer`` for
counts and seeds, and, for both samplers, ``sample_stream`` for n and
the seed and ``uniforms`` for the clipped draws. Beneath them is an
unvalidated array layer: ``inference`` builds its likelihood from
``log_odds`` and ``kernel_log_derivs`` on data it has validated. The
elementwise public functions (through ``evaluate``) and both samplers'
transforms run through ``blockwise`` in blocks of BLOCK_ELEMENTS
elements, so their temporaries stay in cache; every kernel treats each
element on its own, so no output depends on the block size.

All public functions are pure and accept scalars or numpy arrays;
scalar input yields a Python float.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, NumericalError, ParameterError

__all__ = [
    "UfParams",
    "kernel_pdf",
    "kernel_cdf",
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

# Log-space guard of uf_quantile's log t = log(sigma y**(1/alpha)) and
# of bivariate's margin powers, its two remaining users (both open items
# in ROADMAP): exp(+-700) stays inside the double range; beyond it the
# enclosing expressions take analytic limits.
LOG_GUARD = 700.0

# kernel_quantile's Newton solve in t = x / (1 + x): an element stops
# once its step is at most QUANTILE_TOL times t, and NumericalError is
# raised past QUANTILE_MAX_ITER evaluations. |t h''(t) / h'(t)| <= 2 on
# (0, 1/2], so a step of relative size d leaves an error of at most about
# d^2: below rounding.
QUANTILE_TOL = 1e-8
QUANTILE_MAX_ITER = 32

ArrayLike = Union[float, Sequence[float], np.ndarray]


# ---------------------------------------------------------------------------
# Argument rules: each written once here, for core and its siblings
# ---------------------------------------------------------------------------

def as_float(name: str, value) -> float:
    """The one conversion of a parameter value: ``value`` as a float, or
    ParameterError naming the field ``name`` where ``float`` fails."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        msg = f"{name} must be a number within the double range, got {value!r}"
        raise ParameterError(msg) from None


def check_positive(record, *names: str) -> None:
    """Hold each named field of ``record`` as a float (``as_float``);
    ParameterError unless it is finite and > 0."""
    for name in names:
        v = as_float(name, getattr(record, name))
        if not (math.isfinite(v) and v > 0.0):
            raise ParameterError(f"{name} must be finite and > 0, got {v!r}")
        object.__setattr__(record, name, v)


def check_rho(rho: float) -> float:
    """rho as a float (``as_float``); ParameterError unless in [0, 1]."""
    rho = as_float("rho", rho)
    if not 0.0 <= rho <= 1.0:
        raise ParameterError(f"rho must lie in [0, 1], got {rho!r}")
    return rho


def is_number(value) -> bool:
    """Whether value is a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(name: str, value, low: int) -> int:
    """The one rule for counts and seeds: ``value`` as an int when it is a
    number (``is_number``) of integral value, an integral float such as
    30.0 included, and at least ``low``; DomainError naming the field
    ``name`` for anything else, NaN and infinities included."""
    integral = is_number(value) and (
        isinstance(value, numbers.Integral) or float(value).is_integer())
    if not (integral and int(value) >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def params_of(cls, value):
    """``value`` as the parameter record ``cls``: itself if it is one,
    else ``cls`` of its entries (a scalar is one entry), which must
    number one per field. Every parameter record's ``of``."""
    if isinstance(value, cls):
        return value
    vals = tuple(value) if np.iterable(value) else (value,)
    names = [f.name for f in fields(cls)]
    if len(vals) != len(names):
        raise ParameterError(f"expected ({', '.join(names)}), got {len(vals)} values")
    return cls(*vals)


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
        check_positive(self, "sigma", "alpha")
        object.__setattr__(self, "rho", check_rho(self.rho))

    of = classmethod(params_of)

    def astuple(self) -> tuple[float, float, float]:
        return (self.sigma, self.alpha, self.rho)


# Argument domains for prepare: an elementwise test and the complaint
# when it fails. NaN fails every test.
class Domain(NamedTuple):
    test: Callable[[np.ndarray], np.ndarray]
    rule: str


REAL = Domain(lambda a: ~np.isnan(a), "must not be NaN")
POSITIVE = Domain(lambda a: a > 0.0, "must be strictly positive")
NONNEGATIVE = Domain(lambda a: a >= 0.0, "must be nonnegative")
UNIT_OPEN = Domain(lambda a: (a > 0.0) & (a < 1.0), "must lie strictly inside (0, 1)")


def prepare(x: ArrayLike, name: str, domain: Domain = REAL) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array plus a was-scalar flag, checked against
    ``domain``; the shared check of every public array argument."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a double or a regular array of doubles") from None
    flat = np.atleast_1d(arr)
    if not np.all(domain.test(flat)):
        raise DomainError(f"{name} {domain.rule}")
    return flat, arr.ndim == 0


def evaluate(kernel, domain: Domain, **args: ArrayLike):
    """``blockwise(kernel, ...)`` over the named array arguments, each
    checked by ``prepare`` and, when there are two or more, broadcast
    together; a float when every argument was a scalar."""
    arrays, scalar = [], True
    for name, x in args.items():
        arr, was_scalar = prepare(x, name, domain)
        arrays.append(arr)
        scalar = scalar and was_scalar
    if len(arrays) > 1:
        try:
            arrays = np.broadcast_arrays(*arrays)
        except ValueError:
            shapes = " and ".join(f"{n} of shape {a.shape}" for n, a in zip(args, arrays))
            raise DomainError(f"{shapes} do not broadcast") from None
    out = blockwise(kernel, *arrays)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Auxiliary kernel: the law of (S / sigma) ** alpha
# ---------------------------------------------------------------------------

def _kernel_coeffs(rho):
    """``(1 - rho, 2 - rho, 6 + rho (2 - rho))``: the rho-dependent
    coefficients of the kernel polynomials, as ``_kernel_polys`` takes
    them."""
    return 1.0 - rho, 2.0 - rho, 6.0 + rho * (2.0 - rho)


def _kernel_b(y, c1):
    """B at y, with ``c1 = 2 - rho`` from ``_kernel_coeffs(rho)``: the
    one polynomial the CDF needs, and ``_kernel_polys``'s third."""
    b = y + c1
    b *= y
    b += 1.0
    return b


def _kernel_polys(y, c0, c1, c2):
    """``(P, N, B)`` at y in Horner form, from ``_kernel_coeffs(rho)``:
    the one place the kernel's polynomials are written (B in
    ``_kernel_b``),

        N = P y + (1 - rho)
          = (1 - rho) y^4 + 4 y^3 + (6 + rho (2 - rho)) y^2 + 4 y + (1 - rho)
        B = y^2 + (2 - rho) y + 1

    so that ``g(y) = N / ((y + 1) B)^2`` and
    ``G(y) = y (y^2 + 2 y + 1 - rho) / ((y + 1) B)``. Every coefficient
    is nonnegative for rho in [0, 1]: the textbook two-fraction density
    cancels catastrophically near rho = 1 for small y (g(y; 1) ~ 4y),
    and ``(y + 1)^2 - rho`` in the CDF loses all precision there.
    The density, the log density and the derivatives evaluate them,
    for y in (0, 1]; callers fold larger arguments first.
    """
    p = c0 * y
    p += 4.0
    p *= y
    p += c2
    p *= y
    p += 4.0
    n = p * y
    n += c0
    return p, n, _kernel_b(y, c1)


def _kernel_polys_dy(y, c0, c1, c2):
    """``(N', B')``, the y-derivatives of ``_kernel_polys``'s N and B."""
    dn = 4.0 * c0 * y
    dn += 12.0
    dn *= y
    dn += 2.0 * c2
    dn *= y
    dn += 4.0
    db = 2.0 * y
    db += c1
    return dn, db


def _kernel_n_drho(w, rho):
    """N_rho = dN/drho at y, from ``w = y^2`` (B_rho is -y)."""
    t = 1.0 - w
    t *= t
    t += 2.0 * rho * w
    t *= -1.0
    return t


# ---------------------------------------------------------------------------
# Array layer: float arrays in, arrays out, no validation
# ---------------------------------------------------------------------------

# Elementwise array calls run over blocks of this many elements, so each
# step's temporaries stay in cache instead of streaming through memory.
# On a 2-core machine with numpy 2.4.6, 10^6-point calls ran about twice
# as fast as whole-array ones; 2^14 and 2^15 were the fastest, 2^13
# within 10 %, 2^12 and 2^16 slower. inference's likelihood pass chunks
# at the same size.
BLOCK_ELEMENTS = 2 ** 14


def blockwise(kernel, *arrays: np.ndarray) -> np.ndarray:
    """``kernel(*arrays)`` for an elementwise kernel of equally shaped
    arrays, evaluated over blocks of BLOCK_ELEMENTS elements and written
    into one output of their shape (plus any trailing axes the kernel
    adds). An input of at most one block goes to the kernel as it is,
    with no copy and no loop. The kernel treats each element on its own,
    so the output does not depend on the block size."""
    size = arrays[0].size
    if size <= BLOCK_ELEMENTS:
        return kernel(*arrays)
    flat = [a.reshape(-1) for a in arrays]
    out = None
    for lo in range(0, size, BLOCK_ELEMENTS):
        part = kernel(*(a[lo:lo + BLOCK_ELEMENTS] for a in flat))
        if out is None:
            out = np.empty((size,) + part.shape[1:])
        out[lo:lo + len(part)] = part
    return out.reshape(arrays[0].shape + out.shape[1:])


def _fold(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect x into (0, 1]: returns ``y = min(x, 1/x)`` and the mask
    ``x > 1``. The only place the x -> 1/x reflection is applied; the
    reciprocal of a subnormal x overflows to inf, which the minimum
    discards."""
    with np.errstate(over="ignore"):
        return np.minimum(x, 1.0 / x), x > 1.0


def _fold_log(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_fold`` for ``x = exp(u)`` given u: returns ``y = exp(-|u|)`` and
    the mask ``u > 0``, without forming x, so no |u| overflows."""
    return np.exp(-np.abs(u)), u > 0.0


def sample_stream(n: int, seed: int) -> tuple[int, np.random.Generator]:
    """``(n, generator)`` for a sampler's n draws: numpy's Philox
    generator for ``seed``, the stream both samplers draw from. n and the
    seed pass ``check_integer`` with floors 1 and 0, n first; an n above
    the largest array length raises ``DomainError`` before the seed is
    checked."""
    n = check_integer("n", n, 1)
    if n > np.iinfo(np.intp).max:
        raise DomainError(f"n must be <= {np.iinfo(np.intp).max}, got {n}")
    return n, np.random.Generator(np.random.Philox(check_integer("seed", seed, 0)))


def uniforms(gen: np.random.Generator, k: int) -> np.ndarray:
    """k uniforms from ``gen`` clipped to [1e-300, 1 - 1e-16], the draws
    both samplers transform: -log of each is finite and positive, and
    no quantile lands on the boundary of the support."""
    return np.clip(gen.random(k), 1e-300, 1.0 - 1e-16)


def log_odds(w: np.ndarray) -> np.ndarray:
    """``log(w / (1 - w))`` for w in (0, 1), the scale the likelihood
    lives on."""
    return np.log(w) - np.log1p(-w)


def _kernel_cdf_folded(y, big, rho: float) -> np.ndarray:
    """G(x; rho) from the fold ``(y, big)`` of x that ``_fold`` or
    ``_fold_log`` returns.

    Uses ``1 - G(x) = G(1/x)``: G is evaluated at the folded point y,
    and for x > 1 as the complement of that value.
    """
    b = _kernel_b(y, _kernel_coeffs(rho)[1])
    c = y * ((y + 2.0) * y + (1.0 - rho)) / ((y + 1.0) * b)
    return np.where(big, 1.0 - c, c)


def _kernel_logpdf(u, y, c0, c1, c2, out):
    """log g(y; rho) at the folded point ``y = exp(-|u|)``, from u (or
    |u|), y and ``_kernel_coeffs(rho)``, written into ``out``:
    the evaluation ``uf_logpdf`` and ``kernel_log_derivs`` share, each
    reflecting it to x = e^u in its own form. Returns the polynomials
    ``(P, N, B)`` at y, ``A = y + 1`` and the mask ``deep`` (None where
    no rho is 1) of the points where rho = 1 and y is subnormal or 0.
    There N = y P ~ 4y has lost bits (all of them at 0), so log N is
    formed as log P - |u|; A and B are 1. The caller silences the
    divide warning of log 0.
    """
    p, n, b = _kernel_polys(y, c0, c1, c2)
    a = y + 1.0
    np.multiply(a, b, out=out)
    out *= out
    np.divide(n, out, out=out)
    np.log(out, out=out)
    deep = None
    if not np.all(c0):
        deep = (c0 == 0.0) & (y < np.finfo(float).tiny)
        out[deep] = np.log(p[deep]) - np.abs(u[deep])
    return p, n, b, a, deep


def kernel_log_derivs(u: np.ndarray, rho) -> np.ndarray:
    """log g(x; rho) at ``x = exp(u)`` with its first and second
    derivatives in (u, rho): ``(log g, r, h, dr/du, dr/drho, dh/drho)``
    with ``r = d log g / du = x g'(x)/g(x)`` and
    ``h = d log g / drho``, returned as the rows of one array of shape
    ``(6,) + u.shape``, so that they unpack in that order.

    ``rho`` is a float or a column with one entry per row of u.
    Everything is formed at the folded point y = exp(-|u|) from
    ``g = N / ((y+1)^2 B^2)`` and the polynomials of ``_kernel_polys``,
    with one division each for log g, 1/(y+1), 1/B, y/N and N_rho/N,
    and every value computed in place. log g(y) comes from
    ``_kernel_logpdf``, the evaluation ``uf_logpdf`` reads too, and x
    itself is never formed, so it stays exact for any finite u. For
    u > 0 the reflection gives ``log g = log g(y) - 2u``,
    ``r = -r(y) - 2`` and ``dr/drho = -dr/drho(y)``; dr/du, h and
    dh/drho are the same at x and y. It is applied by exact sign
    arithmetic: ``log g(y) - 2 max(u, 0)`` (u = -inf keeps log g(0)),
    and with ``s = sign(u)`` and ``q = -r(y)``, ``r = s q - (s + 1)``
    and ``dr/drho = -s dr/drho(y)``, which leave u < 0 untouched and
    give r = -1 and dr/drho = 0 at u = 0, their values at x = 1. The
    value form of the likelihood pass and ``uf_logpdf`` is
    ``u + log g(e^u) = log g(y) - |u|``. The one exception is rho = 1,
    where N = y P(y) ~ 4y and y N' = y Q(y): log g and r stay exact,
    taking log N = log P - |u| and y/N = 1/P where y is subnormal or 0,
    but h ~ -1/(4y) and dh/drho overflow to -inf as y shrinks, and once
    y underflows to 0 (|u| > 745) the second derivatives read -inf or
    NaN. Those values are returned as they come, without a warning.
    """
    c0, c1, c2 = _kernel_coeffs(rho)
    out = np.empty((6,) + u.shape)
    logg, r, h, dr_du, dr_drho, dh_drho = out
    y = np.abs(u)
    np.negative(y, out=y)
    np.exp(y, out=y)
    w = y * y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, n, b, a, deep = _kernel_logpdf(u, y, c0, c1, c2, logg)
        # log g(x) = log g(y) - 2 max(u, 0); s = sign(u) reflects r and
        # dr/drho below
        sign = np.sign(u)
        np.maximum(u, 0.0, out=h)
        h += h
        logg -= h
        dn, db = _kernel_polys_dy(y, c0, c1, c2)
        # r(y) is y N'/N - 2 y/A - 2 y B'/B with A = y + 1 (pn, p1, pb),
        # and y d/dy of each ratio t = y f'/f is t + y^2 f''/f - t^2;
        # for A that is p1 (1 - p1) = p1 / A, and 1 - pb = (1 - w) / B
        np.reciprocal(a, out=a)
        p1 = y * a
        a *= p1
        np.reciprocal(b, out=b)
        yb = y * b
        db *= yb
        b *= 1.0 - w
        # rho derivatives: e = N_rho / N, B_rho = -y
        e = _kernel_n_drho(w, rho)
        e /= n
        np.divide(y, n, out=n)
        if deep is not None:
            n[deep] = 1.0 / p[deep]
        dn *= n
        # w/N, in P's buffer
        wn = np.multiply(y, n, out=p)
        pn, pb, omp = dn, db, b
        # r = s q - (s + 1) with q = -r(y) = 2 (p1 + pb) - pn
        np.add(p1, pb, out=r)
        r += r
        r -= pn
        r *= sign
        np.add(sign, 1.0, out=h)
        r -= h
        # dr/du = pn (1 - pn) + y^2 N''/N - 2 [p1 / A + pb (1 - pb) + 2 w/B]
        np.subtract(1.0, pn, out=dr_du)
        dr_du *= pn
        np.multiply(y, 12.0 * c0, out=h)
        h += 24.0
        h *= y
        h += 2.0 * c2
        h *= wn
        dr_du += h
        np.multiply(pb, omp, out=h)
        a += h
        np.multiply(y, yb, out=h)
        h += h
        a += h
        a += a
        dr_du -= a
        # dr/drho = -s dr/drho(y), where
        # dr/drho(y) = 4 (c0 - w) w/N - pn e + 2 yb (1 - pb)
        np.subtract(w, c0, out=dr_drho)
        dr_drho *= wn
        dr_drho *= 4.0
        np.multiply(pn, e, out=a)
        dr_drho += a
        np.multiply(yb, omp, out=a)
        a += a
        dr_drho -= a
        dr_drho *= sign
        # dh/drho = 2 (yb^2 - w/N) - e^2 and h = e + 2 yb
        np.multiply(yb, yb, out=dh_drho)
        dh_drho -= wn
        dh_drho += dh_drho
        np.add(yb, yb, out=h)
        h += e
        e *= e
        dh_drho -= e
    return out


def kernel_pdf(x: ArrayLike, rho: float):
    """Density g(x; rho) of the auxiliary kernel law on (0, infinity).

    This is the law of ``(S / sigma) ** alpha`` where ``S`` is the odds
    of a UF variate. Closed form:

        g(x; rho) = [2(x+1)^2 - rho (x^2+1)] / [(x+1)^2 - rho x]^2
                    - 1 / (x+1)^2

    Evaluated as ``N / ((y + 1) B)^2`` at ``y = min(x, 1/x)``, through
    the exact reflection ``g(x) = g(1/x) / x**2`` for x > 1.

    Parameters
    ----------
    x : float or array_like
        Evaluation points, strictly positive.
    rho : float
        Association parameter in [0, 1].
    """
    rho = check_rho(rho)
    return evaluate(lambda b: _kernel_pdf(b, rho), POSITIVE, x=x)


def _kernel_pdf(x: np.ndarray, rho: float) -> np.ndarray:
    y, big = _fold(x)
    _, n, b = _kernel_polys(y, *_kernel_coeffs(rho))
    ab = (y + 1.0) * b
    g = n / (ab * ab)
    return np.where(big, g * y * y, g)


def kernel_cdf(x: ArrayLike, rho: float):
    """CDF G(x; rho) of the auxiliary kernel law.

    Closed form ``G(x; rho) = [x/(x+1)] [(x+1)^2 - rho] / [(x+1)^2 - rho x]``,
    evaluated through the reflection ``G(x) = 1 - G(1/x)`` for x > 1.
    ``kernel_cdf(1.0, rho)`` is exactly 0.5 for every rho.
    """
    rho = check_rho(rho)
    return evaluate(lambda b: _kernel_cdf_folded(*_fold(b), rho), POSITIVE, x=x)


def kernel_pdf_dx(x: ArrayLike, rho: float):
    """Derivative in x of the kernel density g(x; rho).

    The quotient rule on ``g = N / (A B)^2`` at ``y = min(x, 1/x)``,
    A = y + 1, over ``_kernel_polys``'s N, B and their derivatives:
    ``g'(y) = [N' A B - 2 N (B + A B')] / (A B)^3``, and for x > 1 the
    reflection ``g'(x) = -g'(1/x)/x^4 - 2 g(x)/x``. Nothing overflows;
    away from its zeros the value keeps its relative accuracy from
    subnormal x to the largest double.
    """
    rho = check_rho(rho)
    return evaluate(lambda b: _kernel_pdf_dx(b, rho), POSITIVE, x=x)


def _kernel_pdf_dx(x: np.ndarray, rho: float) -> np.ndarray:
    y, big = _fold(x)
    coeffs = _kernel_coeffs(rho)
    _, n, b = _kernel_polys(y, *coeffs)
    dn, db = _kernel_polys_dy(y, *coeffs)
    a = y + 1.0
    ab = a * b
    d = (dn * ab - 2.0 * n * (b + a * db)) / (ab * ab * ab)
    return np.where(big, -(d * y + 2.0 * n / (ab * ab)) * (y * y * y), d)


def kernel_pdf_drho(x: ArrayLike, rho: float):
    """Derivative in rho of the kernel density g(x; rho).

    The quotient rule on ``g = N / (A B)^2`` at ``y = min(x, 1/x)``,
    A = y + 1, with N_rho from ``_kernel_n_drho`` and B_rho = -y:
    ``dg/drho(y) = [2 N y + N_rho B] / (A^2 B^3)``, and for x > 1 the
    reflection ``dg/drho(x) = dg/drho(1/x) / x^2``.
    """
    rho = check_rho(rho)
    return evaluate(lambda b: _kernel_pdf_drho(b, rho), POSITIVE, x=x)


def _kernel_pdf_drho(x: np.ndarray, rho: float) -> np.ndarray:
    y, _ = _fold(x)
    _, n, b = _kernel_polys(y, *_kernel_coeffs(rho))
    ab = (y + 1.0) * b
    h = (2.0 * n * y + _kernel_n_drho(y * y, rho) * b) / (ab * ab * b)
    # y / x is 1 for x <= 1 and y^2 = 1/x^2 above: the reflection's factor
    return h * (y / x)


def kernel_quantile(p: ArrayLike, rho: float):
    """Quantile function of the kernel law, inverse of kernel_cdf.

    Probabilities above one half are reflected to the lower tail via
    ``Q(p) = 1 / Q(1 - p)``. For ``q = min(p, 1 - p)`` the lower-tail
    quantile is solved in ``t = x / (1 + x)``, which lies in (0, 1/2]:
    with ``b = rho (2 - q)`` and ``c = (1 - rho) + rho q``, G(x) = q is

        h(t) = c + (b - rho t) t - q / t = 0,

    and h is increasing and concave there. The start
    ``t0 = 2q / (c + sqrt(c^2 + 8 rho (1 - q) q))``, the root of
    ``2 rho (1 - q) t^2 + c t = q``, has ``h(t0) = rho t0 (q - t0) <= 0``,
    so Newton's method climbs from it to the root without overshooting.
    It is exact at rho = 0, where ``Q(p) = q / (1 - q)``, and at q = 1/2.
    Each element steps until its own step is at most QUANTILE_TOL times
    t, so no element depends on its neighbours or on the order of the
    array. One evaluation suffices at rho = 0, three at rho <= 1/2 and
    four near rho = 1, from p = 5e-324 to 1 - 1.1e-16.
    ``NumericalError`` is raised past QUANTILE_MAX_ITER evaluations.
    """
    rho = check_rho(rho)
    return evaluate(lambda b: _kernel_quantile(b, rho), UNIT_OPEN, p=p)


def _kernel_quantile(p: np.ndarray, rho: float) -> np.ndarray:
    q = np.minimum(p, 1.0 - p)
    # c = 1 - rho (1 - q) written so that it does not cancel near rho = 1
    c = (1.0 - rho) + rho * q
    b = rho * (2.0 - q)
    t = 2.0 * q / (c + np.sqrt(c * c + 8.0 * rho * (1.0 - q) * q))
    live = np.ones(t.shape, dtype=bool)
    # one set of block-sized buffers, reused by every pass: blockwise keeps
    # them in cache, and fresh temporaries per pass cost more than the
    # arithmetic
    rt, qt, step, dh = (np.empty_like(t) for _ in range(4))
    for _ in range(QUANTILE_MAX_ITER):
        # h t = (c + (b - rho t) t - q/t) t and h' t = (b - 2 rho t) t + q/t,
        # so the step h / h' never forms q / t^2, which overflows
        np.multiply(rho, t, out=rt)
        np.divide(q, t, out=qt)
        np.subtract(b, rt, out=step)
        np.subtract(step, rt, out=dh)
        step *= t
        step += c
        step -= qt
        step *= t
        dh *= t
        dh += qt
        step /= dh
        np.subtract(t, step, out=t, where=live)
        np.abs(step, out=step)
        np.multiply(QUANTILE_TOL, t, out=rt)
        live &= step > rt
        if not live.any():
            x = t / (1.0 - t)
            np.divide(1.0, x, out=x, where=p > 0.5)
            return x
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
    return evaluate(lambda b: _uf_cdf(b, th), REAL, w=w)


def _uf_cdf(w: np.ndarray, th: UfParams) -> np.ndarray:
    # w <= 0 gives u = -inf and G = 0, w >= 1 gives u = inf and G = 1,
    # as does a u that overflows under a large alpha
    with np.errstate(divide="ignore", over="ignore"):
        u = th.alpha * (log_odds(np.clip(w, 0.0, 1.0)) - math.log(th.sigma))
    return _kernel_cdf_folded(*_fold_log(u), th.rho)


def _uf_logpdf(w: np.ndarray, th: UfParams) -> np.ndarray:
    """``uf_logpdf`` on a validated block, in the likelihood pass's value
    form ``log alpha + (log g(y) - |u|) - log(w (1 - w))``."""
    c0, c1, c2 = _kernel_coeffs(th.rho)
    with np.errstate(divide="ignore", over="ignore"):
        logw = np.log(w)
        out = np.negative(w)
        np.log1p(out, out=out)
        # log s, then |u|; log w + log(1 - w) = log s - 2 log(1 + s)
        au = logw - out
        au -= math.log(th.sigma)
        au *= th.alpha
        np.abs(au, out=au)
        logw += out
        y = np.negative(au)
        np.exp(y, out=y)
        _kernel_logpdf(au, y, c0, c1, c2, out)
    out -= au
    out -= logw
    out += math.log(th.alpha)
    return out


def uf_logpdf(w: ArrayLike, theta: UfParams | Sequence[float]):
    """Natural log of the UF density at w in (0, 1): finite wherever
    it lies in the double range, and -inf beyond it (which only an
    extreme alpha reaches).

    With s the odds of w, ``u = alpha (log s - log sigma)`` and
    ``y = exp(-|u|)``, it is written in the likelihood pass's form

        log alpha + (log g(y) - |u|) - log s + 2 log(1 + s),

    where ``log g(y) - |u| = u + log g(e^u)`` exactly: the log kernel
    density plus the log Jacobian of ``x = (s / sigma)^alpha``. The
    last two terms are evaluated as ``-log(w (1 - w))``. log g(y) comes
    from the code that gives ``kernel_log_derivs`` its value, so the
    result is exact for any finite u. Neither (alpha - 1) log s nor e^u
    is formed, so no term overflows against another: a u that
    overflows under a huge alpha gives -inf, a density of 0.
    """
    th = UfParams.of(theta)
    return evaluate(lambda b: _uf_logpdf(b, th), UNIT_OPEN, w=w)


def _uf_pdf(w: np.ndarray, th: UfParams) -> np.ndarray:
    out = _uf_logpdf(w, th)
    return np.exp(out, out=out)


def uf_pdf(w: ArrayLike, theta: UfParams | Sequence[float]):
    """Density of the UF distribution at w in (0, 1).

    ``exp(uf_logpdf(w, theta))``: the Jacobian prefactor and the kernel
    density are combined in log space, so the value is 0 only where the
    true density underflows. Tests verify agreement with the fully
    expanded closed form.
    """
    th = UfParams.of(theta)
    return evaluate(lambda b: _uf_pdf(b, th), UNIT_OPEN, w=w)


def uf_quantile(p: ArrayLike, theta: UfParams | Sequence[float]):
    """Quantile function of the UF distribution.

    Maps the kernel quantile y back through the stochastic
    representation ``W = sigma y**(1/alpha) / (1 + sigma y**(1/alpha))``.
    The roundtrip ``uf_cdf(uf_quantile(p)) = p`` holds to 1e-10 across
    p in [1e-6, 1 - 1e-6], except where the quantile lies within about
    1e-10 of 1: ``w = 1 / (1 + e^-log t)`` rounds twice there, and w can
    land a double away from the best one. At theta = (26, 0.3, 0),
    p = 0.9977775567789802 the roundtrip misses by 1.28e-9 relative,
    while the double below w is within 5.5e-11; ROADMAP's log-odds
    working scale (item 6) would remove this. Results stay strictly
    inside (0, 1): when the exact quantile rounds past the last double
    below 1 (possible for p near 1 with small alpha) the nearest
    interior value is returned instead.
    """
    th = UfParams.of(theta)
    return evaluate(lambda b: _uf_quantile(b, th), UNIT_OPEN, p=p)


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
    ``uf_quantile`` does it, by ``kernel_quantile``'s Newton solve from
    its closed-form start: each element until its own step is at most
    QUANTILE_TOL relative (one evaluation at rho = 0, at most four
    near rho = 1), so a draw depends only on its own uniform, and the
    output does not depend on the block size the inversion runs in.
    ``NumericalError`` is raised past QUANTILE_MAX_ITER evaluations.
    """
    th = UfParams.of(theta)
    n, gen = sample_stream(n, seed)
    return blockwise(lambda b: _uf_quantile(b, th), uniforms(gen, n))


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
