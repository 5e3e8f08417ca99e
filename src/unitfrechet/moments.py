"""Second-order Taylor approximations of the UF moments.

The mean and variance of W = X1/(X1+X2) have no closed form; they are
approximated by expanding g(x1, x2) = [x1/(x1+x2)]^p to second order
around the marginal means and taking expectations, which leaves only
the marginal means, the marginal variances and the covariance of the
bivariate vector as inputs.

The Frechet margins supply those inputs in closed form via the gamma
function: mean sigma_i Gamma(1-1/alpha) for alpha > 1 and variance
sigma_i^2 [Gamma(1-2/alpha) - Gamma(1-1/alpha)^2] for alpha > 2. The
covariance is a one-dimensional integral (see
:func:`unitfrechet.bivariate.estimate_cov`) that this module does not
evaluate, so it must be supplied by the caller (typically from
``estimate_cov``'s Monte Carlo estimate); it is never defaulted
silently.

A quality warning is emitted when a margin's coefficient of variation
exceeds one half: the heavy Frechet tails make the second-order
expansion unreliable there. The variance approximation in particular
degrades well before the mean does; see the package README for
measured error levels.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .bivariate import BivParams
from .core import as_float, check_positive
from .errors import DomainError, ParameterError

__all__ = [
    "ApproximationWarning",
    "MomentInputs",
    "frechet_moments",
    "approx_moment",
    "approx_var",
]


class ApproximationWarning(UserWarning):
    """The Taylor expansion is being used outside its comfort zone."""


@dataclass(frozen=True)
class MomentInputs:
    """Marginal means, variances and covariance feeding the expansion.

    ``var1``, ``var2`` and ``cov`` may be None when unavailable (the
    variance formulas require alpha > 2; the covariance always comes
    from the caller). The approximation operations require a fully
    populated instance.
    """

    mu1: float
    mu2: float
    var1: Optional[float] = None
    var2: Optional[float] = None
    cov: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive(self, "mu1", "mu2")
        for name in ("var1", "var2", "cov"):
            v = getattr(self, name)
            if v is not None:
                v = as_float(name, v)
                object.__setattr__(self, name, v)
                if not (math.isfinite(v) and (v >= 0.0 or name == "cov")):
                    rule = "finite" if name == "cov" else "finite and >= 0"
                    raise ParameterError(f"{name} must be {rule}, got {v!r}")
        if self.complete:
            # sqrt of each factor: the product underflows for tiny variances
            bound = math.sqrt(self.var1) * math.sqrt(self.var2)
            if abs(self.cov) > bound * (1.0 + 1e-12) + 1e-300:
                raise ParameterError(
                    f"cov={self.cov!r} violates the Cauchy-Schwarz bound {bound!r}"
                )

    @property
    def complete(self) -> bool:
        return self.var1 is not None and self.var2 is not None and self.cov is not None

    def with_cov(self, cov: float) -> "MomentInputs":
        """Copy of these inputs with the covariance filled in."""
        return replace(self, cov=as_float("cov", cov))


def frechet_moments(p: BivParams | Sequence[float]) -> MomentInputs:
    """Marginal Frechet means and variances; covariance left unset.

    Raises DomainError for alpha <= 1 (the mean diverges). For
    1 < alpha <= 2 only the means are returned and the variances stay
    None, since Gamma(1 - 2/alpha) diverges at alpha = 2 and the second
    moment does not exist below it. DomainError is also raised where
    the values leave the double range: a mean or a variance that
    overflows (sigma1 = 1e300 at alpha = 3), or a sigma^2 below the
    smallest normal double, whose variance would underflow.
    """
    p = BivParams.of(p)
    if p.alpha <= 1.0:
        raise DomainError(
            f"the Frechet mean requires alpha > 1, got alpha={p.alpha!r}"
        )
    # both gamma arguments lie in (0, 1)
    g1 = math.gamma(1.0 - 1.0 / p.alpha)
    moments = {"mu1": p.sigma1 * g1, "mu2": p.sigma2 * g1}
    if p.alpha > 2.0:
        spread = math.gamma(1.0 - 2.0 / p.alpha) - g1 * g1
        moments["var1"] = p.sigma1 * p.sigma1 * spread
        moments["var2"] = p.sigma2 * p.sigma2 * spread
    if not all(map(math.isfinite, moments.values())) or (
        p.alpha > 2.0 and min(p.sigma1, p.sigma2) ** 2 < sys.float_info.min
    ):
        raise DomainError(
            "the Frechet means and variances leave the double range at "
            f"sigma1={p.sigma1!r}, sigma2={p.sigma2!r}, alpha={p.alpha!r}"
        )
    return MomentInputs(**moments)


def _require_complete(m: MomentInputs) -> None:
    """DomainError naming the unset inputs, and why a variance is unset."""
    missing = [name for name in ("var1", "var2", "cov") if getattr(m, name) is None]
    if missing:
        raise DomainError(
            "moment approximation needs fully populated inputs; missing: "
            + ", ".join(missing)
            + ("" if missing == ["cov"] else
               " (a Frechet margin with alpha <= 2 has no finite variance)")
        )


def _unit_scale(m: MomentInputs) -> tuple[float, float, float, float, float]:
    """(mu1, mu2, var1, var2, cov) of m with the margins divided by
    max(mu1, mu2). The expansions are scale free, and the powers of
    mu1 + mu2 they take would leave the double range for margins past
    about 1e77."""
    c = max(m.mu1, m.mu2)
    return m.mu1 / c, m.mu2 / c, m.var1 / c / c, m.var2 / c / c, m.cov / c / c


def _quality_guard(m: MomentInputs) -> None:
    cv1 = math.sqrt(m.var1) / m.mu1
    cv2 = math.sqrt(m.var2) / m.mu2
    if max(cv1, cv2) > 0.5:
        warnings.warn(
            "second-order expansion is unreliable: a marginal coefficient of "
            f"variation is {max(cv1, cv2):.3f} (> 0.5)",
            ApproximationWarning,
            stacklevel=3,
        )


def approx_moment(p_exponent: float, m: MomentInputs) -> float:
    """Second-order approximation of E(W^p).

    E(W^p) ~ r^p + [p mu1^(p-1) / (2 (mu1+mu2)^(p+2))]
             * { (mu2/mu1) [(p-1) mu2 - 2 mu1] var1
                 + 2 (mu1 - p mu2) cov
                 + (p+1) mu1 var2 }

    with r = mu1/(mu1+mu2). Exact for p = 0 (everything carries a
    factor p); equal to 1/2 at p = 1 for symmetric inputs, where the
    correction cancels. Every term is degree-0 homogeneous in
    (mu, sqrt(var), sqrt(cov)) scaling, so the value is scale free; it
    is evaluated at margins rescaled to max(mu1, mu2) = 1.
    """
    _require_complete(m)
    _quality_guard(m)
    p = as_float("p_exponent", p_exponent)
    mu1, mu2, var1, var2, cov = _unit_scale(m)
    tot = mu1 + mu2
    lead = (mu1 / tot) ** p
    inner = (
        (mu2 / mu1) * ((p - 1.0) * mu2 - 2.0 * mu1) * var1
        + 2.0 * (mu1 - p * mu2) * cov
        + (p + 1.0) * mu1 * var2
    )
    corr = p * mu1 ** (p - 1.0) / (2.0 * tot ** (p + 2.0)) * inner
    return lead + corr


def approx_var(m: MomentInputs) -> float:
    """Second-order approximation of Var(W).

    Assembles the variance display

        mu1/(mu1+mu2)^4 { (mu2/mu1)(mu2 - 2 mu1) var1
                          + 2 (mu1 - 2 mu2) cov + 3 mu1 var2 }
        - B^2/(mu1+mu2)^6 + 2 mu1 B/(mu1+mu2)^4,
        B = mu2 var1 + (mu2 - mu1) cov - mu1 var2

    which is algebraically identical to
    ``approx_moment(2, m) - approx_moment(1, m)**2`` (the tests assert
    the two routes agree). Like ``approx_moment`` it is evaluated at
    margins rescaled to max(mu1, mu2) = 1.
    """
    _require_complete(m)
    _quality_guard(m)
    mu1, mu2, var1, var2, cov = _unit_scale(m)
    tot = mu1 + mu2
    t2 = (
        mu1
        / tot**4
        * (
            (mu2 / mu1) * (mu2 - 2.0 * mu1) * var1
            + 2.0 * (mu1 - 2.0 * mu2) * cov
            + 3.0 * mu1 * var2
        )
    )
    b = mu2 * var1 + (mu2 - mu1) * cov - mu1 * var2
    return t2 + 2.0 * mu1 * b / tot**4 - b * b / tot**6
