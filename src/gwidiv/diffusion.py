"""Feller-diffusion-limit parametrization and limit bounds.

A rescaled GWI with offspring mean 1 - kappa/(sigma^2 m) and immigration
mean beta * eta/sigma^2 approximates the square-root diffusion
dX = (eta - kappa X) dt + sigma sqrt(X) dW on the time scale
floor(sigma^2 m t).  The construction lands in NI (eta = 0) or SP1
(eta > 0), so every step-m Hellinger quantity is exactly computable and the
closed-form bounds pass to the limit m -> infinity in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .closed_form import closed_form_log_lower, closed_form_log_upper
from .params import (AdmissibilityError, GWIError, ParamSet, _initial_population, _integer,
                     validate_order)

__all__ = [
    "SDEParams",
    "LimitScalars",
    "limit_scalars",
    "min_admissible_m",
    "approx_params",
    "prelimit_log_bounds",
    "limit_log_bounds",
    "limit_entropy",
    "time_horizon",
]


@dataclass(frozen=True)
class SDEParams:
    """Diffusion parameters (eta, kappa_a, kappa_h, sigma) and initial value."""

    eta: float
    kappa_a: float
    kappa_h: float
    sigma: float
    x0_tilde: float

    def __post_init__(self) -> None:
        for name in ("eta", "kappa_a", "kappa_h", "sigma", "x0_tilde"):
            if not math.isfinite(getattr(self, name)):
                raise GWIError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta < 0.0:
            raise GWIError("immigration drift eta must be >= 0")
        if self.kappa_a < 0.0 or self.kappa_h < 0.0:
            raise GWIError("reversion rates kappa must be >= 0")
        if self.kappa_a == self.kappa_h:
            raise GWIError("kappa_a and kappa_h must differ")
        if self.sigma <= 0.0:
            raise GWIError("diffusion coefficient sigma must be > 0")
        if self.x0_tilde <= 0.0:
            raise GWIError("initial value x0_tilde must be > 0")


class LimitScalars(NamedTuple):
    kappa_lambda: float
    lambda_cap: float


def limit_scalars(sde: SDEParams, lam: float) -> LimitScalars:
    """kappa_lambda = weighted mean of the kappas; Lambda = weighted quadratic mean.

    Lambda > kappa_lambda > 0 always (strict Jensen gap, kappa_a != kappa_h).
    """
    lam = validate_order(lam)
    kl = lam * sde.kappa_a + (1.0 - lam) * sde.kappa_h
    cap = math.sqrt(lam * sde.kappa_a**2 + (1.0 - lam) * sde.kappa_h**2)
    return LimitScalars(kappa_lambda=kl, lambda_cap=cap)


def min_admissible_m(sde: SDEParams) -> int:
    """Smallest approximation step with both offspring means in (0, 1]."""
    return math.ceil(max(sde.kappa_a, sde.kappa_h) / sde.sigma**2) + 1


def approx_params(sde: SDEParams, m: int) -> ParamSet:
    """Step-m GWI parameters: beta = 1 - kappa/(sigma^2 m), alpha = beta*eta/sigma^2.

    Raises :class:`AdmissibilityError` (with the minimal admissible m) when
    either offspring mean leaves (0, 1].
    """
    m = _integer("m", m)
    if m < 1:
        raise AdmissibilityError(f"approximation step m must be >= 1, got {m}")
    s2m = sde.sigma**2 * m
    beta_a = 1.0 - sde.kappa_a / s2m
    beta_h = 1.0 - sde.kappa_h / s2m
    if beta_a <= 0.0 or beta_h <= 0.0:
        raise AdmissibilityError(
            f"m = {m} is inadmissible; smallest admissible m is {min_admissible_m(sde)}"
        )
    scale = sde.eta / sde.sigma**2
    return ParamSet(
        beta_a=beta_a,
        beta_h=beta_h,
        alpha_a=beta_a * scale,
        alpha_h=beta_h * scale,
    )


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise GWIError(f"time horizon t must be finite, got {t}")
    if t < 0.0:
        raise GWIError("time horizon t must be >= 0")


def time_horizon(sde: SDEParams, m: int, t: float) -> int:
    """floor(sigma^2 m t), with a 1e-9 upward nudge against floor misses."""
    _check_time(t)
    m = _integer("m", m)
    steps = sde.sigma**2 * m * t + 1e-9
    if not math.isfinite(steps):
        raise GWIError(f"horizon sigma^2 m t overflows a double at t = {t}, m = {m}")
    return int(math.floor(steps))


def prelimit_log_bounds(
    sde: SDEParams, lam: float, t: float, m: int, x0_count: int
) -> tuple[float, float]:
    """Step-m closed-form log Hellinger bounds at horizon floor(sigma^2 m t).

    ``x0_count`` is the integer initial population of the step-m GWI.  An
    empty horizon gives the trivial (0, 0) (the laws coincide).
    """
    lam = validate_order(lam)
    params = approx_params(sde, m)
    x0_count, n = _initial_population(x0_count, time_horizon(sde, m, t), 0)
    if n == 0:
        return 0.0, 0.0
    return (
        closed_form_log_lower(params, lam, x0_count, n),
        closed_form_log_upper(params, lam, x0_count, n),
    )


def limit_log_bounds(sde: SDEParams, lam: float, t: float) -> tuple[float, float]:
    """Log bounds for the m -> infinity Hellinger integral limit at time t."""
    lam = validate_order(lam)
    _check_time(t)
    if t == 0.0:
        return 0.0, 0.0
    kl, cap = limit_scalars(sde, lam)
    s2 = sde.sigma**2
    eta, x0 = sde.eta, sde.x0_tilde
    gap = cap - kl
    half = 0.5 * (cap + kl)

    e_cap = math.exp(-cap * t)
    e_half = math.exp(-half * t)
    e_three = math.exp(-0.5 * (3.0 * cap + kl) * t)

    l1 = gap**2 / (2.0 * s2 * cap) * e_cap * (1.0 - e_cap)
    l2 = 0.25 * (gap / cap) ** 2 * (1.0 - e_cap) ** 2
    u1 = gap**2 / s2 * ((e_half - e_cap) / gap - e_half * (1.0 - e_cap) / (2.0 * cap))
    u2 = gap**2 / cap * (
        (1.0 - e_three) / (3.0 * cap + kl) + (e_cap - e_half) / gap
    )

    log_lower = (
        -gap / s2 * (x0 - eta / cap) * (1.0 - e_cap)
        - eta / s2 * gap * t
        + l1 * x0
        + eta / s2 * l2
    )
    log_upper = (
        -gap / s2 * (x0 - eta / half) * (1.0 - e_half)
        - eta / s2 * gap * t
        - u1 * x0
        - eta / s2 * u2
    )
    if not (math.isfinite(log_lower) and math.isfinite(log_upper)):
        raise GWIError(f"limit log bounds overflow a double at t = {t}")
    return log_lower, log_upper


def limit_entropy(sde: SDEParams, t: float) -> float:
    """Exact diffusion-limit relative entropy at time t (closed form)."""
    _check_time(t)
    s2 = sde.sigma**2
    ka, kh, eta, x0 = sde.kappa_a, sde.kappa_h, sde.eta, sde.x0_tilde
    if ka > 0.0:
        value = (ka - kh) ** 2 / (2.0 * s2 * ka) * (
            (x0 - eta / ka) * (1.0 - math.exp(-ka * t)) + eta * t
        )
    else:
        value = kh**2 / (2.0 * s2) * (0.5 * eta * t * t + x0 * t)
    if not math.isfinite(value):
        raise GWIError(f"limit entropy overflows a double at t = {t}")
    return value
