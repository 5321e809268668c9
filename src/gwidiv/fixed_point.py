"""Fixed point of x -> q*e^x - beta_lambda and derived linearization scalars.

For 0 < q < beta_lambda the map has a unique negative fixed point x0, the
limit of the a-recursion.  The tangent slope d_T = q*e^{x0}, the secant
slope d_S = (x0 - (q - beta_lambda))/x0 and the curvature weight
Gamma = (q/2) e^{x0} x0^2 feed every closed-form bound.  Explicit
under/over approximants of x0 come from the two bracketing quadratics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import GWIError

__all__ = ["FixedPointResult", "solve_fixed_point"]

_RESIDUAL_TOL = 1e-13


@dataclass(frozen=True)
class FixedPointResult:
    x0: float
    x0_under: float
    x0_over: float
    d_t: float
    d_s: float
    gamma_cap: float
    q: float
    beta_lambda: float
    #: True when the over-approximant fails x0_over < q - beta_lambda, the
    #: sufficient condition the explicit closed-form variants rely on
    explicit_unsafe: bool = False

    @property
    def residual(self) -> float:
        return self.q * math.exp(self.x0) - self.beta_lambda - self.x0


def _linearization(q: float, beta_lambda: float, x0: float) -> tuple[float, float, float]:
    """(d_T, d_S, Gamma) at a point x0 of the map: the tangent slope q e^{x0},
    the secant slope (x0 - (q - beta_lambda))/x0 through x0 and the first
    step, -inf at x0 = 0 (only the tangent is used there), and the curvature
    weight d_T x0^2 / 2."""
    d_t = q * math.exp(x0)
    d_s = (x0 - (q - beta_lambda)) / x0 if x0 else -math.inf
    return d_t, d_s, 0.5 * d_t * x0 * x0


def solve_fixed_point(q: float, beta_lambda: float) -> FixedPointResult:
    """Solve q*e^x - beta_lambda = x for the unique root in (-beta_lambda, q - beta_lambda).

    Bracketed bisection down to width 1e-14 followed by two Newton polish
    steps; the bracket is guaranteed because the map is convex, increasing,
    and its first recursion step a_1 = q - beta_lambda is negative.
    """
    if not 0.0 < q < math.inf or not beta_lambda < math.inf:
        raise GWIError(f"fixed point needs finite q > 0 and beta_lambda, got {q}, {beta_lambda}")
    if q >= beta_lambda:
        raise GWIError(
            f"no negative fixed point for q >= beta_lambda (q={q}, beta_lambda={beta_lambda})"
        )
    # g(x) = q*e^x - beta_lambda - x, written out where it is evaluated
    lo, hi = -beta_lambda, q - beta_lambda
    exp = math.exp
    for _ in range(200):
        if hi - lo <= 1e-14:
            break
        mid = 0.5 * (lo + hi)
        if q * exp(mid) - beta_lambda - mid > 0.0:
            lo = mid
        else:
            hi = mid
    x0 = 0.5 * (lo + hi)
    for _ in range(2):
        slope = q * exp(x0) - 1.0
        x0 -= (q * exp(x0) - beta_lambda - x0) / slope
    residual = q * exp(x0) - beta_lambda - x0
    if not abs(residual) <= _RESIDUAL_TOL:
        raise GWIError(f"fixed-point residual {residual:.3e} above tolerance")

    # under-approximant: root of the h(q)-damped quadratic (below the map)
    if q < 1.0:
        h = max(-beta_lambda, (q - beta_lambda) / (1.0 - q))
    else:
        h = -beta_lambda
    disc_under = (1.0 - q) ** 2 - 2.0 * q * math.exp(h) * (q - beta_lambda)
    x0_under = math.exp(-h) / q * ((1.0 - q) - math.sqrt(disc_under))
    # over-approximant: root of the undamped quadratic (above the map)
    disc_over = (1.0 - q) ** 2 - 2.0 * q * (q - beta_lambda)
    x0_over = ((1.0 - q) - math.sqrt(disc_over)) / q

    d_t, d_s, gamma_cap = _linearization(q, beta_lambda, x0)
    return FixedPointResult(
        x0=x0,
        x0_under=x0_under,
        x0_over=x0_over,
        d_t=d_t,
        d_s=d_s,
        gamma_cap=gamma_cap,
        q=q,
        beta_lambda=beta_lambda,
        explicit_unsafe=bool(x0_over >= q - beta_lambda),
    )
