"""Divergence transforms, asymptotic distinguishability and decision bounds.

Power and Renyi divergences are monotone transforms of the Hellinger
integral, so every Hellinger bound converts directly.  The Bayes risk of
the binary decision problem and the minimal Neyman-Pearson type-II error
are bounded through the Hellinger integral as well; each bound direction is
fed by the matching side of the Hellinger sandwich (upper risk bound from
the upper Hellinger bound, lower from lower), never the other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .params import CaseTag, GWIError, ParamSet, _initial_population, classify, validate_order
from .recursions import Constellation, _report, log_hellinger_bounds

__all__ = [
    "DistinguishabilityVerdict",
    "DecisionConfig",
    "divergence_from_log_hellinger",
    "distinguishability",
    "bayes_risk_bounds",
    "np_type2_bound",
    "optimize_bayes_upper",
    "LAMBDA_GRID",
]

#: the orders lambda = 0.01, 0.02, ..., 0.99 that optimize_bayes_upper tries
LAMBDA_GRID = tuple(k / 100 for k in range(1, 100))


@dataclass(frozen=True)
class DistinguishabilityVerdict:
    """Contiguity/entire-separation verdict; None marks an open question."""

    contiguous_a_to_h: Optional[bool]
    contiguous_h_to_a: Optional[bool]
    entirely_separated: Optional[bool]

    def __post_init__(self) -> None:
        if self.entirely_separated:
            if self.contiguous_a_to_h or self.contiguous_h_to_a:
                raise GWIError("entire separation excludes contiguity")


@dataclass(frozen=True)
class DecisionConfig:
    """Loss/prior/level configuration of the decision problems."""

    loss_a: float = 1.0
    loss_h: float = 1.0
    prior_h: float = 0.5
    level: float = 0.05

    def __post_init__(self) -> None:
        if self.loss_a <= 0.0 or self.loss_h <= 0.0:
            raise GWIError("losses must be > 0")
        if not 0.0 < self.prior_h < 1.0:
            raise GWIError("prior_h must lie in (0, 1)")
        if not 0.0 < self.level < 1.0:
            raise GWIError("level must lie in (0, 1)")

    @property
    def weight_h(self) -> float:
        return self.prior_h * self.loss_h

    @property
    def weight_a(self) -> float:
        return (1.0 - self.prior_h) * self.loss_a


def divergence_from_log_hellinger(log_h: float, lam: float) -> tuple[float, float]:
    """(power divergence, Renyi divergence) from a log Hellinger value.

    power = (1 - H)/(lambda (1-lambda)) in [0, 1/(lambda(1-lambda))];
    renyi = log H / (lambda (lambda-1)) >= 0.
    """
    lam = validate_order(lam)
    if log_h > 0.0:
        raise GWIError("log Hellinger value must be <= 0")
    denom = lam * (1.0 - lam)
    power = (1.0 - math.exp(log_h)) / denom
    renyi = log_h / (lam * (lam - 1.0)) + 0.0  # normalize -0.0 at log_h == 0
    return power, renyi


def distinguishability(params: ParamSet) -> DistinguishabilityVerdict:
    """Asymptotic distinguishability of the two path-law sequences.

    SP constellations other than SP4 are entirely separated.  Without
    immigration the sequences are never entirely separated, and contiguity
    in either direction is equivalent to the corresponding offspring mean
    being subcritical-or-critical.  SP4 is left open (no Hellinger decay is
    established there).
    """
    case = classify(params, 0.5)
    if case is CaseTag.NI:
        return DistinguishabilityVerdict(
            contiguous_a_to_h=params.beta_a <= 1.0,
            contiguous_h_to_a=params.beta_h <= 1.0,
            entirely_separated=False,
        )
    if case is CaseTag.SP4:
        return DistinguishabilityVerdict(None, None, None)
    return DistinguishabilityVerdict(
        contiguous_a_to_h=False, contiguous_h_to_a=False, entirely_separated=True
    )


def bayes_risk_bounds(
    params: ParamSet, lam: float, omega0: int, n: int, cfg: DecisionConfig
) -> tuple[float, float]:
    """(lower, upper) bounds for the Bayes risk of the n-horizon decision.

    upper = w_A^lam w_H^(1-lam) * H_up, clamped at min(w_A, w_H) (the risk
    of the better constant decision); lower uses the direct transform of the
    Hellinger lower bound.
    """
    lam = validate_order(lam)
    report = log_hellinger_bounds(params, lam, omega0, n)
    w_a, w_h = cfg.weight_a, cfg.weight_h
    upper = _upper_risk(lam, report.log_upper, w_a, w_h)

    exp_a = max(1.0, lam / (1.0 - lam))
    exp_h = max(1.0, (1.0 - lam) / lam)
    exp_sum = max(lam / (1.0 - lam), (1.0 - lam) / lam)
    exp_hell = max(1.0 / lam, 1.0 / (1.0 - lam))
    # assembled in log scale so extreme orders cannot overflow intermediates
    log_lower = (
        exp_a * math.log(w_a)
        + exp_h * math.log(w_h)
        - exp_sum * math.log(w_a + w_h)
        + report.log_lower * exp_hell
    )
    lower = math.exp(log_lower) if log_lower > -745.0 else 0.0
    return lower, upper


def _upper_risk(lam: float, log_upper: float, w_a: float, w_h: float) -> float:
    """The Bayes upper risk bound w_A^lam w_H^(1-lam) H_up, clamped at min(w_A, w_H)."""
    return min(w_a**lam * w_h ** (1.0 - lam) * math.exp(log_upper), w_a, w_h)


def np_type2_bound(
    params: ParamSet, lam: float, omega0: int, n: int, cfg: DecisionConfig
) -> float:
    """Upper bound for the minimal type-II error at type-I level cfg.level.

    Uses the Hellinger integral of order 1 - lambda (upper bound or exact
    value) in the Krafft-Plachky-style inequality, capped at 1.
    """
    lam = validate_order(lam)
    report = log_hellinger_bounds(params, 1.0 - lam, omega0, n)
    log_bound = (
        math.log(1.0 - lam)
        + lam / (1.0 - lam) * math.log(lam / cfg.level)
        + report.log_upper / (1.0 - lam)
    )
    # clamp in log scale first: the cap at 1 makes any positive log trivial
    return math.exp(min(log_bound, 0.0))


def optimize_bayes_upper(
    params: ParamSet, omega0: int, n: int, cfg: DecisionConfig
) -> tuple[float, float]:
    """(lam, bound): bayes_risk_bounds' upper bound at its first argmin over LAMBDA_GRID."""
    omega0, n = _initial_population(omega0, n, 0)
    w_a, w_h = cfg.weight_a, cfg.weight_h
    best_lam, best = None, math.inf
    for lam in LAMBDA_GRID:
        report = _report(Constellation(params, lam), omega0, n)
        upper = _upper_risk(lam, report.log_upper, w_a, w_h)
        if upper < best:
            best_lam, best = lam, upper
    return best_lam, best
