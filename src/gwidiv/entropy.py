"""Relative entropy (Kullback-Leibler divergence) between the two path laws.

The lambda->1 limit of the power divergence turns every Hellinger-integral
statement into an entropy statement: exact closed forms on NI/SP1, a closed
-form upper bound E^U elsewhere, and a lower bound E^L, the supremum of
tangent, secant and horizontal minorants of the per-step divergence.

The entropy is I = sum_{k<n} E_A g(X_k), with the per-step Poisson divergence
g(x) = f_A log(f_A/f_H) - f_A + f_H at the rates f = beta*x + alpha.  Every
formula replaces g by a line c0 + c1*x (g itself on NI/SP1, where it is
linear; a majorant or minorant of it elsewhere), so it equals n*c0 + c1*S
= n*(c0 + c1*mbar) with the expected population sum S = sum_{k<n} E_A X_k
and mbar = S/n; since g is convex, each supremum is a closed form at mbar.
S is the only quantity with a removable singularity at beta_a = 1;
`_occupation` computes it uniformly across it, once per `entropy_report`,
of which `exact_entropy`, `entropy_upper` and `entropy_lower` are views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from scipy.special import lambertw

from .params import (
    BoundOrderError,
    CaseError,
    CaseTag,
    GWIError,
    ParamSet,
    _crossed,
    _initial_population,
    classify,
)

__all__ = [
    "EntropyReport",
    "exact_entropy",
    "entropy_upper",
    "entropy_lower",
    "entropy_report",
    "tangent_component",
    "tangent_component_limit",
    "tangent_component_dy",
    "secant_component",
    "horizontal_component",
    "tangent_derivative_at_ystar",
]


def _occupation(params: ParamSet, omega0: int, n: int) -> float:
    """S = sum_{k<n} E_A X_k = omega0*G + alpha_a*H for X_0 = omega0.

    With d = beta_a - 1, G = sum_{k<n} beta_a^k = sum_j C(n, j+1) d^j and
    H = sum_{k<n} (beta_a^k - 1)/d = sum_j C(n, j+2) d^j.  For |n*d| < 1/2
    the series are summed, each term under a quarter of the one before;
    otherwise |beta_a^n - 1| > 0.4, and G = expm1(n log1p d)/d and
    H = (G - n)/d lose at most a few bits.  This is the only place where the
    distance of beta_a from 1 matters.
    """
    omega0, n = _initial_population(omega0, n, 1)
    d = params.beta_a - 1.0
    if abs(n * d) < 0.5:
        g_term, h_term = float(n), 0.5 * n * (n - 1)
        g = h = 0.0
        j = 0
        while abs(g_term) > 1e-17 * g or abs(h_term) > 1e-17 * h:
            g += g_term
            h += h_term
            g_term *= d * (n - 1 - j) / (j + 2)
            h_term *= d * (n - 2 - j) / (j + 3)
            j += 1
    else:
        try:
            g = math.expm1(n * math.log1p(d)) / d
        except OverflowError:
            g = math.inf
        h = (g - n) / d
    s = omega0 * g + params.alpha_a * h
    if not math.isfinite(s):
        raise GWIError(f"expected population sum overflows a double at n = {n}")
    return s


def _integrated(line: tuple[float, float], n: int, s: float) -> float:
    """sum_{k<n} E_A[c0 + c1*X_k] = n*c0 + c1*S for the line (c0, c1)."""
    value = n * line[0] + line[1] * s
    if not math.isfinite(value):
        raise GWIError(f"entropy value overflows a double at n = {n}")
    return value


def _entropy_drift(params: ParamSet) -> float:
    """beta_a*(log(beta_a/beta_h) - 1) + beta_h; >= 0, zero iff beta_a == beta_h."""
    return params.beta_a * (math.log(params.beta_a / params.beta_h) - 1.0) + params.beta_h


def _tangent_line(params: ParamSet, y: float) -> tuple[float, float]:
    """(intercept, slope) of the tangent of g at y."""
    ratio = params.rate_a(y) / params.rate_h(y)
    log_ratio = math.log(ratio)
    return (
        params.alpha_a * log_ratio + params.alpha_h * (1.0 - ratio),
        params.beta_a * log_ratio + params.beta_h * (1.0 - ratio),
    )


def _limit_line(params: ParamSet) -> tuple[float, float]:
    """The asymptote of g: its tangent line in the limit y -> infinity."""
    ratio = params.beta_a / params.beta_h
    return (
        params.alpha_a * math.log(ratio) + params.alpha_h * (1.0 - ratio),
        _entropy_drift(params),
    )


def _secant_line(params: ParamSet, k: int) -> tuple[float, float]:
    """(intercept, slope) of the secant of g through k and k + 1."""
    fa, fa_next = params.rate_a(float(k)), params.rate_a(float(k + 1))
    l_k = fa * math.log(fa / params.rate_h(float(k)))
    diff = fa_next * math.log(fa_next / params.rate_h(float(k + 1))) - l_k
    return (
        l_k - k * diff + params.alpha_h - params.alpha_a,
        diff + params.beta_h - params.beta_a,
    )


def tangent_component(params: ParamSet, omega0: int, n: int, y: float) -> float:
    """Lower-bound component from the tangent of phi at the point y >= 0."""
    if y < 0.0:
        raise GWIError("tangent point y must be >= 0")
    return _integrated(_tangent_line(params, y), n, _occupation(params, omega0, n))


def tangent_component_limit(params: ParamSet, omega0: int, n: int) -> float:
    """The y -> infinity limit of the tangent component (closed form)."""
    return _integrated(_limit_line(params), n, _occupation(params, omega0, n))


def tangent_component_dy(params: ParamSet, omega0: int, n: int, y: float) -> float:
    """d/dy of the tangent component; used to confirm stationarity of maximizers."""
    gbar = -params.gamma
    curvature = gbar**2 / (params.rate_a(y) * params.rate_h(y) ** 2)
    # d/dy of the tangent line at y is the line curvature * (x - y)
    return _integrated((-curvature * y, curvature), n, _occupation(params, omega0, n))


def secant_component(params: ParamSet, omega0: int, n: int, k: int) -> float:
    """Lower-bound component from the secant of phi through k and k + 1."""
    if k < 0:
        raise GWIError("secant index k must be >= 0")
    return _integrated(_secant_line(params, k), n, _occupation(params, omega0, n))


def _divergence(params: ParamSet, x: float) -> float:
    """g(x) = f_A log(f_A/f_H) - f_A + f_H, the per-step Poisson divergence.

    That form cancels where g is far below f_A, so for |u| < 0.1, with
    u = (f_A - f_H)/f_H from the parameter gaps, g = f_H ((1+u) log1p(u) - u)
    is summed as f_H sum_{k>=2} (-u)^k/(k(k-1)) up to k = 20.
    """
    fa, fh = params.rate_a(x), params.rate_h(x)
    u = ((params.beta_a - params.beta_h) * x + params.alpha_a - params.alpha_h) / fh
    if abs(u) >= 0.1:
        return fa * (math.log(fa / fh) - 1.0) + fh
    return fh * sum((-u) ** k / (k * (k - 1)) for k in range(20, 1, -1))


def _excess(params: ParamSet, x: float) -> float:
    """h(x) = g(x) - t*x, the divergence above the asymptotic slope t of g.

    Written as alpha_a log(beta_a/beta_h) + alpha_h - alpha_a
    + f_A log1p(-gamma/(beta_a f_H)), which does not cancel at large x.  h
    decreases on [0, inf): g is convex and its slope tends to t.
    """
    return (
        params.alpha_a * math.log(params.beta_a / params.beta_h)
        + params.alpha_h - params.alpha_a
        + params.rate_a(x) * math.log1p(-params.gamma / (params.beta_a * params.rate_h(x)))
    )


def _stationary_point(params: ParamSet) -> float:
    """x where g' = beta_a log r - beta_h (r - 1) vanishes, r = f_A/f_H.

    It is the rate crossing x* (r = 1) if the common rate there is positive;
    otherwise r is the other root r0 = -W(-c e^-c)/c of log r = c (r - 1),
    c = beta_h/beta_a, with W on branch -1 for c < 1 and branch 0 for c > 1.
    Needs beta_a != beta_h.
    """
    ba, bh, aa, ah = params.beta_a, params.beta_h, params.alpha_a, params.alpha_h
    x_star = params.x_star
    if ba * x_star + aa > 0.0:
        return x_star
    c = bh / ba
    r0 = -lambertw(-c * math.exp(-c), -1 if c < 1.0 else 0).real / c
    return (r0 * ah - aa) / (ba - r0 * bh)


def horizontal_component(params: ParamSet, omega0: int, n: int) -> tuple[float, int]:
    """Lower-bound component from the horizontal majorant; returns (value, z*).

    The value is n*g(z*), z* the smallest integer minimizing the convex g,
    next to its stationary point.  On SP4 (beta_a == beta_h) the horizontal
    majorant is trivial, so the component is 0.
    """
    omega0, n = _initial_population(omega0, n, 1)
    if params.beta_a == params.beta_h:
        return 0.0, 0
    x_min = _stationary_point(params)
    z = 0
    if x_min > 0.0:
        z = math.floor(x_min)
        if _divergence(params, z + 1) < _divergence(params, z):
            z += 1
    return _divergence(params, z) * n, z


def _dtan_line(params: ParamSet) -> tuple[float, float]:
    """d/dy of the tangent line of g at y* = x*, where f_A = f_H =
    gbar/(beta_h - beta_a): -gap^3/gbar * (x - y*), written without dividing
    by gap."""
    gbar = -params.gamma
    gap = params.beta_a - params.beta_h
    return -(gap**2) * (params.alpha_a - params.alpha_h) / gbar, -(gap**3) / gbar


def tangent_derivative_at_ystar(params: ParamSet, omega0: int, n: int) -> float:
    """Closed form of d/dy tangent-component at y* = (alpha_a-alpha_h)/(beta_h-beta_a).

    y* is the positive integer where the two conditional rates coincide on
    SP3d; a vanishing derivative there means the tangent family is flat at
    its zero and strict positivity of the entropy lower bound is not
    guaranteed by the construction.
    """
    return _integrated(_dtan_line(params), n, _occupation(params, omega0, n))


@dataclass(frozen=True, kw_only=True)
class EntropyReport:
    """Entropy values and bound components for one (params, omega0, n)."""

    exact: Optional[float] = None
    upper: Optional[float] = None
    lower: Optional[float] = None
    tan_at_ystar: Optional[float] = None
    best_tan: Optional[float] = None
    best_sec: Optional[float] = None
    horizontal: Optional[float] = None
    y_best: Optional[float] = None
    k_best: Optional[int] = None
    simplified: Optional[float] = None
    degenerate_sp3d: bool = False
    dtan_at_ystar: Optional[float] = None
    case: CaseTag

    def __post_init__(self) -> None:
        for name in ("exact", "upper", "lower", "tan_at_ystar", "best_tan", "best_sec",
                     "horizontal", "simplified", "dtan_at_ystar"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise GWIError(f"entropy {name} is {value}, not a finite double")
        if self.lower is not None and self.upper is not None:
            if _crossed(self.lower, self.upper):
                raise BoundOrderError("entropy lower bound exceeds upper bound")


def exact_entropy(params: ParamSet, omega0: int, n: int) -> float:
    """Exact relative entropy I(P_A,n || P_H,n) on NI u SP1."""
    case = classify(params, 0.5)
    if not case.exactly_computable:
        raise CaseError(f"exact entropy only exists on NI/SP1 (got {case.value}); use the bounds")
    return entropy_report(params, omega0, n).exact


def entropy_upper(params: ParamSet, omega0: int, n: int) -> float:
    """Closed-form upper bound E^U_n for the relative entropy on SP2..SP4."""
    case = classify(params, 0.5)
    if case.exactly_computable:
        raise CaseError(f"case {case.value} has exact entropy; use exact_entropy")
    return entropy_report(params, omega0, n).upper


def entropy_lower(params: ParamSet, omega0: int, n: int) -> EntropyReport:
    """Supremum of the tangent/secant/horizontal entropy lower bounds: the
    report of ``entropy_report`` without its upper bound."""
    case = classify(params, 0.5)
    if case.exactly_computable:
        raise CaseError(f"entropy lower bounds only apply on SP \\ SP1, got {case.value}")
    return replace(entropy_report(params, omega0, n), upper=None)


def entropy_report(params: ParamSet, omega0: int, n: int) -> EntropyReport:
    """Exact entropy (NI/SP1) or the E^L/E^U bound pair (otherwise), in one
    pass: one classification and one expected-population sum S.

    The exact value integrates g itself and the upper bound E^U its majorant
    g(0) + t*x.  Every member of the three lower-bound families is a line l
    evaluated as n*l(mbar) at mbar = S/n, so each supremum is a closed form
    in h = g - t*x: the best tangent t*S + n*h(mbar) at y_best = mbar, the
    best secant t*S + n*[h(k) + (mbar - k)(h(k+1) - h(k))] at k_best = k =
    floor(mbar), and the horizontal component n*min_Z g.  The simplified
    bound max{tan(inf), sec(0), horizontal} is reported alongside.
    """
    case = classify(params, 0.5)
    s = _occupation(params, omega0, n)
    t = _entropy_drift(params)
    aa, ah = params.alpha_a, params.alpha_h
    if case.exactly_computable:
        value = _integrated((aa * t / params.beta_a, t), n, s)
        return EntropyReport(exact=value, upper=value, lower=value, case=case)
    upper = _integrated((aa * math.log(aa / ah) - aa + ah, t), n, s)
    ts = t * s
    y_best = s / n
    k_best = math.floor(y_best)
    h_k = _excess(params, k_best)
    best_tan = ts + n * _excess(params, y_best)
    best_sec = ts + n * (h_k + (y_best - k_best) * (_excess(params, k_best + 1) - h_k))
    horizontal, _z = horizontal_component(params, omega0, n)
    # no finiteness check here: a candidate that overflows to -inf just
    # loses, and the report refuses any value it would keep
    (c0, _t), (d0, d1) = _limit_line(params), _secant_line(params, 0)
    simplified = max(n * c0 + ts, n * d0 + d1 * s, horizontal)
    tan_at_ystar = dtan = None
    if case is CaseTag.SP3D:
        c0, c1 = _tangent_line(params, params.x_star)
        tan_at_ystar = n * c0 + c1 * s
        dtan = _integrated(_dtan_line(params), n, s)
    return EntropyReport(
        upper=upper, lower=max(best_tan, best_sec, horizontal, 0.0), tan_at_ystar=tan_at_ystar,
        best_tan=best_tan, best_sec=best_sec, horizontal=horizontal, y_best=y_best,
        k_best=k_best, simplified=simplified, dtan_at_ystar=dtan, case=case,
        degenerate_sp3d=dtan is not None and bool(abs(dtan) <= 1e-10 * max(1.0, abs(n))),
    )
