"""Backbone recursions and recursive Hellinger-integral values and bounds.

The log Hellinger integral between the two path laws up to horizon n is
driven by two coupled scalar recursions a_n, b_n built from an (intercept,
slope) pair that bounds (or equals) the exponent function varphi on the
nonnegative integers.  The linear constellations NI and SP1 admit exact
values; everything else gets a lower bound from the geometric-mean pair and
an upper bound from a family of case-specific linear majorants of phi, of
which the pointwise minimum is reported.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .params import (
    CaseError,
    CaseTag,
    GWIError,
    ParamSet,
    _geometric_mean,
    classify,
    lambda_weights,
    phi_eval,
    validate_order,
)

__all__ = [
    "CoeffRole",
    "CoefficientPair",
    "RecursionTrace",
    "LogBoundReport",
    "run_recursion",
    "select_coeffs",
    "upper_candidates",
    "log_bound_sequence",
    "exact_log_hellinger",
    "sp3d_log_delta",
    "recursive_log_bounds",
    "log_hellinger_bounds",
]

#: cases that only admit bounds (complement of NI u SP1)
BOUND_CASES = (CaseTag.SP2, CaseTag.SP3A, CaseTag.SP3B, CaseTag.SP3C, CaseTag.SP3D, CaseTag.SP4)


class CoeffRole(enum.Enum):
    EXACT = "exact"
    LOWER = "lower"
    UPPER = "upper"
    ASYMPTOTE = "asymptote"
    HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class CoefficientPair:
    """(intercept p, slope q) of a linear bound p + q*x for varphi.

    ``role`` records which construction produced the pair; ``label`` is a
    short provenance string surfaced in reports.
    """

    p: float
    q: float
    role: CoeffRole
    label: str = ""

    def __post_init__(self) -> None:
        if self.p < 0.0 or self.q < 0.0:
            raise GWIError(f"coefficients must be nonnegative, got ({self.p}, {self.q})")


@dataclass(frozen=True)
class RecursionTrace:
    """a[0..n] and b[0..n] with a[0] = b[0] = 0."""

    a: np.ndarray
    b: np.ndarray


def run_recursion(p: float, q: float, params: ParamSet, lam: float, n: int) -> RecursionTrace:
    """Run a_k = q*exp(a_{k-1}) - beta_lambda, b_k = p*exp(a_{k-1}) - alpha_lambda.

    For q > 0 the b-sequence satisfies the linear interrelation
    b_k = (p/q) a_k + (p/q) beta_lambda - alpha_lambda exactly.
    """
    validate_order(lam)
    if n < 1:
        raise GWIError("recursion horizon n must be >= 1")
    if p < 0.0 or q < 0.0:
        raise GWIError("recursion coefficients must be nonnegative")
    bl, al = lambda_weights(params, lam)
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    for k in range(1, n + 1):
        # the a_1 > 0 branch diverges doubly exponentially; saturate at inf
        e = math.exp(a[k - 1]) if a[k - 1] < 709.0 else math.inf
        a[k] = q * e - bl if q > 0.0 else -bl
        b[k] = p * e - al if p > 0.0 else -al
    return RecursionTrace(a=a, b=b)


def _exact_pair(params: ParamSet, lam: float) -> CoefficientPair:
    return CoefficientPair(
        p=_geometric_mean(params.alpha_a, params.alpha_h, lam),
        q=_geometric_mean(params.beta_a, params.beta_h, lam),
        role=CoeffRole.EXACT,
        label="geometric-mean",
    )


def asymptote_pair(params: ParamSet, lam: float) -> CoefficientPair:
    """The affine asymptote of varphi as x -> infinity (a valid majorant)."""
    ratio = params.beta_a / params.beta_h
    p = lam * params.alpha_a * ratio ** (lam - 1.0) + (1.0 - lam) * params.alpha_h * ratio**lam
    q = _geometric_mean(params.beta_a, params.beta_h, lam)
    return CoefficientPair(p=p, q=q, role=CoeffRole.ASYMPTOTE, label="asymptote")


def _floor_x_max(params: ParamSet, lam: float, tol: float = 1e-12) -> int:
    """floor of the positive root of phi'(x) = 0 for hump-shaped phi (SP3b).

    Bisection; it stops once floor(lo) == floor(hi), since every later
    midpoint stays inside [lo, hi] and the floor is then fixed.
    """
    lo, f_lo = 0.0, phi_eval(params, lam, 0.0).phi_prime
    if f_lo <= 0.0:
        raise GWIError("phi is not increasing at 0; no interior maximum to find")
    hi = 1.0
    while phi_eval(params, lam, hi).phi_prime > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise GWIError("failed to bracket the maximum of phi")
    while hi - lo > tol and math.floor(lo) != math.floor(hi):
        mid = 0.5 * (lo + hi)
        if phi_eval(params, lam, mid).phi_prime > 0.0:
            lo = mid
        else:
            hi = mid
    return math.floor(0.5 * (lo + hi))


def _phi_lattice(params: ParamSet, lam: float) -> Iterator[tuple[float, float]]:
    """Yield (phi(x), varphi(x)) for x = 0, 1, 2, ... without end.

    The arithmetic is exactly that of :func:`phi_eval` and
    :func:`varphi_value`, so every value is bit-identical to theirs; the
    order check, the lambda weights and the gamma branch are done once.
    """
    lam = validate_order(lam)
    bl, al = lambda_weights(params, lam)
    lam_h = 1.0 - lam
    beta_a, beta_h, alpha_a, alpha_h = params.beta_a, params.beta_h, params.alpha_a, params.alpha_h
    linear = params.gamma == 0.0
    if linear:
        p_lin = _geometric_mean(alpha_a, alpha_h, lam) - al
        q_lin = _geometric_mean(beta_a, beta_h, lam) - bl
    x = 0.0
    while True:
        fa = beta_a * x + alpha_a
        fh = beta_h * x + alpha_h
        if fa == 0.0 or fh == 0.0:
            varphi = 0.0
        else:
            varphi = math.exp(lam * math.log(fa) + lam_h * math.log(fh))
        phi = p_lin + q_lin * x if linear else varphi - (al + bl * x)
        yield phi, varphi
        x += 1.0


def lattice_argmax_phi(params: ParamSet, lam: float) -> int:
    """argmax of phi over the nonnegative integers, ties toward the smaller.

    Needs beta_a != beta_h so that phi eventually decreases; strict concavity
    (gamma != 0) makes the first non-increase the stopping signal.
    """
    if params.beta_a == params.beta_h:
        raise CaseError("phi has no lattice maximum when beta_a == beta_h")
    scan = _phi_lattice(params, lam)
    val, _ = next(scan)
    for k, (nxt, _) in enumerate(scan):
        if nxt <= val:
            return k
        val = nxt
        if k >= 10**7:  # unreachable for valid constellations
            raise GWIError("lattice argmax scan did not terminate")


def _secant_construction(params: ParamSet, lam: float, case: CaseTag) -> CoefficientPair:
    """Canonical upper pair for hump-shaped phi (SP3b, SP3c).

    The crucial lattice points are j, j+1 around the continuous maximizer.
    The secant through them majorizes phi outside [j, j+1] by concavity; if
    its intercept is positive, the flatter line through (0, 0) and
    (j, phi(j)) is used instead.
    """
    bl, al = lambda_weights(params, lam)
    if case is CaseTag.SP3C:
        j = math.floor((params.alpha_h - params.alpha_a) / (params.beta_a - params.beta_h))
    elif phi_eval(params, lam, 0.0).phi_prime <= 0.0:
        # SP3a/SP3b boundary within float noise: the maximum sits at 0
        j = 0
    else:
        j = _floor_x_max(params, lam)
    phi_j = phi_eval(params, lam, float(j)).phi
    phi_j1 = phi_eval(params, lam, float(j + 1)).phi
    if phi_j <= phi_j1:
        j += 1
        phi_j, phi_j1 = phi_j1, phi_eval(params, lam, float(j + 1)).phi
    slope_sec = phi_j1 - phi_j
    intercept_sec = phi_j - j * slope_sec
    if intercept_sec <= 0.0:
        r, s = intercept_sec, slope_sec
        label = f"secant({j},{j + 1})"
    else:
        # line through (0, 0) and (j, phi(j)); j >= 1 here since phi(0) <= 0
        r, s = 0.0, phi_j / j
        label = f"chord(0,{j})"
    return CoefficientPair(p=r + al, q=s + bl, role=CoeffRole.UPPER, label=label)


def select_coeffs(params: ParamSet, lam: float, role: CoeffRole) -> CoefficientPair:
    """Case-adapted coefficient selection for the requested role.

    Raises :class:`CaseError` when the role is incompatible with the case
    (exact pairs exist only on NI/SP1, bound pairs only elsewhere, the
    asymptote degenerates on SP4 and the horizontal majorant is informative
    only on SP3a/SP3b/SP3c).
    """
    lam = validate_order(lam)
    case = classify(params, lam)
    bl, al = lambda_weights(params, lam)

    if role is CoeffRole.EXACT:
        if not case.exactly_computable:
            raise CaseError(f"exact coefficients only exist on NI/SP1, case is {case.value}")
        return _exact_pair(params, lam)

    if case.exactly_computable:
        raise CaseError(
            f"case {case.value} is exactly computable; request CoeffRole.EXACT instead"
        )

    if role is CoeffRole.LOWER:
        pair = _exact_pair(params, lam)
        return CoefficientPair(p=pair.p, q=pair.q, role=CoeffRole.LOWER, label="geometric-mean")

    if role is CoeffRole.ASYMPTOTE:
        if case is CaseTag.SP4:
            raise CaseError("asymptote pair degenerates to the trivial bound on SP4")
        pair = asymptote_pair(params, lam)
        _require_majorant(params, lam, pair)
        return pair

    if role is CoeffRole.HORIZONTAL:
        if case not in (CaseTag.SP3A, CaseTag.SP3B, CaseTag.SP3C):
            raise CaseError(f"horizontal majorant is trivial on {case.value}")
        z = lattice_argmax_phi(params, lam)
        pair = CoefficientPair(
            p=phi_eval(params, lam, float(z)).phi + al,
            q=bl,
            role=CoeffRole.HORIZONTAL,
            label=f"horizontal(z*={z})",
        )
        _require_majorant(params, lam, pair)
        return pair

    # role is UPPER
    if case is CaseTag.SP2:
        alpha = params.alpha_a
        pair = CoefficientPair(
            p=alpha,
            q=_geometric_mean(alpha + params.beta_a, alpha + params.beta_h, lam) - alpha,
            role=CoeffRole.UPPER,
            label="secant(0,1)",
        )
    elif case is CaseTag.SP3A:
        # discrete tangent-or-secant through x=1 with the smallest admissible
        # intercept; this choice always satisfies the x=2 domination constraint
        p = _geometric_mean(params.alpha_a, params.alpha_h, lam)
        q = (
            _geometric_mean(params.alpha_a + params.beta_a, params.alpha_h + params.beta_h, lam)
            - p
        )
        pair = CoefficientPair(p=p, q=q, role=CoeffRole.UPPER, label="secant(0,1)")
    elif case in (CaseTag.SP3B, CaseTag.SP3C):
        pair = _secant_construction(params, lam, case)
    else:  # SP3d, SP4: only the trivial majorant exists under goal (Gc)
        pair = CoefficientPair(p=al, q=bl, role=CoeffRole.UPPER, label="trivial")
        return pair
    _require_majorant(params, lam, pair)
    return pair


def _require_majorant(params: ParamSet, lam: float, pair: CoefficientPair, tol: float = 1e-9) -> None:
    """Explicit lattice check that p + q*x >= varphi(x) on {0, ..., X_check}.

    Beyond the point where the candidate line dominates the asymptote of
    varphi, concavity makes the finite check sufficient.
    """
    bl, al = lambda_weights(params, lam)
    r = pair.p - al
    s = pair.q - bl
    asym = asymptote_pair(params, lam)
    r_t, s_t = asym.p - al, asym.q - bl
    if s < s_t - 1e-12:
        raise GWIError(f"slope of {pair.label} pair below the asymptote slope")
    if abs(s - s_t) <= 1e-12:
        if r < r_t - tol:
            raise GWIError(f"intercept of {pair.label} pair below the asymptote intercept")
        x_check = 2
    else:
        x_check = max(2, math.ceil((r_t - r) / (s - s_t)) + 1)
    for x, (phi, _) in zip(range(x_check + 1), _phi_lattice(params, lam)):
        if phi > r + s * x + tol:
            raise GWIError(f"{pair.label} pair fails to dominate phi at x={x}")


def upper_candidates(params: ParamSet, lam: float) -> list[CoefficientPair]:
    """All non-trivial upper-pair constructions applicable to the case."""
    case = classify(params, lam)
    candidates: list[CoefficientPair] = []
    if case in (CaseTag.SP2, CaseTag.SP3A, CaseTag.SP3B, CaseTag.SP3C):
        candidates.append(select_coeffs(params, lam, CoeffRole.UPPER))
    if case is not CaseTag.SP4:
        candidates.append(select_coeffs(params, lam, CoeffRole.ASYMPTOTE))
    if case in (CaseTag.SP3A, CaseTag.SP3B, CaseTag.SP3C):
        candidates.append(select_coeffs(params, lam, CoeffRole.HORIZONTAL))
    return candidates


def log_bound_sequence(
    pair: CoefficientPair, params: ParamSet, lam: float, omega0: int, n: int
) -> np.ndarray:
    """log of exp{a_k*omega0 + sum_{i<=k} b_i} for k = 0..n (no cutoff at 1)."""
    if omega0 < 1:
        raise GWIError("initial population omega0 must be >= 1")
    trace = run_recursion(pair.p, pair.q, params, lam, n)
    cum_b = np.concatenate(([0.0], np.cumsum(trace.b[1:])))
    return trace.a * omega0 + cum_b


@dataclass(frozen=True)
class LogBoundReport:
    """Log-scale Hellinger report: lower/upper bounds, exact value if any."""

    log_lower: float
    log_upper: float
    log_exact: Optional[float]
    method: str
    case: CaseTag

    def __post_init__(self) -> None:
        if self.log_upper > 0.0:
            raise GWIError("log_upper must be <= 0 (H <= 1)")
        if self.log_exact is not None:
            if not self.log_lower <= self.log_exact <= self.log_upper:
                raise GWIError("exact value must lie between the bounds")


def exact_log_hellinger(params: ParamSet, lam: float, omega0: int, n: int) -> float:
    """Recursively computed exact log Hellinger integral on NI u SP1.

    Returns a_n*omega0 + (alpha_a/beta_a) * sum_{k<=n} a_k with the exact
    geometric-mean slope; the second term vanishes on NI.  Horizon n = 0
    gives 0 (the two restricted laws coincide).
    """
    case = classify(params, lam)
    if not case.exactly_computable:
        raise CaseError(
            f"exact values only exist on NI/SP1 (got {case.value}); "
            "use recursive_log_bounds"
        )
    if omega0 < 1:
        raise GWIError("initial population omega0 must be >= 1")
    if n < 0:
        raise GWIError("horizon n must be >= 0")
    if n == 0:
        return 0.0
    pair = _exact_pair(params, lam)
    trace = run_recursion(pair.p, pair.q, params, lam, n)
    tail = params.alpha_a / params.beta_a
    return float(trace.a[n] * omega0 + tail * trace.a[1:].sum())


def sp3d_log_delta(params: ParamSet, lam: float) -> float:
    """log of the SP3d separation constant delta < 1.

    delta = sup over integer x of exp(g(x)), g(x) = phi(x) - eps*exp(-varphi(x))
    with eps = 1 - exp(phi(0)); the Hellinger integral then obeys
    H_n <= delta^(floor(n/2)).

    g is concave on [0, inf): phi is concave, and -exp(-v) is concave and
    nondecreasing in the concave varphi.  So once g(x) < best - margin for
    the running maximum best, no later lattice point exceeds best, and the
    scan stops (at any x; the crossing point x* plays no part).  The margin
    1e-9*max(1, varphi(x), |best|) is far above the rounding error of g, a
    few ulps of max(1, varphi), so best is also the float a scan over every
    lattice point would return.  The scan gives up after 10^7 points.
    """
    case = classify(params, lam)
    if case is not CaseTag.SP3D:
        raise CaseError(f"separation constant only defined on SP3d, got {case.value}")
    scan = _phi_lattice(params, lam)
    phi_0, varphi_0 = next(scan)
    eps = 1.0 - math.exp(phi_0)
    best = phi_0 - eps * math.exp(-varphi_0)
    for x, (phi_x, varphi_x) in enumerate(scan, start=1):
        g = phi_x - eps * math.exp(-varphi_x)
        if g > best:
            best = g
        elif g < best - 1e-9 * max(1.0, varphi_x, abs(best)):
            return best
        if x >= 10**7:
            raise GWIError("separation-constant scan did not terminate")


def recursive_log_bounds(params: ParamSet, lam: float, omega0: int, n: int) -> LogBoundReport:
    """Recursive lower/upper log bounds for the Hellinger integral on SP2..SP4.

    The lower bound comes from the geometric-mean pair; the upper bound is
    the pointwise minimum over every applicable construction (case pair,
    asymptote pair, horizontal pair, the SP3d separation bound) and the
    generally valid bound log 1 = 0.
    """
    lam = validate_order(lam)
    case = classify(params, lam)
    if case.exactly_computable:
        raise CaseError(
            f"case {case.value} admits exact values; use exact_log_hellinger"
        )
    if n < 1:
        raise GWIError("horizon n must be >= 1 for bounds")
    lower_pair = select_coeffs(params, lam, CoeffRole.LOWER)
    log_lower = float(log_bound_sequence(lower_pair, params, lam, omega0, n)[n])

    best_upper, best_label = 0.0, "cutoff(1)"
    for pair in upper_candidates(params, lam):
        value = float(log_bound_sequence(pair, params, lam, omega0, n)[n])
        if value < best_upper:
            best_upper, best_label = value, pair.label
    if case is CaseTag.SP3D:
        value = (n // 2) * sp3d_log_delta(params, lam)
        if value < best_upper:
            best_upper, best_label = value, "separation-delta"

    return LogBoundReport(
        log_lower=log_lower,
        log_upper=best_upper,
        log_exact=None,
        method=f"lower:geometric-mean upper:{best_label}",
        case=case,
    )


def log_hellinger_bounds(params: ParamSet, lam: float, omega0: int, n: int) -> LogBoundReport:
    """Exact value (NI/SP1) or recursive bounds (otherwise), as one report.

    Horizon 0 gives the trivial exact report for every case (the restricted
    laws coincide, H_0 = 1).
    """
    case = classify(params, lam)
    if n == 0:
        return LogBoundReport(
            log_lower=0.0, log_upper=0.0, log_exact=0.0, method="horizon-0", case=case
        )
    if case.exactly_computable:
        value = exact_log_hellinger(params, lam, omega0, n)
        return LogBoundReport(
            log_lower=value,
            log_upper=min(value, 0.0),
            log_exact=value,
            method="exact:geometric-mean",
            case=case,
        )
    return recursive_log_bounds(params, lam, omega0, n)
