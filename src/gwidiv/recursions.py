"""Backbone recursions and recursive Hellinger-integral values and bounds.

The log Hellinger integral between the two path laws up to horizon n is
driven by two coupled scalar recursions a_n, b_n built from an (intercept,
slope) pair that bounds (or equals) the exponent function varphi on the
nonnegative integers.  The linear constellations NI and SP1 admit exact
values; everything else gets a lower bound from the geometric-mean pair and
an upper bound from a family of case-specific linear majorants of phi, of
which the pointwise minimum is reported.  A :class:`Constellation` derives a
(params, lambda)'s case, weights, pairs and fixed points once; the public
functions here and in ``closed_form`` share the last one (``_constellation``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .fixed_point import FixedPointResult, solve_fixed_point
from .params import (
    BoundOrderError,
    CaseError,
    CaseTag,
    GWIError,
    ParamSet,
    _crossed,
    _geometric_mean,
    _initial_population,
    _integer,
    _linear_majorant,
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
    "Constellation",
    "run_recursion",
    "select_coeffs",
    "upper_candidates",
    "exact_log_hellinger",
    "sp3d_log_delta",
    "recursive_log_bounds",
    "log_hellinger_bounds",
]

#: how far below phi a candidate majorant may pass on the lattice
_MAJORANT_TOL = 1e-9

#: lattice points of phi a Constellation keeps for reuse; later ones are streamed
_KEPT = 64

#: the cases where the horizontal majorant of phi is informative
_HUMP_CASES = (CaseTag.SP3A, CaseTag.SP3B, CaseTag.SP3C)

_EXACT_ONLY = "case {} is exactly computable; request CoeffRole.EXACT instead"


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


class RecursionTrace(NamedTuple):
    """a_n, b_1 + ... + b_n (in order), a_1 + ... + a_n (compensated) and
    ``steps``, the steps evaluated: n, or the first k with a_k = a_{k-1},
    after which the n - k repeats join each sum with one rounding."""

    a_n: float
    b_sum: float
    a_sum: float
    steps: int


def _tail(s: float, c: float, r: int, comp: float = 0.0) -> float:
    """s + comp + r*c rounded once: an exact integer sum over the largest of
    the three power-of-two denominators, then one correctly rounded int / int.

    An inf or nan operand gives what r in-order additions of c to s + comp
    give; a result beyond the float range is +-inf.
    """
    if not (math.isfinite(s) and math.isfinite(c) and math.isfinite(comp)):
        return s + comp + c if r else s + comp
    (ns, ds), (nc, dc), (nm, dm) = map(float.as_integer_ratio, (s, c, comp))
    d = max(ds, dc, dm)
    num = ns * (d // ds) + nm * (d // dm) + r * nc * (d // dc)
    try:
        return num / d
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def run_recursion(p: float, q: float, params: ParamSet, lam: float, n: int) -> RecursionTrace:
    """Run a_k = q*exp(a_{k-1}) - beta_lambda, b_k = p*exp(a_{k-1}) - alpha_lambda.

    A scalar fold from a_0 = b_0 = 0 that keeps no sequence.  For q > 0,
    b_k = (p/q) a_k + (p/q) beta_lambda - alpha_lambda exactly.  Once a_k
    equals a_{k-1} every later step repeats step k: the loop stops there and
    adds the n - k repeats to each sum with one rounding, in O(1).
    """
    if type(n) is not int:
        n = _integer("n", n)
    if n < 1:
        raise GWIError("recursion horizon n must be >= 1")
    if p < 0.0 or q < 0.0:
        raise GWIError("recursion coefficients must be nonnegative")
    return _fold(p, q, *map(float, lambda_weights(params, lam)), n)  # validates lambda


def _fold(p: float, q: float, bl: float, al: float, n: int) -> RecursionTrace:
    """``run_recursion`` on checked arguments and float weights bl, al."""
    # Python floats throughout: numpy scalars would warn on the inf - inf below.
    p, q = float(p), float(q)
    a = b_sum = a_sum = comp = 0.0
    exp = math.exp
    for k in range(1, n + 1):
        # the a_1 > 0 branch diverges doubly exponentially; saturate at inf.
        # q = 0 needs no branch: e stays finite and 0*e - beta_lambda is exact
        e = exp(a) if a < 709.0 else math.inf
        prev, a = a, q * e - bl
        b_sum += p * e - al if p > 0.0 else -al
        # TwoSum: comp collects the exact rounding error of each addition
        t = a_sum + a
        z = t - a_sum
        comp += (a_sum - (t - z)) + (a - z)
        a_sum = t
        if a == prev:
            b_sum = _tail(b_sum, p * e - al if p > 0.0 else -al, n - k)
            # zeros add exactly; a saturated a_sum stays what it is
            if a != 0.0 and math.isfinite(a_sum):
                a_sum, comp = _tail(a_sum, a, n - k, comp), 0.0
            break
    # once a saturates, a_sum is inf and comp nan
    return RecursionTrace(a, b_sum, a_sum + comp if math.isfinite(a_sum) else a_sum, k)


def _floor_x_max(params: ParamSet, lam: float) -> int:
    """floor of the maximizer of the concave phi on [0, inf): 0 when
    phi'(0) <= 0, else of the positive root of phi'(x) = 0 (SP3b).

    Bisection; it stops once floor(lo) == floor(hi), since every later
    midpoint stays inside [lo, hi] and the floor is then fixed.  When
    phi'(0) <= 0, phi' <= 0 everywhere, so the first midpoint fixes it at 0.
    """
    lo, hi = 0.0, 1.0
    while phi_eval(params, lam, hi).phi_prime > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise GWIError("failed to bracket the maximum of phi")
    while hi - lo > 1e-12 and math.floor(lo) != math.floor(hi):
        mid = 0.5 * (lo + hi)
        if phi_eval(params, lam, mid).phi_prime > 0.0:
            lo = mid
        else:
            hi = mid
    return math.floor(0.5 * (lo + hi))


class Constellation:
    """One (params, lambda): its case, lambda weights and coefficient pairs.

    The constructor validates lambda, classifies, and sets the weights and
    the geometric-mean pair ``star`` = (min(p_E, alpha_lambda), min(q_E,
    beta_lambda)), role EXACT on NI/SP1 and LOWER elsewhere; the clamp keeps
    weighted AM-GM where the float geometric mean rounds above the weight.
    Majorants of phi are built, and checked on the lattice, on first use.
    The SP3b/SP3c case pair and the horizontal pair read one lattice peak,
    ``_peak``, found once per instance; ``fixed_point`` solves once per slope.
    """

    def __init__(self, params: ParamSet, lam: float) -> None:
        self.params = params
        self.lam = validate_order(lam)
        self.case = classify(params, self.lam)
        self.weights = bl, al = lambda_weights(params, self.lam)
        self._fold_weights = float(bl), float(al)
        role = CoeffRole.EXACT if self.case.exactly_computable else CoeffRole.LOWER
        p_e = _geometric_mean(params.alpha_a, params.alpha_h, self.lam)
        q_e = _geometric_mean(params.beta_a, params.beta_h, self.lam)
        self.star = CoefficientPair(min(p_e, al), min(q_e, bl), role, "geometric-mean")
        self._fixed_points: dict[tuple, FixedPointResult] = {}
        self._points: list[tuple[float, float]] = []

    def fixed_point(self, pair: CoefficientPair) -> FixedPointResult:
        """The fixed point of x -> q*e^x - beta_lambda, solved once per value and
        type of ``pair.q``; a slope without one raises on every call."""
        key = (pair.q, type(pair.q))
        if key not in self._fixed_points:
            bl = self.weights[0]
            try:
                self._fixed_points[key] = solve_fixed_point(pair.q, bl)
            except GWIError as exc:
                raise CaseError(
                    "closed-form bounds need a slope q < beta_lambda; the "
                    f"{pair.label} pair has q = {pair.q:.6g} (beta_lambda = {bl:.6g})"
                ) from exc
        return self._fixed_points[key]

    @cached_property
    def asymptote(self) -> CoefficientPair:
        """The affine asymptote of varphi as x -> infinity (not checked here)."""
        params, lam = self.params, self.lam
        ratio = params.beta_a / params.beta_h
        p = _linear_majorant(params.alpha_a, params.alpha_h, ratio, lam)
        return CoefficientPair(p=p, q=self.star.q, role=CoeffRole.ASYMPTOTE, label="asymptote")

    @cached_property
    def upper(self) -> CoefficientPair:
        """The case pair: ``star`` on NI/SP1, the trivial pair on SP3d/SP4 and
        a checked majorant of phi on SP2/SP3a/SP3b/SP3c."""
        params, case = self.params, self.case
        if case.exactly_computable:
            return self.star
        if case in (CaseTag.SP3D, CaseTag.SP4):
            # only the trivial majorant exists under goal (Gc)
            bl, al = self.weights
            return CoefficientPair(p=al, q=bl, role=CoeffRole.UPPER, label="trivial")
        if case in (CaseTag.SP3B, CaseTag.SP3C):
            return self._require_majorant(self._secant_construction())
        # secant(0,1) from p = varphi(0) (alpha itself on SP2); on SP3a this is
        # the discrete tangent-or-secant through x=1 with the smallest admissible
        # intercept, which always satisfies the x=2 domination constraint
        p = params.alpha_a if case is CaseTag.SP2 else self.star.p
        q = _geometric_mean(params.alpha_a + params.beta_a, params.alpha_h + params.beta_h,
                            self.lam) - p
        return self._require_majorant(
            CoefficientPair(p=p, q=q, role=CoeffRole.UPPER, label="secant(0,1)"))

    @cached_property
    def uppers(self) -> tuple[CoefficientPair, ...]:
        """Every non-trivial checked upper pair: case pair, asymptote, horizontal."""
        case = self.case
        if case.exactly_computable:
            raise CaseError(_EXACT_ONLY.format(case.value))
        pairs = [self.upper] if case in (CaseTag.SP2, *_HUMP_CASES) else []
        if case is not CaseTag.SP4:
            pairs.append(self._require_majorant(self.asymptote))
        if case in _HUMP_CASES:
            pairs.append(self._horizontal())
        return tuple(pairs)

    def _lattice(self, start: int = 0) -> Iterator[tuple[float, float]]:
        """Yield (phi(x), varphi(x)) for x = start, start + 1, ... without end.

        The arithmetic is exactly that of :func:`phi_eval` and
        :func:`varphi_value`, so every value is bit-identical to theirs.
        """
        params, lam, (bl, al) = self.params, self.lam, self.weights
        beta_a, beta_h, alpha_a, alpha_h = (params.beta_a, params.beta_h,
                                            params.alpha_a, params.alpha_h)
        lam_h, linear = 1.0 - lam, params.gamma == 0.0
        p_lin, q_lin = self.star.p - al, self.star.q - bl
        x = float(start)
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

    def _walk(self, start: int = 0) -> Iterator[tuple[float, float]]:
        """:meth:`_lattice` from ``start``, the points below ``_KEPT`` evaluated once and kept."""
        points = self._points
        if start < _KEPT:
            yield from islice(points, start, None)
            for point in islice(self._lattice(len(points)), _KEPT - len(points)):
                points.append(point)
                if len(points) > start:
                    yield point
        yield from self._lattice(max(start, _KEPT))

    @cached_property
    def _peak(self) -> tuple[int, float, float]:
        """(j, phi(j), phi(j+1)), j the floor of phi's continuous maximizer:
        floor(x*) on SP3c, where the rates cross, 0 on SP3a, where classify
        found phi'(0) <= 0, and ``_floor_x_max`` on SP3b.  By concavity phi's
        lattice maximum is phi(j) or phi(j+1).
        """
        params, lam, case = self.params, self.lam, self.case
        if case is CaseTag.SP3B:
            j = _floor_x_max(params, lam)
        else:
            j = math.floor(params.x_star) if case is CaseTag.SP3C else 0
        scan = self._walk(j)
        return j, next(scan)[0], next(scan)[0]

    def _secant_construction(self) -> CoefficientPair:
        """Canonical upper pair for hump-shaped phi (SP3b, SP3c).

        The crucial lattice points are j, j+1 of ``_peak`` (j+1, j+2 when
        phi(j) <= phi(j+1)).  The secant through them majorizes phi outside
        that interval by concavity; if its intercept is positive, the flatter
        line through (0, 0) and (j, phi(j)) is used instead.
        """
        bl, al = self.weights
        j, phi_j, phi_j1 = self._peak
        if phi_j <= phi_j1:
            j += 1
            phi_j, phi_j1 = phi_j1, next(self._walk(j + 1))[0]
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

    def _horizontal(self) -> CoefficientPair:
        """The checked horizontal line through phi's lattice maximum: the
        point z* of ``_peak`` with the larger value, j on a tie."""
        j, phi_j, phi_j1 = self._peak
        z, top = (j, phi_j) if phi_j >= phi_j1 else (j + 1, phi_j1)
        bl, al = self.weights
        return self._require_majorant(CoefficientPair(
            p=top + al, q=bl, role=CoeffRole.HORIZONTAL, label=f"horizontal(z*={z})"))

    def _require_majorant(self, pair: CoefficientPair) -> CoefficientPair:
        """``pair``, after an explicit lattice check that p + q*x >= varphi(x)
        on {0, ..., X_check}.

        Beyond the point where the candidate line dominates the asymptote of
        varphi, concavity makes the finite check sufficient.
        """
        bl, al = self.weights
        r, s = pair.p - al, pair.q - bl
        r_t, s_t = self.asymptote.p - al, self.asymptote.q - bl
        if s < s_t - 1e-12:
            raise GWIError(f"slope of {pair.label} pair below the asymptote slope")
        if abs(s - s_t) <= 1e-12:
            if r < r_t - _MAJORANT_TOL:
                raise GWIError(f"intercept of {pair.label} pair below the asymptote intercept")
            x_check = 2
        else:
            x_check = max(2, math.ceil((r_t - r) / (s - s_t)) + 1)
        for x, (phi, _) in zip(range(x_check + 1), self._walk()):
            if phi > r + s * x + _MAJORANT_TOL:
                raise GWIError(f"{pair.label} pair fails to dominate phi at x={x}")
        return pair

    def log_delta(self) -> float:
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
        if self.case is not CaseTag.SP3D:
            raise CaseError(f"separation constant only defined on SP3d, got {self.case.value}")
        scan = self._walk()
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


_memo: Optional[Constellation] = None


def _constellation(params: ParamSet, lam: float) -> Constellation:
    """Constellation(params, lam) from a one-slot memo that hits only on this
    very ParamSet object (an equal one may hold numpy floats or -0.0, and so
    give results of another type) and the same validated lambda."""
    global _memo
    lam = validate_order(lam)
    c = _memo
    if c is None or c.params is not params or c.lam != lam:
        c = _memo = Constellation(params, lam)
    return c


def select_coeffs(params: ParamSet, lam: float, role: CoeffRole) -> CoefficientPair:
    """Case-adapted coefficient selection for the requested role.

    Raises :class:`CaseError` when the role is incompatible with the case
    (exact pairs exist only on NI/SP1, bound pairs only elsewhere, the
    asymptote degenerates on SP4 and the horizontal majorant is informative
    only on SP3a/SP3b/SP3c).
    """
    c = _constellation(params, lam)
    case = c.case
    if role is CoeffRole.EXACT:
        if not case.exactly_computable:
            raise CaseError(f"exact coefficients only exist on NI/SP1, case is {case.value}")
        return c.star
    if case.exactly_computable:
        raise CaseError(_EXACT_ONLY.format(case.value))
    if role is CoeffRole.LOWER:
        return c.star
    if role is CoeffRole.ASYMPTOTE:
        if case is CaseTag.SP4:
            raise CaseError("asymptote pair degenerates to the trivial bound on SP4")
        return c._require_majorant(c.asymptote)
    if role is CoeffRole.HORIZONTAL:
        if case not in _HUMP_CASES:
            raise CaseError(f"horizontal majorant is trivial on {case.value}")
        return c._horizontal()
    return c.upper


def upper_candidates(params: ParamSet, lam: float) -> list[CoefficientPair]:
    """All non-trivial upper-pair constructions applicable to the case."""
    return list(_constellation(params, lam).uppers)


@dataclass(frozen=True)
class LogBoundReport:
    """Log-scale Hellinger report: lower/upper bounds, exact value if any."""

    log_lower: float
    log_upper: float
    log_exact: Optional[float]
    method: str
    case: CaseTag

    def __post_init__(self) -> None:
        for name in ("log_lower", "log_upper", "log_exact"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise GWIError(f"{name} is {value}, not a finite double")
        if self.log_upper > 0.0:
            raise GWIError("log_upper must be <= 0 (H <= 1)")
        if _crossed(self.log_lower, self.log_upper):
            raise BoundOrderError(
                f"log_lower {self.log_lower!r} exceeds log_upper {self.log_upper!r}")
        if self.log_exact is not None:
            if not self.log_lower <= self.log_exact <= self.log_upper:
                raise GWIError("exact value must lie between the bounds")


def _log_end(pair: CoefficientPair, c: Constellation, omega0: int, n: int) -> float:
    """log of exp{a_n*omega0 + sum_{k<=n} b_k} for ``pair`` (no cutoff at 1)."""
    trace = _fold(pair.p, pair.q, *c._fold_weights, n)
    return trace.a_n * omega0 + trace.b_sum


def _exact(c: Constellation, omega0: int, n: int) -> float:
    """The exact log value on checked arguments (n >= 0); refuses a value
    beyond the double range."""
    if n == 0:
        return 0.0
    trace = _fold(c.star.p, c.star.q, *c._fold_weights, n)
    value = trace.a_n * omega0
    # the immigration term vanishes on NI, where 0 * a_sum may be 0 * -inf
    if not c.params.no_immigration:
        value += c.params.alpha_a / c.params.beta_a * trace.a_sum
    if not math.isfinite(value):
        raise GWIError(f"log_exact is {value}, not a finite double")
    return value


def _report(c: Constellation, omega0: int, n: int) -> LogBoundReport:
    """The report of :func:`log_hellinger_bounds` on checked arguments (n >= 0)."""
    if n == 0:
        return LogBoundReport(log_lower=0.0, log_upper=0.0, log_exact=0.0, method="horizon-0",
                              case=c.case)
    if c.case.exactly_computable:
        value = _exact(c, omega0, n)
        return LogBoundReport(log_lower=value, log_upper=min(value, 0.0), log_exact=value,
                              method="exact:geometric-mean", case=c.case)
    log_lower = _log_end(c.star, c, omega0, n)
    best_upper, best_label = 0.0, "cutoff(1)"
    for pair in c.uppers:
        value = _log_end(pair, c, omega0, n)
        if value < best_upper:
            best_upper, best_label = value, pair.label
    if c.case is CaseTag.SP3D:
        value = (n // 2) * c.log_delta()
        if value < best_upper:
            best_upper, best_label = value, "separation-delta"
    return LogBoundReport(log_lower=log_lower, log_upper=best_upper, log_exact=None,
                          method=f"lower:geometric-mean upper:{best_label}", case=c.case)


def exact_log_hellinger(params: ParamSet, lam: float, omega0: int, n: int) -> float:
    """Recursively computed exact log Hellinger integral on NI u SP1.

    Returns a_n*omega0 + (alpha_a/beta_a) * sum_{k<=n} a_k with the exact
    geometric-mean slope; the second term vanishes on NI.  Horizon n = 0
    gives 0 (the two restricted laws coincide).
    """
    c = _constellation(params, lam)
    if not c.case.exactly_computable:
        raise CaseError(f"exact values only exist on NI/SP1 (got {c.case.value}); "
                        "use recursive_log_bounds")
    return _exact(c, *_initial_population(omega0, n, 0))


def sp3d_log_delta(params: ParamSet, lam: float) -> float:
    """log of the SP3d separation constant delta < 1 (see :meth:`Constellation.log_delta`)."""
    return _constellation(params, lam).log_delta()


def recursive_log_bounds(params: ParamSet, lam: float, omega0: int, n: int) -> LogBoundReport:
    """Recursive lower/upper log bounds for the Hellinger integral on SP2..SP4.

    The lower bound comes from the geometric-mean pair; the upper bound is
    the pointwise minimum over every applicable construction (case pair,
    asymptote pair, horizontal pair, the SP3d separation bound) and the
    generally valid bound log 1 = 0.
    """
    c = _constellation(params, lam)
    if c.case.exactly_computable:
        raise CaseError(f"case {c.case.value} admits exact values; use exact_log_hellinger")
    return _report(c, *_initial_population(omega0, n, 1))


def log_hellinger_bounds(params: ParamSet, lam: float, omega0: int, n: int) -> LogBoundReport:
    """Exact value (NI/SP1) or recursive bounds (otherwise), as one report.

    Horizon 0 gives the trivial exact report for every case (the restricted
    laws coincide, H_0 = 1); omega0 must still be >= 1.
    """
    return _report(_constellation(params, lam), *_initial_population(omega0, n, 0))
