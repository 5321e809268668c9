"""Parameter constellations, case classification and the phi machinery.

Two Galton-Watson processes with immigration are compared: offspring is
Poisson(beta_a) under the alternative and Poisson(beta_h) under the
hypothesis, immigration is Poisson(alpha_a) / Poisson(alpha_h).  Everything
downstream (recursive Hellinger values, closed-form bounds, entropy bounds)
branches on which constellation the four parameters form, so classification
has to be deterministic; derived-quantity ties are broken with an absolute
tolerance.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "GWIError",
    "CaseError",
    "AdmissibilityError",
    "BoundOrderError",
    "RATIO_TOL",
    "CaseTag",
    "ParamSet",
    "LambdaWeights",
    "validate_order",
    "lambda_weights",
    "classify",
    "case_details",
    "phi0_prime",
    "phi_eval",
    "varphi_value",
    "PhiDerivatives",
    "geometric_mean_gap",
]

#: absolute tolerance for derived-quantity ties (ratio equality, integer test)
RATIO_TOL = 1e-12

#: the largest finite double, sys.float_info.max: the limit of omega0 and n
_DOUBLE_MAX = 1.7976931348623157e308

#: rounding allowance of the bound reports' order check lower <= upper: this
#: share of max(1, |lower|, |upper|), as in perfbench/checks.py
ORDER_ALLOWANCE = 1e-12


class GWIError(ValueError):
    """Invalid input for the GWI divergence machinery."""


class CaseError(GWIError):
    """Operation requested on a parameter constellation it does not cover."""


class AdmissibilityError(GWIError):
    """Approximation step m outside the admissible index set."""


class BoundOrderError(GWIError):
    """A report's lower bound came out above its upper bound: a library fault."""


class CaseTag(enum.Enum):
    """Disjoint partition of valid parameter constellations.

    NI is the no-immigration family; SP1 is the strictly positive family with
    equal offspring/immigration ratios (both make the exponent function
    linear, so Hellinger integrals are exactly computable).  SP2..SP4 only
    admit bounds.  SP3a/SP3b additionally depend on the order lambda through
    the sign of phi'(0).
    """

    NI = "NI"
    SP1 = "SP1"
    SP2 = "SP2"
    SP3A = "SP3a"
    SP3B = "SP3b"
    SP3C = "SP3c"
    SP3D = "SP3d"
    SP4 = "SP4"

    @property
    def exactly_computable(self) -> bool:
        return self is _NI or self is _SP1


#: reading a member off CaseTag takes a metaclass hook on Python 3.11
_NI, _SP1 = CaseTag.NI, CaseTag.SP1


def _integer(name: str, value) -> int:
    """``value`` as an int.  Python ints and every other ``numbers.Integral``
    (numpy integers among them) pass; bools and every other type are refused.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise GWIError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _initial_population(omega0, n, n_min: int, cap: int | None = None) -> tuple[int, int]:
    """(omega0, n) as ints, after checking both are integers, omega0 lies in
    [1, cap], n >= n_min and neither exceeds the largest finite double.
    Every layer that takes an initial population and a horizon checks them
    here.
    """
    if type(omega0) is not int or type(n) is not int:
        omega0, n = _integer("omega0", omega0), _integer("n", n)
    if omega0 < 1 or n < n_min:
        raise GWIError(f"need omega0 >= 1 and n >= {n_min}")
    if omega0 > _DOUBLE_MAX or n > _DOUBLE_MAX:
        raise GWIError(f"omega0 and n must not exceed the largest double {_DOUBLE_MAX!r}")
    if cap is not None and omega0 > cap:
        raise GWIError(f"omega0 = {omega0} exceeds the state cap max_state = {cap}")
    return omega0, n


def _crossed(lower: float, upper: float) -> bool:
    """lower exceeds upper by more than the rounding allowance."""
    return lower > upper and lower > upper + ORDER_ALLOWANCE * max(1.0, abs(lower), abs(upper))


def validate_order(lam: float) -> float:
    """Check lambda lies in the open interval (0, 1) and return it."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise GWIError(f"order lambda must lie in (0, 1), got {lam}")
    return lam


@dataclass(frozen=True)
class ParamSet:
    """The GWI parameter quadruple (beta_a, beta_h, alpha_a, alpha_h).

    Valid constellations are either the no-immigration family
    (alpha_a = alpha_h = 0, beta_a != beta_h) or the componentwise strictly
    positive family with at least one parameter differing between the two
    laws.  Mixed zero/positive immigration is rejected: the two path laws
    would not be equivalent and none of the formulas apply.
    """

    beta_a: float
    beta_h: float
    alpha_a: float
    alpha_h: float

    def __post_init__(self) -> None:
        for name in ("beta_a", "beta_h", "alpha_a", "alpha_h"):
            if not math.isfinite(getattr(self, name)):
                raise GWIError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("beta_a", "beta_h"):
            if not getattr(self, name) > 0.0:
                raise GWIError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.alpha_a < 0.0 or self.alpha_h < 0.0:
            raise GWIError("immigration means must be >= 0")
        if self.alpha_a == 0.0 and self.alpha_h == 0.0:
            if self.beta_a == self.beta_h:
                raise GWIError("no-immigration family needs beta_a != beta_h")
        elif self.alpha_a > 0.0 and self.alpha_h > 0.0:
            if self.beta_a == self.beta_h and self.alpha_a == self.alpha_h:
                raise GWIError("laws coincide; at least one parameter must differ")
        else:
            raise GWIError(
                "immigration means must be both zero or both strictly positive"
            )

    @property
    def gamma(self) -> float:
        """gamma = alpha_h*beta_a - alpha_a*beta_h; zero exactly on NI u SP1."""
        return self.alpha_h * self.beta_a - self.alpha_a * self.beta_h

    @property
    def x_star(self) -> float:
        """x* = (alpha_h - alpha_a)/(beta_a - beta_h), where the two rates
        cross; needs beta_a != beta_h."""
        return (self.alpha_h - self.alpha_a) / (self.beta_a - self.beta_h)

    @property
    def no_immigration(self) -> bool:
        return self.alpha_a == 0.0 and self.alpha_h == 0.0

    def rate_a(self, x: float) -> float:
        """Conditional Poisson rate beta_a*x + alpha_a under the alternative."""
        return self.beta_a * x + self.alpha_a

    def rate_h(self, x: float) -> float:
        """Conditional Poisson rate beta_h*x + alpha_h under the hypothesis."""
        return self.beta_h * x + self.alpha_h

    def swapped(self) -> "ParamSet":
        """Exchange the roles of alternative and hypothesis."""
        return ParamSet(self.beta_h, self.beta_a, self.alpha_h, self.alpha_a)


class LambdaWeights(NamedTuple):
    """lambda-weighted parameter averages."""

    beta_lambda: float
    alpha_lambda: float


def lambda_weights(params: ParamSet, lam: float) -> LambdaWeights:
    lam = validate_order(lam)
    return LambdaWeights(
        beta_lambda=lam * params.beta_a + (1.0 - lam) * params.beta_h,
        alpha_lambda=lam * params.alpha_a + (1.0 - lam) * params.alpha_h,
    )


def _geometric_mean(a: float, h: float, lam: float) -> float:
    """a^lam * h^(1-lam), evaluated in log space when both are positive."""
    if a == 0.0 or h == 0.0:
        return 0.0
    return math.exp(lam * math.log(a) + (1.0 - lam) * math.log(h))


def varphi_value(params: ParamSet, lam: float, x: float) -> float:
    """varphi(x) = (rate_a(x))^lam * (rate_h(x))^(1-lam), with varphi(0)=0 on NI."""
    return _geometric_mean(params.rate_a(x), params.rate_h(x), lam)


def phi0_prime(params: ParamSet, lam: float) -> float:
    """phi'(0) for strictly positive immigration constellations.

    This is the quantity whose sign splits SP3a from SP3b.
    """
    ratio = params.alpha_a / params.alpha_h
    bl, _ = lambda_weights(params, lam)
    return _linear_majorant(params.beta_a, params.beta_h, ratio, lam) - bl


def classify(params: ParamSet, lam: float) -> CaseTag:
    """Assign the unique case tag of a valid (params, lambda) pair.

    Direct parameter equalities are tested exactly on the stored floats; the
    SP1 ratio test and the SP3c/SP3d integer test use the absolute tolerance
    ``RATIO_TOL`` since they involve derived quantities.
    """
    validate_order(lam)
    if params.no_immigration:
        return CaseTag.NI
    if params.beta_a == params.beta_h:
        return CaseTag.SP4
    if params.alpha_a == params.alpha_h:
        return CaseTag.SP2
    if abs(params.alpha_a / params.alpha_h - params.beta_a / params.beta_h) <= RATIO_TOL:
        return CaseTag.SP1
    x_star = params.x_star
    if x_star < 0.0:
        return CaseTag.SP3A if phi0_prime(params, lam) <= 0.0 else CaseTag.SP3B
    nearest = round(x_star)
    if nearest >= 1 and abs(x_star - nearest) <= RATIO_TOL:
        return CaseTag.SP3D
    return CaseTag.SP3C


def case_details(params: ParamSet, lam: float) -> dict:
    """Classification plus the diagnostics behind it (for reports)."""
    tag = classify(params, lam)
    details: dict = {"case": tag.value}
    if not params.no_immigration and params.beta_a != params.beta_h:
        x_star = params.x_star
        details["x_star"] = x_star
        if tag is CaseTag.SP3D:
            details["x_star"] = round(x_star)
        if params.alpha_a != params.alpha_h:
            ratio_gap = params.alpha_a / params.alpha_h - params.beta_a / params.beta_h
            details["ratio_gap"] = ratio_gap
            details["tolerance_tie"] = bool(
                tag is CaseTag.SP1 and ratio_gap != 0.0
            ) or bool(
                tag is CaseTag.SP3D and x_star != round(x_star)
            )
    if tag in (CaseTag.SP3A, CaseTag.SP3B):
        details["phi0_prime"] = phi0_prime(params, lam)
    return details


class PhiDerivatives(NamedTuple):
    phi: float
    phi_prime: float
    phi_double_prime: float


def phi_eval(params: ParamSet, lam: float, x: float) -> PhiDerivatives:
    """Evaluate phi(x) = varphi(x) - f_lambda(x) and its first two derivatives.

    phi is the per-generation exponent whose linear bounds drive every
    Hellinger recursion: phi <= 0 everywhere, with equality iff the two
    conditional rates coincide, and phi'' < 0 whenever gamma != 0.  On the
    linear constellations (gamma == 0, i.e. NI and SP1) the exact affine form
    is used, which also covers the NI boundary point x = 0.
    """
    lam = validate_order(lam)
    if x < 0.0:
        raise GWIError(f"phi is only defined for x >= 0, got {x}")
    bl, al = lambda_weights(params, lam)
    if params.gamma == 0.0:
        p_e = _geometric_mean(params.alpha_a, params.alpha_h, lam)
        q_e = _geometric_mean(params.beta_a, params.beta_h, lam)
        return PhiDerivatives(
            phi=(p_e - al) + (q_e - bl) * x,
            phi_prime=q_e - bl,
            phi_double_prime=0.0,
        )
    fa = params.rate_a(x)
    fh = params.rate_h(x)
    varphi = _geometric_mean(fa, fh, lam)
    phi = varphi - (al + bl * x)
    phi_prime = varphi * (lam * params.beta_a / fa + (1.0 - lam) * params.beta_h / fh) - bl
    phi_double = -lam * (1.0 - lam) * params.gamma**2 * varphi / (fa * fh) ** 2
    return PhiDerivatives(phi, phi_prime, phi_double)


def geometric_mean_gap(x: float, y: float, z: float, lam: float) -> float:
    """x^lam y^(1-lam) - (lam x z^(lam-1) + (1-lam) y z^lam).

    The gap between a weighted geometric mean and its z-anchored linear
    majorant: always <= 0 for positive arguments, with equality iff
    x/y == z.  This single inequality drives the sign structure of phi.
    """
    lam = validate_order(lam)
    if min(x, y, z) <= 0.0:
        raise GWIError("geometric_mean_gap needs strictly positive x, y, z")
    geo = math.exp(lam * math.log(x) + (1.0 - lam) * math.log(y))
    return geo - _linear_majorant(x, y, z, lam)


def _linear_majorant(x: float, y: float, z: float, lam: float) -> float:
    """lam x z^(lam-1) + (1-lam) y z^lam, the linear majorant in (x, y) of
    x^lam y^(1-lam) that touches it where x/y == z."""
    return lam * x * z ** (lam - 1.0) + (1.0 - lam) * y * z**lam
