"""Closed-form (non-recursive in n) lower and upper Hellinger log-bounds.

The nonlinear a-recursion is replaced by linear recursions built from the
tangent (lower) respectively secant (upper) line of the map through its
fixed point, each with an explicit quadratic correction term.  The result
is a bound that is a closed-form expression in the horizon n: a geometric
part in d^n, a part linear in n, and the two correction terms zeta (per
unit of initial population) and vartheta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fixed_point import _linearization
from .params import CaseError, CaseTag, ParamSet, _initial_population
from .recursions import CoefficientPair, _constellation

__all__ = [
    "ClosedFormTerms",
    "closed_form_log_lower",
    "closed_form_log_upper",
    "closed_form_lower_terms",
    "closed_form_upper_terms",
    "asymptotic_log_slope",
]

#: below this gap the difference quotients switch to their analytic limits
_DEGENERATE_GAP = 1e-10


@dataclass(frozen=True)
class ClosedFormTerms:
    """Decomposition of a closed-form log bound at horizon n.

    ``zeta`` is the per-unit-of-initial-population correction; it enters the
    total scaled by omega0, while ``vartheta`` enters unscaled.
    """

    zeta: float
    vartheta: float
    main_linear: float
    main_geometric: float
    x0_used: float
    omega0: int
    explicit_fallback: bool = False

    @property
    def total_lower(self) -> float:
        # lower bound adds its corrections
        return self.main_geometric + self.main_linear + self.zeta * self.omega0 + self.vartheta

    @property
    def total_upper(self) -> float:
        # upper bound subtracts its corrections
        return self.main_geometric + self.main_linear - self.zeta * self.omega0 - self.vartheta


def _geom_quotient(d1: float, d2: float, n: int) -> float:
    """(d1^n - d2^n)/(d1 - d2), with the removable-singularity limit n*d^(n-1)."""
    if abs(d1 - d2) < _DEGENERATE_GAP:
        d = 0.5 * (d1 + d2)
        return n * d ** (n - 1)
    return (d1**n - d2**n) / (d1 - d2)


def closed_form_lower_terms(
    params: ParamSet, lam: float, omega0: int, n: int, explicit: bool = False
) -> ClosedFormTerms:
    """Terms of log C^L_n from the tangent linearization at the fixed point."""
    c = _constellation(params, lam)
    omega0, n = _initial_population(omega0, n, 1)
    (bl, al), pair = c.weights, c.star
    fp = c.fixed_point(pair)
    x0 = fp.x0_under if explicit else fp.x0
    d_t, _, gamma_cap = _linearization(pair.q, bl, x0)
    r = pair.p / pair.q
    dtn = d_t**n
    zeta = gamma_cap * d_t ** (n - 1) * (1.0 - dtn) / (1.0 - d_t)
    vartheta = (
        r
        * gamma_cap
        * (1.0 - dtn)
        / (1.0 - d_t) ** 2
        * (1.0 - d_t * (1.0 + dtn) / (1.0 + d_t))
    )
    main_geo = x0 * (omega0 - r * d_t / (1.0 - d_t)) * (1.0 - dtn)
    main_lin = (r * (bl + x0) - al) * n
    return ClosedFormTerms(
        zeta=zeta,
        vartheta=vartheta,
        main_linear=main_lin,
        main_geometric=main_geo,
        x0_used=x0,
        omega0=omega0,
    )


def closed_form_log_lower(
    params: ParamSet, lam: float, omega0: int, n: int, explicit: bool = False
) -> float:
    """Closed-form log lower bound for the Hellinger integral at horizon n.

    Strictly below the recursive value it approximates (the exact value on
    NI/SP1, the recursive lower bound B^L on the other cases).  With
    ``explicit=True`` the solved fixed point is replaced by its closed-form
    under-approximant, giving a slightly smaller but solver-free bound.
    SP4 is not covered: there the geometric-mean slope equals beta_lambda
    and no negative fixed point exists.
    """
    return closed_form_lower_terms(params, lam, omega0, n, explicit).total_lower


def closed_form_upper_terms(
    params: ParamSet, lam: float, omega0: int, n: int, explicit: bool = False
) -> ClosedFormTerms:
    """Terms of log C^G_n from the secant linearization through the fixed point."""
    c = _constellation(params, lam)
    omega0, n = _initial_population(omega0, n, 1)
    if c.case in (CaseTag.SP3D, CaseTag.SP4):
        raise CaseError(
            f"no closed-form upper bound on {c.case.value}; only the trivial bound applies"
        )
    (bl, al), pair = c.weights, c.upper
    fp = c.fixed_point(pair)
    # an unusable over-approximant falls back to the solved root
    fallback = bool(explicit) and fp.explicit_unsafe
    x0 = fp.x0_over if explicit and not fallback else fp.x0
    d_t, d_s, gamma_cap = _linearization(pair.q, bl, x0)
    r = pair.p / pair.q
    dsn = d_s**n
    dtn = d_t**n
    zeta = gamma_cap * (
        _geom_quotient(d_s, d_t, n) - d_s ** (n - 1) * (1.0 - dtn) / (1.0 - d_t)
    )
    vartheta = (
        gamma_cap
        * r
        * d_t
        / (1.0 - d_t)
        * ((1.0 - (d_s * d_t) ** n) / (1.0 - d_s * d_t) - _geom_quotient(d_s, d_t, n))
    )
    main_geo = x0 * (omega0 - r * d_s / (1.0 - d_s)) * (1.0 - dsn)
    main_lin = (r * (bl + x0) - al) * n
    return ClosedFormTerms(
        zeta=zeta,
        vartheta=vartheta,
        main_linear=main_lin,
        main_geometric=main_geo,
        x0_used=x0,
        omega0=omega0,
        explicit_fallback=fallback,
    )


def closed_form_log_upper(
    params: ParamSet, lam: float, omega0: int, n: int, explicit: bool = False
) -> float:
    """Closed-form log upper bound for the Hellinger integral at horizon n.

    At least the recursive counterpart (exact value on NI/SP1, case upper
    bound B^U elsewhere), with equality iff n = 1.  Raises on SP3d and SP4,
    which the construction does not cover.
    """
    return closed_form_upper_terms(params, lam, omega0, n, explicit).total_upper


def asymptotic_log_slope(pair: CoefficientPair, params: ParamSet, lam: float) -> float:
    """lim (1/n) log of the bound built from ``pair``: (p/q)(x0 + beta_lambda) - alpha_lambda."""
    c = _constellation(params, lam)
    bl, al = c.weights
    return pair.p / pair.q * (c.fixed_point(pair).x0 + bl) - al
