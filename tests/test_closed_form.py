"""Closed-form lower/upper Hellinger bounds against their recursive anchors."""

import math

import numpy as np
import pytest

from gwidiv import (
    CaseError,
    ParamSet,
    closed_form_log_lower,
    closed_form_log_upper,
    closed_form_lower_terms,
    closed_form_upper_terms,
    enum_log_hellinger,
)
from gwidiv.closed_form import asymptotic_log_slope
from gwidiv.recursions import Constellation

from conftest import log_bound_at, random_params

# representative constellations for each admissible case of each bound
LOWER_CASES = [
    ParamSet(1.2, 0.8, 0, 0),          # NI
    ParamSet(1.1, 0.9, 1.1, 0.9),      # SP1
    ParamSet(1.25, 0.85, 2, 2),        # SP2
    ParamSet(0.8, 0.6, 2, 1.9),        # SP3a
    ParamSet(0.8, 0.6, 2, 1.1),        # SP3b
    ParamSet(1, 1.5, 2, 1.8),          # SP3c
    ParamSet(1.8, 0.9, 1.2, 3.0),      # SP3d
]
UPPER_CASES = LOWER_CASES[:6]


class TestClosedFormLower:
    def test_strictly_below_recursive_anchor(self):
        for params in LOWER_CASES:
            pair = Constellation(params, 0.5).star
            for n in range(1, 51):
                anchor = log_bound_at(pair, params, 0.5, 2, n)
                assert closed_form_log_lower(params, 0.5, 2, n) < anchor

    def test_strictly_decreasing(self):
        for params in LOWER_CASES:
            values = [closed_form_log_lower(params, 0.5, 2, n) for n in range(1, 51)]
            assert np.all(np.diff(values) < 0.0), params

    def test_ni_limit_is_omega0_x0(self):
        """C^L_n -> exp(omega0 * x0) on NI."""
        from gwidiv import lambda_weights, solve_fixed_point

        params = ParamSet(1.2, 0.8, 0, 0)
        bl, _ = lambda_weights(params, 0.5)
        x0 = solve_fixed_point(Constellation(params, 0.5).star.q, bl).x0
        omega0 = 3
        assert closed_form_log_lower(params, 0.5, omega0, 3000) == pytest.approx(
            omega0 * x0, abs=1e-9
        )

    def test_corrections_positive(self, rng):
        for _ in range(100):
            case = ("NI", "SP1", "SP2", "SP3a", "SP3b", "SP3c", "SP3d")[rng.integers(0, 7)]
            lam = rng.uniform(0.1, 0.9)
            params = random_params(rng, case, lam)
            terms = closed_form_lower_terms(params, lam, int(rng.integers(1, 4)), int(rng.integers(1, 30)))
            assert terms.zeta > 0.0
            assert terms.vartheta >= 0.0
            if params.alpha_a > 0.0:
                assert terms.vartheta > 0.0

    def test_sp4_not_covered(self):
        with pytest.raises(CaseError):
            closed_form_log_lower(ParamSet(1, 1, 2, 3), 0.5, 1, 3)

    def test_explicit_variant_is_smaller(self, rng):
        for _ in range(50):
            lam = rng.uniform(0.1, 0.9)
            params = random_params(rng, "SP1", lam)
            default = closed_form_log_lower(params, lam, 1, 10)
            explicit = closed_form_log_lower(params, lam, 1, 10, explicit=True)
            assert explicit <= default

    def test_explicit_variant_at_a_zero_under_approximant(self):
        """Nearly equal NI offspring means: q lies one ulp below beta_lambda and
        the under-approximant of x0 rounds to 0.  The tangent at 0 gives zero
        terms; only the secant slope, which the lower bound does not use,
        divides by x0."""
        terms = closed_form_lower_terms(ParamSet(0.3000000031428572, 0.3, 0.0, 0.0), 0.5, 1, 3,
                                        explicit=True)
        assert terms.x0_used == 0.0
        assert terms.total_lower == terms.zeta == terms.vartheta == 0.0


class TestClosedFormUpper:
    def test_equals_recursive_anchor_at_n1_only(self):
        for params in UPPER_CASES:
            pair = Constellation(params, 0.5).upper
            anchor = log_bound_at(pair, params, 0.5, 2, 1)
            assert closed_form_log_upper(params, 0.5, 2, 1) == pytest.approx(anchor, abs=1e-12)
            for n in range(2, 31):
                anchor = log_bound_at(pair, params, 0.5, 2, n)
                assert closed_form_log_upper(params, 0.5, 2, n) > anchor

    def test_strictly_decreasing(self):
        for params in UPPER_CASES:
            values = [closed_form_log_upper(params, 0.5, 2, n) for n in range(1, 51)]
            assert np.all(np.diff(values) < 0.0), params

    def test_corrections_positive(self, rng):
        for _ in range(100):
            case = ("NI", "SP1", "SP2", "SP3a", "SP3b", "SP3c")[rng.integers(0, 6)]
            lam = rng.uniform(0.1, 0.9)
            params = random_params(rng, case, lam)
            terms = closed_form_upper_terms(params, lam, int(rng.integers(1, 4)), int(rng.integers(2, 30)))
            assert terms.zeta > 0.0
            assert terms.vartheta >= 0.0

    def test_excluded_cases(self):
        with pytest.raises(CaseError):
            closed_form_log_upper(ParamSet(1.8, 0.9, 1.2, 3.0), 0.5, 1, 3)
        with pytest.raises(CaseError):
            closed_form_log_upper(ParamSet(1, 1, 2, 3), 0.5, 1, 3)

    def test_explicit_variant_is_larger_or_falls_back(self, rng):
        for _ in range(50):
            lam = rng.uniform(0.1, 0.9)
            params = random_params(rng, "SP2", lam)
            terms = closed_form_upper_terms(params, lam, 1, 10, explicit=True)
            default = closed_form_log_upper(params, lam, 1, 10)
            if terms.explicit_fallback:
                assert terms.total_upper == pytest.approx(default, abs=1e-12)
            else:
                assert terms.total_upper >= default - 1e-12


class TestSandwich:
    def test_enumeration_between_closed_forms(self):
        """C^L <= enum <= C^G at desk scale (n <= 6), certified error included."""
        for params in UPPER_CASES:
            for n in range(1, 7):
                log_enum, err = enum_log_hellinger(params, 0.5, 1, n)
                lo = closed_form_log_lower(params, 0.5, 1, n)
                hi = closed_form_log_upper(params, 0.5, 1, n)
                assert math.exp(lo) <= math.exp(log_enum) + err
                assert math.exp(log_enum) <= math.exp(hi) + 1e-15

    def test_ni_example_upper(self):
        params = ParamSet(0.5, 0.25, 0, 0)
        log_enum, err = enum_log_hellinger(params, 0.5, 1, 5)
        assert math.exp(log_enum) <= math.exp(closed_form_log_upper(params, 0.5, 1, 5))


class TestSlopeLimits:
    def test_log_slope_limits_at_n500(self):
        """(1/n) log C_n -> (p/q)(x0 + beta_lambda) - alpha_lambda, both sides."""
        for params in [ParamSet(0.8, 0.6, 0, 0), ParamSet(0.8, 0.6, 0.8, 0.6),
                       ParamSet(0.8, 0.6, 2, 2), ParamSet(0.8, 0.6, 2, 1.9)]:
            lo_slope = closed_form_log_lower(params, 0.5, 1, 500) / 500
            target_lo = asymptotic_log_slope(Constellation(params, 0.5).star, params, 0.5)
            assert abs(lo_slope - target_lo) < 1e-3
            up_slope = closed_form_log_upper(params, 0.5, 1, 500) / 500
            target_up = asymptotic_log_slope(Constellation(params, 0.5).upper, params, 0.5)
            assert abs(up_slope - target_up) < 1e-3

    def test_sp1_lower_slope_formula(self):
        """On SP1 the closed-form lower slope equals (alpha_a/beta_a) x0."""
        from gwidiv import lambda_weights, solve_fixed_point

        params = ParamSet(0.8, 0.6, 0.4, 0.3)
        bl, _ = lambda_weights(params, 0.5)
        pair = Constellation(params, 0.5).star
        x0 = solve_fixed_point(pair.q, bl).x0
        target = params.alpha_a / params.beta_a * x0
        assert asymptotic_log_slope(pair, params, 0.5) == pytest.approx(target, rel=1e-12)
