"""Fixed-point solver, bracketing approximants and linearized sequences."""

import math

import numpy as np
import pytest

from gwidiv import GWIError, solve_fixed_point


def _random_q_beta(rng, margin=0.02):
    beta_lambda = rng.uniform(0.2, 3.0)
    q = beta_lambda * rng.uniform(0.05, 1.0 - margin)
    return q, beta_lambda


class TestSolveFixedPoint:
    @pytest.mark.parametrize("q, beta_lambda", [(math.nan, 1.0), (0.5, math.inf),
                                                (0.5, math.nan), (math.inf, 1.0)])
    def test_non_finite_arguments_refused(self, q, beta_lambda):
        """nan and inf used to pass both checks and return all-nan results."""
        with pytest.raises(GWIError):
            solve_fixed_point(q, beta_lambda)

    def test_constructed_root(self):
        """q = 0.5 e, beta_lambda = 1.5 has the exact root x0 = -1."""
        fp = solve_fixed_point(0.5 * math.e, 1.5)
        assert fp.x0 == pytest.approx(-1.0, abs=1e-13)
        assert fp.d_t == pytest.approx(0.5, abs=1e-13)
        assert fp.gamma_cap == pytest.approx(0.25, abs=1e-13)

    def test_residual_and_bracket(self, rng):
        for _ in range(500):
            q, bl = _random_q_beta(rng)
            fp = solve_fixed_point(q, bl)
            assert abs(fp.residual) < 1e-13
            assert -bl < fp.x0 < q - bl < 0.0

    def test_under_over_approximants_bracket(self, rng):
        """x0_under <= x0 <= x0_over with strictly positive gaps."""
        for _ in range(1000):
            q, bl = _random_q_beta(rng)
            fp = solve_fixed_point(q, bl)
            assert fp.x0_under < fp.x0 < fp.x0_over

    def test_scalar_ordering(self, rng):
        """0 < d_T < d_S < 1 and Gamma > 0."""
        for _ in range(500):
            q, bl = _random_q_beta(rng)
            fp = solve_fixed_point(q, bl)
            assert 0.0 < fp.d_t < fp.d_s < 1.0
            assert fp.gamma_cap > 0.0

    def test_rejects_bad_regimes(self):
        with pytest.raises(GWIError):
            solve_fixed_point(0.0, 1.0)
        with pytest.raises(GWIError):
            solve_fixed_point(1.0, 1.0)
        with pytest.raises(GWIError):
            solve_fixed_point(1.5, 1.0)

    def test_a_recursion_converges_to_root(self, rng):
        """|a_N - x0| < 1e-8 at N = 1e4 (vectorized across instances)."""
        count = 1000
        q = np.empty(count)
        bl = np.empty(count)
        x0 = np.empty(count)
        drawn = 0
        while drawn < count:
            qi, bli = _random_q_beta(rng)
            fp = solve_fixed_point(qi, bli)
            # saturating contractions need more than 1e4 steps; skip them
            if fp.d_t > 0.995:
                continue
            q[drawn], bl[drawn], x0[drawn] = qi, bli, fp.x0
            drawn += 1
        a = np.zeros(count)
        for _ in range(10**4):
            a = q * np.exp(a) - bl
        assert np.max(np.abs(a - x0)) < 1e-8


class TestLinearizedSandwich:
    """Monotonicity properties of the tangent/secant substitute recursions."""

    @staticmethod
    def _traces(q, bl, n):
        fp = solve_fixed_point(q, bl)
        x0, dt, ds = fp.x0, fp.d_t, fp.d_s
        a = np.zeros(n + 1)
        under = np.zeros(n + 1)
        over = np.zeros(n + 1)
        for k in range(1, n + 1):
            a[k] = q * math.exp(a[k - 1]) - bl
            rho_u = 0.5 * x0 * x0 * dt ** (2 * k - 1)
            under[k] = x0 * (1 - dt) + dt * under[k - 1] + rho_u
            rho_o = -0.5 * x0 * x0 * dt**k * (1 - ds ** (k - 1))
            over[k] = (q - bl) + ds * over[k - 1] + rho_o
        return fp, a, under, over

    def test_sandwich_and_monotonicity(self, rng):
        """under < a < over (over with equality iff n = 1), both decreasing.

        Strictness is asserted while the sequences are still resolvably away
        from the common limit x0; fast contractions saturate to x0 within
        double precision after a dozen steps, where ties are allowed.
        """
        for _ in range(1000):
            q, bl = _random_q_beta(rng)
            fp, a, under, over = self._traces(q, bl, 40)
            live = (a[1:] - fp.x0) > 1e-11
            assert np.all(under[1:] <= a[1:] + 1e-14)
            assert np.all(under[1:][live] < a[1:][live])
            assert np.all(over[1:] >= a[1:] - 1e-14)
            assert over[1] == pytest.approx(a[1], abs=1e-15)
            strict = live[1:] & ((over[2:] - fp.x0) > 1e-11)
            assert np.all(over[2:][strict] > a[2:][strict])
            assert np.all(np.diff(under[1:]) <= 1e-14)
            assert np.all(np.diff(over[1:]) <= 1e-14)
            assert np.all(np.diff(under[1:])[live[1:]] < 0.0)
            assert np.all(np.diff(over[1:])[strict] < 0.0)

    def test_common_limit(self, rng):
        for _ in range(100):
            q, bl = _random_q_beta(rng)
            fp, a, under, over = self._traces(q, bl, 2000)
            if fp.d_t > 0.98:
                continue
            assert under[-1] == pytest.approx(fp.x0, abs=1e-8)
            assert over[-1] == pytest.approx(fp.x0, abs=1e-8)
