"""Diffusion-limit parametrization, step-m bounds and limit quantities."""

import math

import numpy as np
import pytest

from gwidiv import (
    AdmissibilityError,
    CaseTag,
    GWIError,
    SDEParams,
    approx_params,
    classify,
    exact_entropy,
    exact_log_hellinger,
    lambda_weights,
    limit_entropy,
    limit_log_bounds,
    limit_scalars,
    min_admissible_m,
    prelimit_log_bounds,
    solve_fixed_point,
    time_horizon,
)
from gwidiv.recursions import Constellation

SDE_GRID = [
    SDEParams(eta=0.5, kappa_a=2.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0),
    SDEParams(eta=0.0, kappa_a=0.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0),
    SDEParams(eta=1.2, kappa_a=0.3, kappa_h=2.5, sigma=1.5, x0_tilde=0.7),
    SDEParams(eta=0.0, kappa_a=1.8, kappa_h=0.4, sigma=0.8, x0_tilde=2.0),
]


class TestSDEParams:
    def test_rejects_equal_kappas(self):
        with pytest.raises(GWIError):
            SDEParams(eta=0.1, kappa_a=1.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0)

    def test_rejects_bad_sigma_and_x0(self):
        with pytest.raises(GWIError):
            SDEParams(eta=0.1, kappa_a=1.0, kappa_h=2.0, sigma=0.0, x0_tilde=1.0)
        with pytest.raises(GWIError):
            SDEParams(eta=0.1, kappa_a=1.0, kappa_h=2.0, sigma=1.0, x0_tilde=0.0)

    @pytest.mark.parametrize("values, field", [
        ((math.nan, 2.0, 1.0, 1.0, 1.0), "eta"),
        ((0.5, math.inf, 1.0, 1.0, 1.0), "kappa_a"),
        ((0.5, 2.0, math.nan, 1.0, 1.0), "kappa_h"),
        ((0.5, 2.0, 1.0, math.inf, 1.0), "sigma"),
        ((0.5, 2.0, 1.0, 1.0, math.inf), "x0_tilde"),
    ])
    def test_rejects_non_finite_fields(self, values, field):
        with pytest.raises(GWIError, match=f"{field} must be finite"):
            SDEParams(*values)

    def test_jensen_gap(self, rng):
        """Lambda_lambda > kappa_lambda > 0 for every order and kappa pair."""
        for sde in SDE_GRID:
            for lam in rng.uniform(0.02, 0.98, size=50):
                kl, cap = limit_scalars(sde, lam)
                assert cap > kl > 0.0


class TestApproxParams:
    def test_direct_substitution(self):
        sde = SDEParams(eta=0.5, kappa_a=2.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0)
        params = approx_params(sde, 10)
        assert params.beta_a == pytest.approx(0.8)
        assert params.alpha_a == pytest.approx(0.4)

    def test_case_is_ni_or_sp1(self):
        for sde in SDE_GRID:
            params = approx_params(sde, 50)
            expected = CaseTag.NI if sde.eta == 0.0 else CaseTag.SP1
            assert classify(params, 0.5) is expected
            if sde.eta > 0.0:
                assert params.alpha_a / params.alpha_h == pytest.approx(
                    params.beta_a / params.beta_h, rel=1e-14
                )

    def test_inadmissible_m_reports_minimum(self):
        sde = SDEParams(eta=0.5, kappa_a=4.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0)
        with pytest.raises(AdmissibilityError) as excinfo:
            approx_params(sde, 3)
        assert str(min_admissible_m(sde)) in str(excinfo.value)
        approx_params(sde, min_admissible_m(sde))  # admissible by construction


class TestPrelimitBounds:
    def test_empty_horizon(self):
        sde = SDE_GRID[0]
        assert time_horizon(sde, 100, 0.004) == 0
        assert prelimit_log_bounds(sde, 0.5, 0.004, 100, 100) == (0.0, 0.0)

    def test_horizon_nudge(self):
        # sigma^2 m t = 30 exactly; floor must not miss to 29
        sde = SDEParams(eta=0.0, kappa_a=0.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0)
        assert time_horizon(sde, 100, 0.3) == 30

    def test_sandwiches_exact_step_value(self):
        """prelimit lower <= exact step-m log Hellinger <= prelimit upper."""
        for sde in SDE_GRID:
            for m, t in [(40, 0.5), (100, 1.0)]:
                x0_count = round(m * sde.x0_tilde)
                n = time_horizon(sde, m, t)
                params = approx_params(sde, m)
                exact = exact_log_hellinger(params, 0.5, x0_count, n)
                lo, hi = prelimit_log_bounds(sde, 0.5, t, m, x0_count)
                assert lo <= exact <= hi

    def test_eta_zero_reduces_to_population_terms(self):
        """With eta = 0 the bounds carry no immigration terms: scaling the
        initial population scales the log bounds linearly."""
        sde = SDEParams(eta=0.0, kappa_a=0.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0)
        lo1, hi1 = prelimit_log_bounds(sde, 0.5, 1.0, 200, 100)
        lo2, hi2 = prelimit_log_bounds(sde, 0.5, 1.0, 200, 200)
        assert lo2 == pytest.approx(2 * lo1, rel=1e-12)
        assert hi2 == pytest.approx(2 * hi1, rel=1e-12)


class TestScalingLimitScalars:
    def test_scalar_limits_at_m_1e5(self):
        """The six m -> infinity limit checks, relative tolerance 1e-3."""
        m = 10**5
        t = 1.0
        for sde in SDE_GRID:
            for lam in (0.3, 0.5, 0.8):
                kl, cap = limit_scalars(sde, lam)
                s2 = sde.sigma**2
                params = approx_params(sde, m)
                bl, _ = lambda_weights(params, lam)
                q = Constellation(params, lam).star.q
                fp = solve_fixed_point(q, bl)
                assert m * (1 - q) == pytest.approx(kl / s2, rel=1e-3)
                assert m * m * (q - bl) == pytest.approx(
                    -(cap**2 - kl**2) / (2 * s2 * s2), rel=1e-3
                )
                assert m * fp.x0 == pytest.approx(-(cap - kl) / s2, rel=1e-3)
                assert m * (1 - fp.d_t) == pytest.approx(cap / s2, rel=1e-3)
                assert m * (1 - fp.d_s) == pytest.approx((cap + kl) / (2 * s2), rel=1e-3)
                assert fp.d_t ** (s2 * m * t) == pytest.approx(math.exp(-cap * t), rel=1e-3)

    def test_prelimit_converges_to_limit(self):
        """Gap to D^L/D^U shrinks monotonically over m; final gap < 1e-2."""
        for sde in SDE_GRID:
            for lam, t in [(0.5, 1.0), (0.3, 0.6)]:
                limit_lo, limit_hi = limit_log_bounds(sde, lam, t)
                gaps = []
                for m in (100, 1000, 10000):
                    lo, hi = prelimit_log_bounds(sde, lam, t, m, round(m * sde.x0_tilde))
                    gaps.append(max(abs(lo - limit_lo), abs(hi - limit_hi)))
                assert gaps[0] > gaps[1] > gaps[2]
                assert gaps[2] < 1e-2


class TestLimitBounds:
    def test_zero_time(self):
        for sde in SDE_GRID:
            assert limit_log_bounds(sde, 0.5, 0.0) == (0.0, 0.0)

    def test_ordering_and_sign(self, rng):
        for sde in SDE_GRID:
            for _ in range(40):
                lam = rng.uniform(0.05, 0.95)
                t = rng.uniform(0.0, 8.0)
                lo, hi = limit_log_bounds(sde, lam, t)
                assert lo <= hi <= 0.0

    def test_component_signs(self, rng):
        """L1, L2 > 0 and U1, U2 >= 0 for t > 0 (checked via eta-free parts)."""
        for sde in SDE_GRID:
            kl, cap = limit_scalars(sde, 0.5)
            s2 = sde.sigma**2
            for t in (0.1, 1.0, 5.0):
                gap = cap - kl
                e_cap = math.exp(-cap * t)
                e_half = math.exp(-0.5 * (cap + kl) * t)
                l1 = gap**2 / (2 * s2 * cap) * e_cap * (1 - e_cap)
                l2 = 0.25 * (gap / cap) ** 2 * (1 - e_cap) ** 2
                u1 = gap**2 / s2 * ((e_half - e_cap) / gap - e_half * (1 - e_cap) / (2 * cap))
                u2 = gap**2 / cap * (
                    (1 - math.exp(-0.5 * (3 * cap + kl) * t)) / (3 * cap + kl)
                    + (e_cap - e_half) / gap
                )
                assert l1 > 0.0 and l2 > 0.0
                assert u1 >= 0.0 and u2 >= 0.0


class TestLimitEntropy:
    def test_kappa_a_zero_branch(self):
        sde = SDEParams(eta=0.0, kappa_a=0.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0)
        assert limit_entropy(sde, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_time(self):
        for sde in SDE_GRID:
            assert limit_entropy(sde, 0.0) == 0.0

    def test_double_limit_cross_check(self):
        """Matches exact_entropy on the step-m GWI at m = 1e4, rel 1e-2."""
        sde = SDEParams(eta=0.5, kappa_a=2.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0)
        m = 10**4
        n = time_horizon(sde, m, 1.0)
        step_value = exact_entropy(approx_params(sde, m), round(m * sde.x0_tilde), n)
        assert limit_entropy(sde, 1.0) == pytest.approx(step_value, rel=1e-2)

    def test_nondecreasing_in_t(self):
        for sde in SDE_GRID:
            values = [limit_entropy(sde, t) for t in np.linspace(0.0, 6.0, 40)]
            assert np.all(np.diff(values) >= -1e-12)


class TestTimeChecks:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        sde = SDE_GRID[0]
        for call in (lambda: limit_log_bounds(sde, 0.5, t), lambda: limit_entropy(sde, t),
                     lambda: time_horizon(sde, 100, t),
                     lambda: prelimit_log_bounds(sde, 0.5, t, 100, 100)):
            with pytest.raises(GWIError, match="finite"):
                call()

    def test_overflow_rejected(self):
        """Finite but huge times overflow the closed forms; no inf comes back."""
        sde = SDEParams(eta=10.0, kappa_a=0.5, kappa_h=20.0, sigma=1.0, x0_tilde=1.0)
        with pytest.raises(GWIError, match="overflow"):
            limit_entropy(sde, 1e308)
        with pytest.raises(GWIError, match="overflow"):
            limit_log_bounds(sde, 0.5, 1e307)
        lo, hi = limit_log_bounds(sde, 0.5, 1e306)
        assert math.isfinite(lo) and lo <= hi <= 0.0
        with pytest.raises(GWIError, match="overflow"):
            time_horizon(sde, 10**11, 1e300)
        with pytest.raises(GWIError, match="overflow"):
            prelimit_log_bounds(sde, 0.5, 1e300, 10**11, 1)
