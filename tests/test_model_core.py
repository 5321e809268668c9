"""Parameter validation, case classification and the phi machinery."""

import numpy as np
import pytest

from gwidiv import (
    CaseTag,
    GWIError,
    ParamSet,
    classify,
    lambda_weights,
    geometric_mean_gap,
    phi_eval,
    varphi_value,
)
from gwidiv.params import case_details, phi0_prime

from conftest import random_any, random_params


class TestParamSet:
    def test_rejects_nonpositive_offspring(self):
        with pytest.raises(GWIError):
            ParamSet(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(GWIError):
            ParamSet(1.0, -2.0, 1.0, 1.0)

    def test_rejects_mixed_immigration(self):
        with pytest.raises(GWIError):
            ParamSet(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(GWIError):
            ParamSet(1.0, 2.0, 1.0, 0.0)

    def test_rejects_identical_laws(self):
        with pytest.raises(GWIError):
            ParamSet(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(GWIError):
            ParamSet(1.0, 1.0, 2.0, 2.0)

    @pytest.mark.parametrize("quad, field", [
        ((np.inf, 0.5, 1.0, 2.0), "beta_a"),
        ((0.8, np.inf, 1.0, 2.0), "beta_h"),
        ((0.8, 0.6, np.inf, 2.0), "alpha_a"),
        ((0.8, 0.6, 2.0, np.nan), "alpha_h"),
        ((np.nan, 0.6, 0.0, 0.0), "beta_a"),
    ])
    def test_rejects_non_finite_fields(self, quad, field):
        with pytest.raises(GWIError, match=f"{field} must be finite"):
            ParamSet(*quad)

    def test_gamma_zero_exactly_on_linear_families(self):
        assert ParamSet(4, 2, 0, 0).gamma == 0.0
        assert ParamSet(4, 2, 4, 2).gamma == 0.0
        assert ParamSet(4, 2, 4, 1).gamma != 0.0

    def test_swapped(self):
        p = ParamSet(1.8, 0.9, 2.8, 0.7).swapped()
        assert (p.beta_a, p.beta_h, p.alpha_a, p.alpha_h) == (0.9, 1.8, 0.7, 2.8)


class TestClassify:
    @pytest.mark.parametrize(
        "quad, lam, expected",
        [
            ((4, 2, 0, 0), 0.5, CaseTag.NI),
            ((1.8, 0.9, 2.8, 0.7), 0.5, CaseTag.SP3A),
            ((1.8, 0.9, 2.9, 0.7), 0.5, CaseTag.SP3B),
            ((1.8, 0.9, 1.1, 3.0), 0.5, CaseTag.SP3C),
            ((1.8, 0.9, 1.2, 3.0), 0.5, CaseTag.SP3D),
            ((0.8, 0.6, 2, 2), 0.5, CaseTag.SP2),
            ((4, 2, 4, 2), 0.5, CaseTag.SP1),
            ((1, 0.5, 2, 1), 0.5, CaseTag.SP1),
            ((1, 1, 2, 3), 0.5, CaseTag.SP4),
            ((1 / 3, 2 / 3, 2, 1), 0.5, CaseTag.SP3D),
        ],
    )
    def test_case_atlas(self, quad, lam, expected):
        assert classify(ParamSet(*quad), lam) is expected

    def test_rejects_bad_order(self):
        with pytest.raises(GWIError):
            classify(ParamSet(4, 2, 0, 0), 1.0)
        with pytest.raises(GWIError):
            classify(ParamSet(4, 2, 0, 0), -0.1)

    def test_total_over_random_instances(self, rng):
        for _ in range(500):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            assert classify(params, lam) in CaseTag

    def test_sp3ab_split_follows_phi0_prime_sign(self, rng):
        """SP3a <-> SP3b flips only across the sign boundary of phi'(0)."""
        for _ in range(50):
            lam = rng.uniform(0.1, 0.9)
            params = random_params(rng, "SP3a" if rng.random() < 0.5 else "SP3b", lam)
            for delta in (-0.02, 0.0, 0.02):
                lam2 = min(max(lam + delta, 0.01), 0.99)
                expected = CaseTag.SP3A if phi0_prime(params, lam2) <= 0 else CaseTag.SP3B
                assert classify(params, lam2) is expected

    def test_case_details_reports_x_star(self):
        details = case_details(ParamSet(1.8, 0.9, 1.2, 3.0), 0.5)
        assert details["case"] == "SP3d"
        assert details["x_star"] == 2
        assert details["tolerance_tie"] is False


class TestPhiEval:
    def test_zero_where_rates_coincide(self):
        # rates f_A(3) = f_H(3) = 3 for this SP3d constellation
        params = ParamSet(1 / 3, 2 / 3, 2, 1)
        assert phi_eval(params, 0.5, 3.0).phi == pytest.approx(0.0, abs=1e-14)

    def test_phi0_prime_sign_examples(self):
        """phi'(0) negative / zero / positive on the three example tuples."""
        assert phi_eval(ParamSet(4, 2, 3, 1), 0.5, 0.0).phi_prime < 0
        assert phi_eval(ParamSet(4, 2, 4, 1), 0.5, 0.0).phi_prime == pytest.approx(0.0, abs=1e-12)
        assert phi_eval(ParamSet(4, 2, 5, 1), 0.5, 0.0).phi_prime > 0

    def test_equal_immigration_means_phi0_zero(self):
        assert phi_eval(ParamSet(0.8, 0.6, 2, 2), 0.5, 0.0).phi == pytest.approx(0.0, abs=1e-15)

    def test_ni_boundary_convention(self):
        # varphi(0) = 0 on NI, so phi(0) = 0 and phi is affine
        params = ParamSet(0.5, 0.25, 0, 0)
        assert varphi_value(params, 0.5, 0.0) == 0.0
        out = phi_eval(params, 0.5, 0.0)
        assert out.phi == 0.0
        assert out.phi_double_prime == 0.0

    def test_phi_nonpositive_and_curvature(self, rng):
        """phi <= 0 with equality only where the rates agree; phi'' < 0 iff
        gamma != 0 (1e4 random evaluation points)."""
        for _ in range(1000):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            for x in rng.uniform(0.0, 20.0, size=10):
                out = phi_eval(params, lam, float(x))
                assert out.phi <= 1e-12
                if abs(params.rate_a(x) - params.rate_h(x)) > 1e-9:
                    assert out.phi < 0.0
                if params.gamma == 0.0:
                    assert out.phi_double_prime == 0.0
                else:
                    assert out.phi_double_prime < 0.0

    def test_phi_prime_matches_finite_differences(self, rng):
        step = 1e-5
        for _ in range(300):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            x = rng.uniform(0.5, 10.0)
            out = phi_eval(params, lam, x)
            fd = (phi_eval(params, lam, x + step).phi - phi_eval(params, lam, x - step).phi) / (2 * step)
            assert out.phi_prime == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestGeometricMeanGap:
    def test_equality_case(self):
        for lam in (0.1, 0.5, 0.9):
            assert geometric_mean_gap(3.0, 3.0, 1.0, lam) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_value(self):
        # 2 - (sqrt(2) + sqrt(2)/2), evaluated with 50-digit arithmetic
        assert geometric_mean_gap(4.0, 1.0, 2.0, 0.5) == pytest.approx(-0.12132034355964239, abs=1e-15)

    def test_strictly_negative_off_equality(self):
        assert geometric_mean_gap(1.0, 1.0, 2.0, 0.5) < 0.0

    def test_nonpositive_on_random_tuples(self, rng):
        x, y, z = rng.uniform(0.01, 50.0, size=(3, 5000))
        lam = rng.uniform(0.02, 0.98, size=5000)
        geo = np.exp(lam * np.log(x) + (1 - lam) * np.log(y))
        gap = geo - (lam * x * z ** (lam - 1) + (1 - lam) * y * z**lam)
        assert np.all(gap <= 1e-12)
        # spot-check agreement with the scalar implementation
        for i in range(0, 5000, 500):
            assert geometric_mean_gap(x[i], y[i], z[i], lam[i]) == pytest.approx(gap[i], abs=1e-12)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(GWIError):
            geometric_mean_gap(0.0, 1.0, 1.0, 0.5)


def test_lambda_weights_are_convex_combinations(rng):
    for _ in range(200):
        lam = rng.uniform(0.05, 0.95)
        params = random_any(rng, lam)
        bl, al = lambda_weights(params, lam)
        tol = 1e-12
        assert min(params.beta_a, params.beta_h) - tol <= bl <= max(params.beta_a, params.beta_h) + tol
        assert min(params.alpha_a, params.alpha_h) - tol <= al <= max(params.alpha_a, params.alpha_h) + tol
        assert bl > 0 and al >= 0
