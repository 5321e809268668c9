"""Backbone recursions, coefficient selection and recursive bounds."""

import math

import numpy as np
import pytest

from gwidiv import (
    CaseError,
    CaseTag,
    CoeffRole,
    ParamSet,
    classify,
    enum_log_hellinger,
    exact_log_hellinger,
    lambda_weights,
    log_bound_sequence,
    log_hellinger_bounds,
    recursive_log_bounds,
    run_recursion,
    select_coeffs,
    sp3d_log_delta,
    upper_candidates,
)
from gwidiv.params import GWIError, phi_eval, varphi_value
from gwidiv.recursions import (
    CoefficientPair,
    _floor_x_max,
    _phi_lattice,
    _require_majorant,
    asymptote_pair,
    lattice_argmax_phi,
)

from conftest import ALL_CASES, random_any, random_params


class TestRunRecursion:
    def test_slope_beta_lambda_freezes_a(self):
        """q = beta_lambda freezes the recursion: a == 0, b == p - alpha_lambda."""
        params = ParamSet(0.8, 0.6, 2, 2)
        bl, al = lambda_weights(params, 0.5)
        trace = run_recursion(1.3, bl, params, 0.5, 12)
        assert np.all(trace.a[1:] == 0.0)
        assert np.allclose(trace.b[1:], 1.3 - al)

    def test_zero_slope(self):
        """q = 0: a == -beta_lambda; b freezes at p e^{-beta_lambda} - alpha_lambda
        from the second step on (the first step uses a_0 = 0)."""
        params = ParamSet(0.8, 0.6, 2, 1.9)
        bl, al = lambda_weights(params, 0.5)
        trace = run_recursion(0.7, 0.0, params, 0.5, 9)
        assert np.allclose(trace.a[1:], -bl)
        assert trace.b[1] == pytest.approx(0.7 - al)
        assert np.allclose(trace.b[2:], 0.7 * math.exp(-bl) - al)

    def test_one_step_unrolling(self, rng):
        for _ in range(50):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            bl, al = lambda_weights(params, lam)
            p, q = rng.uniform(0.0, 3.0, size=2)
            trace = run_recursion(p, q, params, lam, 1)
            assert trace.a[0] == 0.0 and trace.b[0] == 0.0
            assert trace.a[1] == pytest.approx(q - bl)
            assert trace.b[1] == pytest.approx(p - al)

    def test_linear_interrelation_to_machine_precision(self, rng):
        for _ in range(100):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            bl, al = lambda_weights(params, lam)
            p = rng.uniform(0.0, 3.0)
            q = rng.uniform(0.02, 1.1) * bl
            n = 15 if q < bl else 4
            trace = run_recursion(p, q, params, lam, n)
            expected = p / q * trace.a[1:] + p / q * bl - al
            assert np.allclose(trace.b[1:], expected, rtol=1e-15, atol=1e-12)

    def test_trichotomy(self, rng):
        """Sign/monotonicity of a_n is driven by the sign of a_1 = q - beta_lambda.

        The divergent a_1 > 0 branch saturates at inf within a few steps;
        strictness is asserted on the finite prefix.
        """
        for _ in range(300):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            bl, _ = lambda_weights(params, lam)
            for q in (bl * rng.uniform(0.1, 0.95), bl, bl * rng.uniform(1.05, 1.5)):
                a = run_recursion(0.5, q, params, lam, 10).a
                if q == bl:
                    assert np.all(a[1:] == 0.0)
                elif q < bl:
                    assert np.all(a[1:] < 0.0) and np.all(np.diff(a[1:]) < 0.0)
                else:
                    finite = a[1:][np.isfinite(a[1:])]
                    assert np.all(finite > 0.0) and np.all(np.diff(finite) > 0.0)


class TestSelectCoeffs:
    def test_reference_coefficient_pairs(self):
        """Upper/asymptote pairs reproduce the SP2/SP3a/SP3b/SP3c example values."""
        table = [
            ((0.8, 0.6, 2, 2), (2.021, 0.693), (2.0, 0.698)),
            ((0.8, 0.6, 2, 1.9), (1.963, 0.693), (1.949, 0.696)),
            ((0.8, 0.6, 2, 1.1), (1.501, 0.693), (1.483, 0.699)),
            ((1, 1.5, 2, 1.8), (1.960, 1.225), (1.897, 1.249)),
        ]
        for quad, asym, prop in table:
            params = ParamSet(*quad)
            a = select_coeffs(params, 0.5, CoeffRole.ASYMPTOTE)
            u = select_coeffs(params, 0.5, CoeffRole.UPPER)
            assert a.p == pytest.approx(asym[0], abs=5e-4)
            assert a.q == pytest.approx(asym[1], abs=5e-4)
            assert u.p == pytest.approx(prop[0], abs=5e-4)
            assert u.q == pytest.approx(prop[1], abs=5e-4)

    def test_lower_pair_with_equal_immigration(self, rng):
        for _ in range(20):
            params = random_params(rng, "SP2")
            pair = select_coeffs(params, 0.5, CoeffRole.LOWER)
            assert pair.p == pytest.approx(params.alpha_a, abs=1e-14)

    def test_role_case_compatibility(self):
        sp2 = ParamSet(0.8, 0.6, 2, 2)
        ni = ParamSet(4, 2, 0, 0)
        sp4 = ParamSet(1, 1, 2, 3)
        with pytest.raises(CaseError):
            select_coeffs(sp2, 0.5, CoeffRole.EXACT)
        with pytest.raises(CaseError):
            select_coeffs(ni, 0.5, CoeffRole.LOWER)
        with pytest.raises(CaseError):
            select_coeffs(sp4, 0.5, CoeffRole.ASYMPTOTE)
        with pytest.raises(CaseError):
            select_coeffs(sp2, 0.5, CoeffRole.HORIZONTAL)

    def test_trivial_pairs_on_sp3d_sp4(self):
        for quad in [(1.8, 0.9, 1.2, 3.0), (1, 1, 2, 3)]:
            params = ParamSet(*quad)
            bl, al = lambda_weights(params, 0.5)
            pair = select_coeffs(params, 0.5, CoeffRole.UPPER)
            assert (pair.p, pair.q) == (al, bl)

    def test_selected_pairs_dominate_phi_on_lattice(self, rng):
        """Every non-trivial upper construction majorizes phi on 0..60."""
        for _ in range(60):
            lam = rng.uniform(0.1, 0.9)
            case = ("SP2", "SP3a", "SP3b", "SP3c")[rng.integers(0, 4)]
            params = random_params(rng, case, lam)
            bl, al = lambda_weights(params, lam)
            for pair in upper_candidates(params, lam):
                r, s = pair.p - al, pair.q - bl
                for x in range(61):
                    assert phi_eval(params, lam, float(x)).phi <= r + s * x + 1e-9


class TestCoefficientMonotonicity:
    def test_a_monotone_in_q(self, rng):
        """q1 < q2 implies a_n^{q1} < a_n^{q2} for all n.

        Slopes are drawn in the convergent regime the bounds actually use
        (both below beta_lambda) where the sequences stay finite.
        """
        for _ in range(200):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            bl, _ = lambda_weights(params, lam)
            q2 = rng.uniform(0.02, 1.0) * bl
            q1 = q2 * rng.uniform(0.05, 0.95)
            a1 = run_recursion(0.5, q1, params, lam, 8).a
            a2 = run_recursion(0.5, q2, params, lam, 8).a
            assert np.all(a1[1:] < a2[1:])

    def test_b_monotone_in_q_and_p(self, rng):
        """b-sequence dominance in each coefficient separately."""
        for _ in range(200):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            bl, _ = lambda_weights(params, lam)
            p = rng.uniform(0.05, 2.0)
            q2 = rng.uniform(0.02, 1.0) * bl
            q1 = q2 * rng.uniform(0.05, 0.95)
            b1 = run_recursion(p, q1, params, lam, 8).b
            b2 = run_recursion(p, q2, params, lam, 8).b
            assert np.all(b1[2:] < b2[2:]) and b1[1] == b2[1]
            q = rng.uniform(0.02, 1.0) * bl
            p1 = rng.uniform(0.0, 2.0)
            p2 = p1 + rng.uniform(0.01, 1.0)
            b1 = run_recursion(p1, q, params, lam, 8).b
            b2 = run_recursion(p2, q, params, lam, 8).b
            assert np.all(b1[1:] < b2[1:])


class TestExactLogHellinger:
    def test_horizon_zero(self):
        assert exact_log_hellinger(ParamSet(4, 2, 0, 0), 0.5, 3, 0) == 0.0

    def test_sp1_one_step_closed_form(self, rng):
        """n=1 on SP1: (q_E - beta_lambda) * (omega0 + alpha_a/beta_a)."""
        for _ in range(30):
            lam = rng.uniform(0.05, 0.95)
            params = random_params(rng, "SP1", lam)
            bl, _ = lambda_weights(params, lam)
            q_e = params.beta_a**lam * params.beta_h ** (1 - lam)
            omega0 = int(rng.integers(1, 5))
            expected = (q_e - bl) * (omega0 + params.alpha_a / params.beta_a)
            assert exact_log_hellinger(params, lam, omega0, 1) == pytest.approx(expected, rel=1e-12)

    def test_matches_enumeration_oracle(self):
        params = ParamSet(0.5, 0.25, 0, 0)
        value = exact_log_hellinger(params, 0.5, 1, 3)
        log_enum, err = enum_log_hellinger(params, 0.5, 1, 3)
        assert math.exp(log_enum) <= math.exp(value) <= math.exp(log_enum) + err
        assert value == pytest.approx(log_enum, rel=1e-8)

    def test_rejects_bound_cases(self):
        with pytest.raises(CaseError):
            exact_log_hellinger(ParamSet(0.8, 0.6, 2, 2), 0.5, 1, 3)

    def test_strictly_negative_for_positive_horizons(self, rng):
        for _ in range(50):
            lam = rng.uniform(0.05, 0.95)
            case = "NI" if rng.random() < 0.5 else "SP1"
            params = random_params(rng, case, lam)
            assert exact_log_hellinger(params, lam, 1, int(rng.integers(1, 20))) < 0.0


class TestRecursiveLogBounds:
    def test_sp4_upper_is_trivial(self):
        report = recursive_log_bounds(ParamSet(1, 1, 2, 3), 0.5, 4, 7)
        assert report.log_upper == 0.0
        assert report.case is CaseTag.SP4

    def test_sandwiches_enumeration(self, rng):
        params = ParamSet(0.8, 0.6, 2, 1.9)
        for n in range(1, 5):
            report = recursive_log_bounds(params, 0.5, 10, n)
            log_enum, err = enum_log_hellinger(params, 0.5, 10, n)
            assert math.exp(report.log_lower) <= math.exp(log_enum) + err
            assert math.exp(log_enum) <= math.exp(report.log_upper)
            assert report.log_lower < report.log_upper

    def test_sp3d_separation_bound(self):
        """log upper bound <= floor(n/2) log delta with delta < 1 on SP3d."""
        params = ParamSet(1.8, 0.9, 1.2, 3.0)
        log_delta = sp3d_log_delta(params, 0.5)
        assert log_delta < 0.0
        for n in (2, 5, 10, 31):
            report = recursive_log_bounds(params, 0.5, 1, n)
            assert report.log_upper <= (n // 2) * log_delta + 1e-12

    def test_rejects_exact_cases(self):
        with pytest.raises(CaseError):
            recursive_log_bounds(ParamSet(4, 2, 0, 0), 0.5, 1, 3)

    def test_lower_strictly_below_upper(self, rng):
        for _ in range(40):
            lam = rng.uniform(0.1, 0.9)
            case = ("SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4")[rng.integers(0, 6)]
            params = random_params(rng, case, lam)
            report = recursive_log_bounds(params, lam, int(rng.integers(1, 4)), int(rng.integers(1, 12)))
            assert report.log_lower < report.log_upper
            assert report.log_upper <= 0.0


class TestMonotoneInHorizon:
    def test_exact_and_bound_sequences_decrease(self):
        """Exact values / B^L / B^U strictly decrease in n on their cases."""
        table = [
            (ParamSet(1.2, 0.8, 0, 0), CoeffRole.EXACT),
            (ParamSet(1.1, 0.9, 1.1, 0.9), CoeffRole.EXACT),
            (ParamSet(1.25, 0.85, 2, 2), CoeffRole.LOWER),
            (ParamSet(1.25, 0.85, 2, 2), CoeffRole.UPPER),
            (ParamSet(0.8, 0.6, 2, 1.9), CoeffRole.UPPER),
            (ParamSet(0.8, 0.6, 2, 1.1), CoeffRole.UPPER),
            (ParamSet(1, 1.5, 2, 1.8), CoeffRole.UPPER),
        ]
        for params, role in table:
            pair = select_coeffs(params, 0.5, role)
            seq = log_bound_sequence(pair, params, 0.5, 2, 50)
            assert np.all(np.diff(seq[1:]) < 0.0), (params, role)

    def test_slope_limits(self):
        """(1/n) log V_n at n=200: -> 0 on NI, -> (alpha_a/beta_a) x0 on SP1."""
        from gwidiv import solve_fixed_point

        ni = ParamSet(0.8, 0.6, 0, 0)
        assert abs(exact_log_hellinger(ni, 0.5, 1, 200) / 200) < 1e-3

        sp1 = ParamSet(0.8, 0.6, 0.8, 0.6)
        bl, _ = lambda_weights(sp1, 0.5)
        q_e = math.sqrt(0.8 * 0.6)
        x0 = solve_fixed_point(q_e, bl).x0
        target = sp1.alpha_a / sp1.beta_a * x0
        assert abs(exact_log_hellinger(sp1, 0.5, 1, 200) / 200 - target) < 1e-3


def test_dispatcher_log_hellinger_bounds(rng):
    for _ in range(30):
        lam = rng.uniform(0.1, 0.9)
        params = random_any(rng, lam)
        report = log_hellinger_bounds(params, lam, 2, 4)
        if classify(params, lam).exactly_computable:
            assert report.log_exact is not None
            assert report.log_lower == report.log_exact
        else:
            assert report.log_exact is None
            assert report.log_lower < report.log_upper


def test_dispatcher_horizon_zero_is_trivial_for_every_case(rng):
    for case in ("NI", "SP1", "SP2", "SP3d", "SP4"):
        params = random_params(rng, case)
        report = log_hellinger_bounds(params, 0.5, 3, 0)
        assert report.log_exact == 0.0
        assert report.log_lower == report.log_upper == 0.0


# Reference copies of the lattice scans as they stood before their early
# stops: the separation scan that runs until phi is one nat below the running
# maximum, the bisection run to full tolerance, and the per-point phi_eval
# loops.  The scans in gwidiv.recursions must return exactly what these do.


def _ref_sp3d_log_delta(params, lam):
    eps = 1.0 - math.exp(phi_eval(params, lam, 0.0).phi)
    x_star = round((params.alpha_h - params.alpha_a) / (params.beta_a - params.beta_h))
    best = -math.inf
    x = 0
    while True:
        phi_x = phi_eval(params, lam, float(x)).phi
        g = phi_x - eps * math.exp(-varphi_value(params, lam, float(x)))
        if g > best:
            best = g
        if x > x_star and phi_x < best - 1.0:
            return best, x
        x += 1


def _ref_solve_x_max(params, lam, tol=1e-12):
    lo, hi = 0.0, 1.0
    while phi_eval(params, lam, hi).phi_prime > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi_eval(params, lam, mid).phi_prime > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_lattice_argmax_phi(params, lam):
    k = 0
    val = phi_eval(params, lam, 0.0).phi
    while True:
        nxt = phi_eval(params, lam, float(k + 1)).phi
        if nxt <= val:
            return k
        k, val = k + 1, nxt


def _ref_majorant_failure(params, lam, pair, tol=1e-9):
    """The message _require_majorant raises for ``pair``, or None."""
    bl, al = lambda_weights(params, lam)
    r, s = pair.p - al, pair.q - bl
    asym = asymptote_pair(params, lam)
    r_t, s_t = asym.p - al, asym.q - bl
    if s < s_t - 1e-12:
        return f"slope of {pair.label} pair below the asymptote slope"
    if abs(s - s_t) <= 1e-12:
        if r < r_t - tol:
            return f"intercept of {pair.label} pair below the asymptote intercept"
        x_check = 2
    else:
        x_check = max(2, math.ceil((r_t - r) / (s - s_t)) + 1)
    for x in range(0, x_check + 1):
        if phi_eval(params, lam, float(x)).phi > r + s * x + tol:
            return f"{pair.label} pair fails to dominate phi at x={x}"
    return None


def _sp3d(rng, lam, gap):
    """An SP3d constellation with |beta_a - beta_h| = gap and rates crossing
    at an integer x* in 1..30.  At gap = 1e-2 phi decays so slowly that the
    one-nat scan runs for 10^4 steps or more."""
    while True:
        beta_h = rng.uniform(0.3, 1.2)
        beta_a = beta_h + rng.choice((-gap, gap))
        alpha_a = rng.uniform(0.3, 2.2)
        alpha_h = alpha_a + float(rng.integers(1, 31)) * (beta_a - beta_h)
        if alpha_h < 0.05 or beta_a <= 0.0:
            continue
        params = ParamSet(beta_a, beta_h, alpha_a, alpha_h)
        if classify(params, lam) is CaseTag.SP3D:
            return params


class TestLatticeScansMatchReference:
    LAMS = (0.05, 0.3, 0.5, 0.7, 0.95)

    def test_lattice_evaluator_is_phi_eval(self, rng):
        for case in ALL_CASES:
            for lam in self.LAMS:
                params = random_params(rng, case, lam)
                for x, (phi, varphi) in zip(range(40), _phi_lattice(params, lam)):
                    assert phi == phi_eval(params, lam, float(x)).phi
                    assert varphi == varphi_value(params, lam, float(x))

    def test_separation_scan(self, rng):
        for lam in self.LAMS:
            for _ in range(8):
                for params in (random_params(rng, "SP3d", lam),
                               _sp3d(rng, lam, rng.uniform(0.05, 0.8))):
                    assert sp3d_log_delta(params, lam) == _ref_sp3d_log_delta(params, lam)[0]

    def test_separation_scan_slow_decay(self, rng):
        for lam in (0.2, 0.5, 0.8):
            params = _sp3d(rng, lam, 1e-2)
            reference, steps = _ref_sp3d_log_delta(params, lam)
            assert steps >= 10**4
            assert sp3d_log_delta(params, lam) == reference

    def test_bisection_floor(self, rng):
        for lam in self.LAMS:
            for _ in range(8):
                params = random_params(rng, "SP3b", lam)
                assert _floor_x_max(params, lam) == math.floor(_ref_solve_x_max(params, lam))

    def test_lattice_argmax(self, rng):
        for case in ("SP3a", "SP3b", "SP3c", "SP3d"):
            for lam in self.LAMS:
                params = random_params(rng, case, lam)
                assert lattice_argmax_phi(params, lam) == _ref_lattice_argmax_phi(params, lam)

    def test_majorant_check(self, rng):
        """Valid candidates pass both checks; lowered ones fail both, alike."""
        for case in ("SP2", "SP3a", "SP3b", "SP3c"):
            for lam in self.LAMS:
                params = random_params(rng, case, lam)
                for pair in upper_candidates(params, lam):
                    for dp, dq in ((0.0, 0.0), (-1e-3, 0.0), (-0.05, 0.0), (0.0, -1e-3)):
                        shifted = CoefficientPair(max(pair.p + dp, 0.0), pair.q + dq,
                                                  pair.role, pair.label)
                        expected = _ref_majorant_failure(params, lam, shifted)
                        try:
                            _require_majorant(params, lam, shifted)
                        except GWIError as exc:
                            assert str(exc) == expected
                        else:
                            assert expected is None

    def test_slow_sp3d_refused_by_the_one_nat_scan(self):
        """phi decays by ~3e-8 per step here, so the one-nat scan passes its
        10^7-point limit; the concavity stop ends within a few dozen points."""
        params = ParamSet(2.2305155174112734, 2.2312022549096664,
                          3.7587422517483704, 3.7484411892724756)
        log_delta = sp3d_log_delta(params, 0.5)
        assert math.isfinite(log_delta) and log_delta <= 0.0
        report = log_hellinger_bounds(params, 0.5, 1, 10)
        assert report.case is CaseTag.SP3D
        assert report.log_lower <= report.log_upper <= 0.0
