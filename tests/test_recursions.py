"""Backbone recursions, coefficient selection and recursive bounds."""

import dataclasses
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from gwidiv import (
    BoundOrderError,
    CaseError,
    CaseTag,
    CoeffRole,
    ParamSet,
    SDEParams,
    classify,
    enum_log_hellinger,
    exact_log_hellinger,
    lambda_weights,
    log_hellinger_bounds,
    prelimit_log_bounds,
    recursive_log_bounds,
    run_recursion,
    select_coeffs,
    sp3d_log_delta,
    upper_candidates,
)
from gwidiv.params import GWIError, _geometric_mean, phi_eval, varphi_value
from gwidiv import recursions
from gwidiv.closed_form import (asymptotic_log_slope, closed_form_log_lower,
                                closed_form_log_upper, closed_form_lower_terms,
                                closed_form_upper_terms)
from gwidiv.cli import PRESETS
from gwidiv.recursions import (CoefficientPair, Constellation, LogBoundReport, _floor_x_max,
                               _tail)

from conftest import (ALL_CASES, assert_trace_matches, exact_tail, log_bound_at,
                      prefix_sequences, random_any, random_params, reference_traces)


class TestRunRecursion:
    def test_slope_beta_lambda_freezes_a(self):
        """q = beta_lambda freezes the recursion: a == 0, b == p - alpha_lambda."""
        params = ParamSet(0.8, 0.6, 2, 2)
        bl, al = lambda_weights(params, 0.5)
        a, b = prefix_sequences(1.3, bl, params, 0.5, 12)
        assert np.all(a[1:] == 0.0)
        assert np.allclose(b[1:], 1.3 - al)

    def test_zero_slope(self):
        """q = 0: a == -beta_lambda; b freezes at p e^{-beta_lambda} - alpha_lambda
        from the second step on (the first step uses a_0 = 0)."""
        params = ParamSet(0.8, 0.6, 2, 1.9)
        bl, al = lambda_weights(params, 0.5)
        a, b = prefix_sequences(0.7, 0.0, params, 0.5, 9)
        assert np.allclose(a[1:], -bl)
        assert b[1] == pytest.approx(0.7 - al)
        assert np.allclose(b[2:], 0.7 * math.exp(-bl) - al)

    def test_one_step_unrolling(self, rng):
        for _ in range(50):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            bl, al = lambda_weights(params, lam)
            p, q = rng.uniform(0.0, 3.0, size=2)
            trace = run_recursion(p, q, params, lam, 1)
            assert trace.a_n == pytest.approx(q - bl)
            assert trace.b_sum == pytest.approx(p - al)
            assert trace.a_sum == trace.a_n

    def test_linear_interrelation_to_machine_precision(self, rng):
        for _ in range(100):
            lam = rng.uniform(0.05, 0.95)
            params = random_any(rng, lam)
            bl, al = lambda_weights(params, lam)
            p = rng.uniform(0.0, 3.0)
            q = rng.uniform(0.02, 1.1) * bl
            n = 15 if q < bl else 4
            a, b = prefix_sequences(p, q, params, lam, n)
            expected = p / q * a[1:] + p / q * bl - al
            assert np.allclose(b[1:], expected, rtol=1e-15, atol=1e-12)

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
                a, _ = prefix_sequences(0.5, q, params, lam, 10)
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
            a1, _ = prefix_sequences(0.5, q1, params, lam, 8)
            a2, _ = prefix_sequences(0.5, q2, params, lam, 8)
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
            _, b1 = prefix_sequences(p, q1, params, lam, 8)
            _, b2 = prefix_sequences(p, q2, params, lam, 8)
            assert np.all(b1[2:] < b2[2:]) and b1[1] == b2[1]
            q = rng.uniform(0.02, 1.0) * bl
            p1 = rng.uniform(0.0, 2.0)
            p2 = p1 + rng.uniform(0.01, 1.0)
            _, b1 = prefix_sequences(p1, q, params, lam, 8)
            _, b2 = prefix_sequences(p2, q, params, lam, 8)
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


class TestBeyondTheDoubleRange:
    """A log value beyond the double range is refused with GWIError, never
    returned as nan or -inf; these once returned nan or -inf, or raised an
    OverflowError."""

    def test_no_immigration_value_at_huge_horizon_is_finite(self):
        """The immigration term vanishes on NI; it was 0 * -inf = nan."""
        params = ParamSet(0.5, 5.0, 0.0, 0.0)
        value = exact_log_hellinger(params, 0.5, 1, 10**308)
        assert math.isfinite(value)
        assert value == exact_log_hellinger(params, 0.5, 1, 10**6) < 0.0
        report = log_hellinger_bounds(params, 0.5, 1, 10**308)
        assert report.log_lower == report.log_exact == report.log_upper == value

    @pytest.mark.parametrize("params, field", [
        (ParamSet(4.0, 2.0, 4.0, 2.0), "log_exact"),  # SP1: -inf in every field
        (ParamSet(0.8, 0.6, 20.0, 2.0), "log_lower"),  # SP3c
    ])
    def test_non_finite_report_refused(self, params, field):
        with pytest.raises(GWIError, match=f"{field} is -inf, not a finite double"):
            log_hellinger_bounds(params, 0.5, 1, 10**308)
        if params.alpha_a / params.alpha_h == params.beta_a / params.beta_h:
            with pytest.raises(GWIError, match="not a finite double"):
                exact_log_hellinger(params, 0.5, 1, 10**308)

    @pytest.mark.parametrize("field", ["log_lower", "log_upper", "log_exact"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_report_fields_must_be_finite(self, field, value):
        fields = {"log_lower": -2.0, "log_upper": -1.0, "log_exact": None, field: value}
        with pytest.raises(GWIError, match=f"{field} is {value}"):
            LogBoundReport(**fields, method="bounds", case=CaseTag.SP2)


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
            seq = [log_bound_at(pair, params, 0.5, 2, n) for n in range(1, 51)]
            assert np.all(np.diff(seq) < 0.0), (params, role)

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
    asym = Constellation(params, lam).asymptote
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


#: flat humps where phi's first float non-increase comes before the
#: continuous maximizer's floor (4400 against 4403, 13925 against 13952); the
#: case pair and the horizontal pair both sit at that floor (SP3b) or at
#: floor(x*) (SP3c), or one point further right.  On the last two the
#: horizontal line through that first non-increase (6028, 14183) failed the
#: lattice majorant check, and every bound on them was refused.
FLAT_HUMPS = [
    (ParamSet(1.4128184515088393, 1.4130391457726639, 1.5082431015426703, 2.4806306341807254),
     0.2534580531603983, "secant(4404,4405)"),
    (ParamSet(1.033993741049962, 1.0342344970529096, 4.087050962879281, 0.7278870549318246),
     0.6528975137841735, "chord(0,13952)"),
    (ParamSet(1.451381826623082, 1.451704497223911, 2.2039589576609155, 4.185718042288991),
     0.017688497501229413, "secant(6138,6139)"),
    (ParamSet(1.61863283704579, 1.618418758099448, 0.08129774901932003, 3.189141060008162),
     0.8933375185003857, "secant(14518,14519)"),
]


class TestLatticeScansMatchReference:
    LAMS = (0.05, 0.3, 0.5, 0.7, 0.95)

    def test_lattice_evaluator_is_phi_eval(self, rng):
        for case in ALL_CASES:
            for lam in self.LAMS:
                params = random_params(rng, case, lam)
                for x, (phi, varphi) in zip(range(40), Constellation(params, lam)._lattice()):
                    assert phi == phi_eval(params, lam, float(x)).phi
                    assert varphi == varphi_value(params, lam, float(x))
                for x, (phi, _) in zip(range(17, 20), Constellation(params, lam)._lattice(17)):
                    assert phi == phi_eval(params, lam, float(x)).phi

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
        params, lam, _ = FLAT_HUMPS[0]
        assert _floor_x_max(params, lam) == math.floor(_ref_solve_x_max(params, lam)) == 4403

    def test_floor_x_max_is_zero_without_an_interior_maximum(self, rng):
        """phi'(0) <= 0 (SP3a): phi falls from 0 on, so its maximizer is 0."""
        for lam in self.LAMS:
            params = random_params(rng, "SP3a", lam)
            assert phi_eval(params, lam, 0.0).phi_prime <= 0.0
            assert _floor_x_max(params, lam) == 0

    def test_lattice_argmax(self, rng):
        """The horizontal pair sits at the lattice argmax of phi."""
        for case in ("SP3a", "SP3b", "SP3c"):
            for lam in self.LAMS:
                params = random_params(rng, case, lam)
                horizontal = Constellation(params, lam).uppers[-1]
                assert horizontal.label == f"horizontal(z*={_ref_lattice_argmax_phi(params, lam)})"

    @pytest.mark.parametrize("params, lam, case_label", FLAT_HUMPS)
    def test_flat_hump_horizontal_is_above_the_lattice_maximum(self, params, lam, case_label):
        """On a flat hump the float phi stops rising before its true lattice
        maximum; the horizontal line must still reach that maximum, taken at
        50 digits, up to the rounding of the float varphi: exp of an argument
        near 10 carries a relative error of a few eps, so 8 eps * varphi(z*).
        A walk to the first float non-increase of phi passes 3.4e-10 below it
        on the second hump."""
        import mpmath

        case_pair, _, horizontal = Constellation(params, lam).uppers
        assert case_pair.label == case_label
        _, al = lambda_weights(params, lam)
        z = int(horizontal.label.removeprefix("horizontal(z*=").removesuffix(")"))
        with mpmath.workdps(50):
            lam_m = mpmath.mpf(lam)

            def phi(x):
                fa = mpmath.mpf(params.beta_a) * x + mpmath.mpf(params.alpha_a)
                fh = mpmath.mpf(params.beta_h) * x + mpmath.mpf(params.alpha_h)
                return fa**lam_m * fh ** (1 - lam_m) - (lam_m * fa + (1 - lam_m) * fh)

            values = {x: phi(x) for x in range(z - 50, z + 51)}
            argmax = max(values, key=values.get)
            # phi is concave: a maximum inside the window is the lattice maximum
            assert z - 50 < argmax < z + 50
            allowance = 8 * 2.0**-52 * varphi_value(params, lam, float(z))
            assert horizontal.p - al >= values[argmax] - allowance

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
                            Constellation(params, lam)._require_majorant(shifted)
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


#: SP3c with offspring means 1e-9 apart: x* is near 1e9, and every majorant
#: check falls back to X_check = 2
TINY_GAP = ParamSet(1.000000001, 1.0, 1.0, 2.0)

#: peaks and majorant checks far beyond the kept prefix: SP3c (x* = 10^4),
#: SP3b (peaks near 100 and 700) and SP3d
FAR_LATTICES = [(1.001, 1.0, 1.0, 11.0), (0.8, 0.6, 30.0, 2.0), (0.6, 0.8, 2.0, 200.0),
                (1.2, 1.0, 1.0, 300.0)]


class TestKeptLattice:
    """A Constellation keeps at most ``_KEPT`` lattice points, whatever its
    peak or check length, and reading them back changes no value."""

    def test_walk_is_the_lattice(self, rng):
        c = Constellation(random_params(rng, "SP3c", 0.5), 0.5)
        for start in (5, 0, 2, 63, 64, 100):
            assert list(islice(c._walk(start), 80)) == list(islice(c._lattice(start), 80))
            assert len(c._points) <= recursions._KEPT

    def test_far_peak_is_read_without_the_points_below_it(self):
        c = Constellation(TINY_GAP, 0.5)
        assert c.case is CaseTag.SP3C and c._peak[0] == 999999917
        with pytest.raises(GWIError, match=r"intercept of secant\(999999918,999999919\) pair"):
            c.uppers
        assert c._points == []
        report = log_hellinger_bounds(TINY_GAP, 0.1, 1, 10)
        assert report.method == "lower:geometric-mean upper:cutoff(1)"
        assert len(recursions._memo._points) <= 3

    @pytest.mark.parametrize("fields", FAR_LATTICES)
    def test_far_lattices_match_a_streamed_lattice(self, fields, monkeypatch):
        params = ParamSet(*fields)
        for lam in (0.1, 0.5, 0.9):
            c = Constellation(params, lam)
            kept = _outcome(lambda p: recursions._report(c, 2, 7), params)
            assert len(c._points) == recursions._KEPT
            with monkeypatch.context() as m:
                m.setattr(recursions, "_KEPT", 0)
                c = Constellation(params, lam)
                streamed = _outcome(lambda p: recursions._report(c, 2, 7), params)
                assert c._points == []
            assert kept == streamed, (fields, lam)


class TestDerivedOnce:
    """A Constellation classifies once and builds only the pairs asked for."""

    def test_one_peak_for_the_case_pair_and_the_horizontal(self, rng, monkeypatch):
        """On SP3b ``upper`` and ``uppers`` share one ``_peak``: one bisection."""
        calls = []
        real = recursions._floor_x_max
        monkeypatch.setattr(recursions, "_floor_x_max", lambda *a: calls.append(a) or real(*a))
        for params, lam in ((random_params(rng, "SP3b"), 0.5), FLAT_HUMPS[0][:2]):
            calls.clear()
            c = Constellation(params, lam)
            c.upper
            peak = c._peak
            c.uppers
            assert c._peak is peak
            assert len(calls) == 1, params

    def test_one_classify_per_recursive_bound(self, rng, monkeypatch):
        points = [(random_params(rng, case), 0.5)
                  for case in ("SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4")]
        points.append((ParamSet(0.8, 0.6, 2.0, 1.1), 0.5))
        points += [(params, lam) for params, lam, _ in FLAT_HUMPS]
        calls = []
        real = recursions.classify
        monkeypatch.setattr(recursions, "classify", lambda *a: calls.append(a) or real(*a))
        for params, lam in points:
            calls.clear()
            recursive_log_bounds(params, lam, 3, 10)
            assert len(calls) == 1, params

    def test_closed_form_lower_checks_no_upper_pair(self, monkeypatch):
        params = ParamSet(0.8, 0.6, 2.0, 1.1)
        assert classify(params, 0.5) is CaseTag.SP3B
        checked = []
        monkeypatch.setattr(Constellation, "_require_majorant",
                            lambda self, pair: checked.append(pair.label) or pair)
        closed_form_log_lower(params, 0.5, 3, 10)
        assert checked == []
        closed_form_log_upper(params, 0.5, 3, 10)
        assert checked == ["secant(0,1)"]

    def test_one_classify_per_dispatcher_report(self, rng, monkeypatch):
        """log_hellinger_bounds hands its one Constellation down on every case;
        a repeat on the same ParamSet object takes it from the memo."""
        points = [(random_params(rng, case), 0.5) for case in ALL_CASES]
        points += [(params, lam) for params, lam, _ in FLAT_HUMPS]
        calls = _count(monkeypatch, recursions, "classify")
        for params, lam in points:
            for n in (0, 1, 10):
                fresh = dataclasses.replace(params)
                for expected in (1, 0):
                    calls.clear()
                    log_hellinger_bounds(fresh, lam, 3, n)
                    assert len(calls) == expected, (params, n)

    def test_one_classify_per_closed_form(self, rng, monkeypatch):
        calls = _count(monkeypatch, recursions, "classify")
        for case in ALL_CASES[:-1]:
            params = random_params(rng, case)
            bounds = [closed_form_log_lower] + ([closed_form_log_upper] if case != "SP3d" else [])
            for bound in bounds:
                fresh = dataclasses.replace(params)
                for expected in (1, 0):
                    calls.clear()
                    bound(fresh, 0.5, 3, 10)
                    assert len(calls) == expected, (case, bound.__name__)

    def test_one_classify_per_report(self, rng, monkeypatch):
        """log_hellinger_bounds and both closed forms on one ParamSet object,
        as the ``hellinger`` command makes them, classify once."""
        calls = _count(monkeypatch, recursions, "classify")
        for case in ALL_CASES:
            params = random_params(rng, case)
            calls.clear()
            _report(params, 0.5, 3, 10)
            assert len(calls) == 1, case

    def test_one_solve_per_slope_in_a_report(self, rng, monkeypatch):
        """On NI/SP1 both closed forms use the geometric-mean pair: one solve.
        On SP2-SP3c the lower and upper pairs have two slopes: two solves."""
        solves = _count(monkeypatch, recursions, "solve_fixed_point")
        for case, expected in (("NI", 1), ("SP1", 1), ("SP2", 2), ("SP3a", 2), ("SP3b", 2),
                               ("SP3c", 2)):
            for _ in range(3):
                params = random_params(rng, case)
                solves.clear()
                _report(params, 0.5, 3, 10)
                assert len(solves) == expected, (case, params)
                _report(params, 0.5, 3, 1000)
                assert len(solves) == expected, (case, params)

    def test_prelimit_classifies_once_and_solves_once(self, monkeypatch):
        classified = _count(monkeypatch, recursions, "classify")
        solves = _count(monkeypatch, recursions, "solve_fixed_point")
        for sde in (SDEParams(0.5, 2.0, 1.0, 1.0, 1.0), SDEParams(1.0, 0.5, 2.0, 1.0, 1.0),
                    SDEParams(0.0, 0.0, 1.0, 1.0, 2.0)):
            for m in (10, 1000, 10**6):
                classified.clear()
                solves.clear()
                lower, upper = prelimit_log_bounds(sde, 0.5, 1.0, m, m)
                assert lower <= upper
                assert (len(classified), len(solves)) == (1, 1), (sde, m)


class TestConstellationMemo:
    """The public functions share the last Constellation built on the same
    ParamSet object and lambda; a hit gives what a fresh build gives."""

    def test_hit_equals_fresh_by_hex_and_type(self, rng):
        for case in ALL_CASES:
            for _ in range(2):
                lam = float(rng.uniform(0.2, 0.8))
                params = random_params(rng, case, lam)
                calls = _memo_calls(lam, Constellation(params, lam).star)
                fresh = {}
                for name, call in calls.items():
                    recursions._memo = None
                    fresh[name] = _outcome(call, dataclasses.replace(params))
                for name, call in calls.items():
                    # every sibling first, refused ones included (the SP3d and
                    # SP4 closed-form upper bound, roles the case lacks)
                    for sibling in calls.values():
                        same = dataclasses.replace(params)
                        _outcome(sibling, same)
                        assert _outcome(call, same) == fresh[name], (case, name)
                    # a refused call at lambda = 1.5 leaves the memo as it was
                    same = dataclasses.replace(params)
                    _outcome(call, same)
                    with pytest.raises(GWIError, match="order lambda"):
                        log_hellinger_bounds(same, 1.5, 3, 10)
                    assert _outcome(call, same) == fresh[name], (case, name)

    def test_equal_params_of_another_type_miss(self, monkeypatch):
        """Equal ParamSets that are separate objects (numpy fields, -0.0 for
        0.0) each build their own Constellation and get a fresh build's result."""
        classified = _count(monkeypatch, recursions, "classify")
        for fields in ((0.8, 0.6, 2.0, 1.1), (0.8, 0.6, 0.0, 0.0)):
            variants = (ParamSet(*map(np.float64, fields)), ParamSet(*fields),
                        ParamSet(*(-0.0 if f == 0.0 else f for f in fields)))
            assert variants[0] == variants[1] == variants[2]
            calls = _memo_calls(0.5, Constellation(variants[1], 0.5).star)
            fresh = []
            for params in variants:
                recursions._memo = None
                fresh.append([_outcome(call, params) for call in calls.values()])
            assert fresh[0] != fresh[1]  # the types differ
            recursions._memo = None
            classified.clear()
            for params, want in zip(variants, fresh):
                assert [_outcome(call, params) for call in calls.values()] == want
            assert len(classified) == 3
            assert recursions._memo.params is variants[2]

    def test_fixed_point_keys_on_the_slope_type(self):
        """Equal slopes of another type each get their own solve: a numpy
        slope's x0 is a numpy float and would change the type of a result."""
        params = ParamSet(0.8, 0.6, 2.0, 1.5)
        star = Constellation(params, 0.5).star
        pairs = [dataclasses.replace(star, q=np.float64(star.q)), star]
        fresh = []
        for pair in pairs:
            recursions._memo = None
            fresh.append(_signature(asymptotic_log_slope(pair, params, 0.5)))
        assert fresh[0] != fresh[1]
        recursions._memo = None
        assert [_signature(asymptotic_log_slope(pair, params, 0.5)) for pair in pairs] == fresh


def _memo_calls(lam, star):
    """The public calls that read the memo, by name, on one ParamSet."""
    calls = {
        "bounds": lambda p: log_hellinger_bounds(p, lam, 3, 10),
        "uppers": lambda p: upper_candidates(p, lam),
        "slope": lambda p: asymptotic_log_slope(star, p, lam),
    }
    for explicit in (False, True):
        calls[f"lower {explicit}"] = lambda p, e=explicit: closed_form_lower_terms(p, lam, 3, 10, e)
        calls[f"upper {explicit}"] = lambda p, e=explicit: closed_form_upper_terms(p, lam, 3, 10, e)
    for role in CoeffRole:
        calls[f"select {role.value}"] = lambda p, r=role: select_coeffs(p, lam, r)
    return calls


def _signature(value):
    """The type and float.hex of every number in a result, recursively."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_signature(getattr(value, field.name))
                                           for field in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(map(_signature, value))
    return type(value).__name__, repr(value)


def _outcome(call, params):
    try:
        return _signature(call(params))
    except GWIError as exc:
        return type(exc).__name__, str(exc)


def _count(monkeypatch, module, name):
    """Record the calls of ``module.name`` in the returned list."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def _report(params, lam, omega0, n):
    """The three calls of one ``hellinger`` report, closed-form refusals kept."""
    out = [log_hellinger_bounds(params, lam, omega0, n)]
    for bound in (closed_form_log_lower, closed_form_log_upper):
        try:
            out.append(bound(params, lam, omega0, n))
        except CaseError as exc:
            out.append(str(exc))
    return out


def test_report_refuses_crossed_bounds():
    """On these near-identical supercritical laws the SP2 secant(0,1) slope
    rounds too low and log_lower -199.42 came back above log_upper -201.93."""
    params = ParamSet(2.603618456914746, 2.6036184569147456,
                      4.469573356601049, 4.469573356601049)
    with pytest.raises(BoundOrderError, match="exceeds log_upper"):
        log_hellinger_bounds(params, 0.3989426784924799, 3, 85)
    # one rounding allowance, 1e-12 * max(1, |log_lower|, |log_upper|), is kept
    LogBoundReport(-200.0 + 1e-10, -200.0, None, "test", CaseTag.SP2)
    with pytest.raises(BoundOrderError, match="exceeds log_upper"):
        LogBoundReport(-200.0 + 1e-9, -200.0, None, "test", CaseTag.SP2)


def test_dispatcher_rejects_omega0_below_one_at_every_horizon(rng):
    for case in ALL_CASES:
        params = random_params(rng, case)
        for n in (0, 1, 4):
            for omega0 in (0, -5):
                with pytest.raises(GWIError, match="omega0"):
                    log_hellinger_bounds(params, 0.5, omega0, n)


# A copy of the array recursion that the scalar fold replaced: per-step
# ndarrays, np.cumsum for the b-sum and the pairwise np.sum for the exact
# value.  Bounds must match it bit for bit up to the first k with a_k ==
# a_{k-1}, and beyond it add the repeats of b_k exactly, rounded once; the
# exact value, whose a-sum is compensated, must match within 1e-15 relative.


def _ref_trace(p, q, params, lam, n):
    bl, al = lambda_weights(params, lam)
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    for k in range(1, n + 1):
        e = math.exp(a[k - 1]) if a[k - 1] < 709.0 else math.inf
        a[k] = q * e - bl if q > 0.0 else -bl
        b[k] = p * e - al if p > 0.0 else -al
    return a, b


def _ref_log_bounds(pair, params, lam, omega0, horizons):
    """{n: a_n*omega0 + b-sum}: np.cumsum up to the first k with a_k == a_{k-1},
    then the n - k repeats of b_k added exactly and rounded once."""
    a, b = _ref_trace(pair.p, pair.q, params, lam, max(horizons))
    b_sums = np.concatenate(([0.0], np.cumsum(b[1:])))
    stops = np.flatnonzero(a[1:] == a[:-1])
    k = int(stops[0]) + 1 if stops.size else max(horizons)
    return {n: float(a[n] * omega0 + (b_sums[n] if n <= k else
                                      exact_tail(float(b_sums[k]), float(b[k]), n - k)))
            for n in horizons}


def _ref_recursive_log_bounds(params, lam, omega0, horizons):
    """{n: (log_lower, log_upper, method)}, one array run per pair up to max(horizons)."""
    c = Constellation(params, lam)
    lower = _ref_log_bounds(c.star, params, lam, omega0, horizons)
    uppers = [(pair.label, _ref_log_bounds(pair, params, lam, omega0, horizons))
              for pair in c.uppers]
    out = {}
    for n in horizons:
        best_upper, best_label = 0.0, "cutoff(1)"
        for label, values in uppers:
            if values[n] < best_upper:
                best_upper, best_label = values[n], label
        if c.case is CaseTag.SP3D and (n // 2) * c.log_delta() < best_upper:
            best_upper, best_label = (n // 2) * c.log_delta(), "separation-delta"
        out[n] = (lower[n], best_upper, f"lower:geometric-mean upper:{best_label}")
    return out


FOLD_HORIZONS = (1, 2, 10, 10**3, 10**4, 10**5)


class TestFoldMatchesArrayPath:
    @pytest.mark.parametrize("lam", (0.01, 0.5, 0.99))
    def test_bounds_bit_identical(self, rng, lam):
        for case in ("SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4"):
            params = random_params(rng, case, lam)
            reference = _ref_recursive_log_bounds(params, lam, 3, FOLD_HORIZONS)
            for n in FOLD_HORIZONS:
                report = recursive_log_bounds(params, lam, 3, n)
                lower, upper, method = reference[n]
                assert report.log_lower.hex() == lower.hex(), (case, n)
                assert report.log_upper.hex() == upper.hex(), (case, n)
                assert report.method == method

    @pytest.mark.parametrize("lam", (0.01, 0.5, 0.99))
    def test_exact_within_stated_tolerance(self, rng, lam):
        for case in ("NI", "SP1"):
            params = random_params(rng, case, lam)
            star = Constellation(params, lam).star
            a, _ = _ref_trace(star.p, star.q, params, lam, FOLD_HORIZONS[-1])
            tail = params.alpha_a / params.beta_a
            for n in FOLD_HORIZONS:
                ref = float(a[n] * 3 + tail * a[1:n + 1].sum())
                value = exact_log_hellinger(params, lam, 3, n)
                if case == "NI":
                    assert value.hex() == ref.hex(), n
                else:
                    assert abs(value - ref) <= 1e-15 * abs(ref), (n, value, ref)
                trace = run_recursion(star.p, star.q, params, lam, n)
                assert trace.a_n == a[n]
                assert abs(trace.a_sum - math.fsum(a[1:n + 1])) <= 1e-15 * abs(trace.a_sum)

    def test_saturating_pair(self):
        """q > beta_lambda: a reaches inf and stays there; a_sum is inf, not nan."""
        params = ParamSet(0.8, 0.6, 2.0, 1.9)
        a, b = _ref_trace(1.0, 1.5, params, 0.5, 40)
        horizons = (1, 2, 3, 5, 10, 40)
        seq = _ref_log_bounds(CoefficientPair(1.0, 1.5, CoeffRole.UPPER), params, 0.5, 3,
                              horizons)
        assert math.isinf(a[40])
        for n in horizons:
            trace = run_recursion(1.0, 1.5, params, 0.5, n)
            assert trace.a_n == a[n]
            assert trace.b_sum == np.cumsum(b[1:])[n - 1]
            assert trace.a_n * 3 + trace.b_sum == seq[n]
            if math.isinf(a[n]):
                assert trace.a_sum == math.inf
            else:
                assert trace.a_sum == math.fsum(a[1:n + 1])


def _mp_exact_log_hellinger(params, lam, omega0, horizons):
    """{n: (value, rounding)}: the NI/SP1 exact value at 50 digits for the float
    inputs, and a first-order bound on the float computation's rounding error.

    Each float step rounds q, exp, the product and the difference, a few
    units in the last place of q*e^{a_{k-1}} and beta_lambda, and the next
    step scales an error in a_{k-1} by q*e^{a_{k-1}}.  The compensated a-sum
    and the final combination add a few more units of |a_n| omega0 and
    |sum a_k| alpha_a/beta_a.  Near lambda = 0 or 1, where q*e^a - beta_lambda
    cancels, the bound reaches about 3e-11 relative.
    """
    import mpmath

    with mpmath.workdps(50):
        u = mpmath.mpf(2) ** -53
        lam_m = mpmath.mpf(lam)
        beta_a, beta_h = mpmath.mpf(params.beta_a), mpmath.mpf(params.beta_h)
        q = beta_a**lam_m * beta_h ** (1 - lam_m)
        bl = lam_m * beta_a + (1 - lam_m) * beta_h
        tail = mpmath.mpf(params.alpha_a) / beta_a
        a = total = err_a = err_total = mpmath.mpf(0)
        out = {}
        for k in range(1, max(horizons) + 1):
            growth = q * mpmath.exp(a)
            a = growth - bl
            err_a = growth * err_a + 8 * u * (growth + bl)
            total += a
            err_total += err_a
            if k in horizons:
                rounding = (omega0 * err_a + tail * err_total
                            + 4 * u * (omega0 * abs(a) + tail * abs(total)))
                out[k] = (float(a * omega0 + tail * total), float(rounding))
        return out


@pytest.mark.parametrize("lam", (0.01, 0.5, 0.99))
def test_exact_matches_50_digit_reference(rng, lam):
    horizons = (1, 2, 10, 100, 10**3, 10**4)
    for case in ("NI", "SP1", "SP1"):
        params = random_params(rng, case, lam, beta_hi=1.6)
        omega0 = int(rng.integers(1, 20))
        reference = _mp_exact_log_hellinger(params, lam, omega0, horizons)
        for n in horizons:
            value = exact_log_hellinger(params, lam, omega0, n)
            ref, rounding = reference[n]
            assert abs(value - ref) <= rounding, (params, n, value, ref, rounding)


# The converged tail: once a_k repeats, run_recursion adds the remaining
# n - k repeats to each sum with one rounding (_tail).  Everything below
# compares by float.hex with the exact sum rounded once, so signed zeros and
# the last bit count.  The plain in-order loops stay as a yardstick: the one
# rounding lies within their own rounding error of them.


def _plain_repeat(s, c, r):
    for _ in range(r):
        s += c
    return s


def _plain_two_sum(s, comp, c, r):
    for _ in range(r):
        t = s + c
        z = t - s
        comp += (s - (t - z)) + (c - z)
        s = t
    return s, comp


def _plain_error_bound(s, c, r):
    """How far r in-order additions of c to s can round: at most half an ulp
    of a partial sum each.  The partial sums lie near [s, s + r*c], so a whole
    ulp of the larger end covers each with room to spare."""
    return r * math.ulp(max(abs(s), abs(s + r * c)))


_ULP1 = math.ulp(1.0)
_TINY = math.ulp(0.0)

#: (s, c, label) edge inputs of the tail: ties, binade edges, signed zeros,
#: subnormals, inf, nan and overflow
REPEAT_INPUTS = [
    *[(1.0 + _ULP1, sign * (k + 0.5) * _ULP1, f"tie K={k}, s/u odd")
      for k in (0, 1, 2, 7) for sign in (1.0, -1.0)],
    *[(s0, sign * (k + 0.5) * _ULP1, f"tie K={k}, s/u even")
      for s0 in (1.0, 1.0 + 2 * _ULP1) for k in (0, 1, 2, 7) for sign in (1.0, -1.0)],
    (-(1.5 + _ULP1), -2.5 * _ULP1, "negative tie, s/u odd"),
    (2.0 - 5 * _ULP1, 1.3 * _ULP1, "up across a binade edge"),
    (1.0, 0.1, "up across many binades"),
    (4.0 + 2 * _ULP1, -1.3 * _ULP1, "down across a binade edge"),
    (1.0, -0.3 * _ULP1, "down from a power of two, |c| < ulp(s)/2"),
    (1.0, 0.4 * _ULP1, "absorbed, |c| < ulp(s)/2"),
    (-3.0, 0.2 * _ULP1, "absorbed, negative s"),
    (1.0, -1e-3, "across zero"),
    (-0.7, 3.3e-4, "across zero upward"),
    (0.0, -0.0, "signed zeros"),
    (-0.0, 0.0, "signed zeros"),
    (-0.0, -0.0, "signed zeros"),
    (3 * _TINY, 7 * _TINY, "subnormal"),
    (2.0**-1022, -3 * _TINY, "smallest normal down through zero"),
    (-5 * _TINY, 2.0**-1060, "subnormal up across zero"),
    (1.0, math.inf, "c = inf"),
    (1.0, -math.inf, "c = -inf"),
    (2.0**1023, 2.0**1000, "overflow"),
    (math.inf, 1.0, "s = inf"),
    (0.1, 0.7, "generic"),
    (1e6, -0.3, "generic, shrinking"),
    (1.0, 0.5 * _ULP1, "half an ulp"),
    (math.inf, -math.inf, "inf - inf"),
    (1.0, math.nan, "c = nan"),
    (math.nan, 1.0, "s = nan"),
    (-1e308, -1e300, "overflow to -inf"),
]

#: counts the plain loops can run
REPEAT_COUNTS = (1, 2, 3, 17, 1000, 54_321)

#: counts of a horizon up to 2**62
TAIL_COUNTS = (0, 1, 2, 17, 54_321, 10**9, 2**62)


def _comps(s):
    return (0.0, -0.0, 3.5e-17, -math.ulp(s) if math.isfinite(s) else math.nan)


def _assert_near_plain_repeat(s, c, r, label):
    got, loop = _tail(s, c, r), _plain_repeat(s, c, r)
    assert got.hex() == exact_tail(s, c, r).hex(), (label, r)
    if all(map(math.isfinite, (s, c, loop))):
        assert abs(got - loop) <= _plain_error_bound(s, c, r), (label, r, got, loop)
    else:
        assert got.hex() == loop.hex(), (label, r)


def _assert_near_plain_two_sum(s, comp, c, r, label):
    """The compensated loop's s + comp is within the error bound of Ogita,
    Rump and Oishi's Sum2 of the exact sum: an ulp of the result plus
    gamma_r^2 times the sum of the magnitudes of the terms."""
    got = _tail(s, c, r, comp)
    assert got.hex() == exact_tail(s, c, r, comp).hex(), (label, comp, r)
    t, err = _plain_two_sum(s, comp, c, r)
    if math.isfinite(t):
        gamma = r * 2.0**-53 / (1.0 - r * 2.0**-53)
        bound = math.ulp(got) + gamma**2 * (abs(s) + abs(comp) + r * abs(c))
        assert abs(got - (t + err)) <= bound, (label, comp, r, got, t + err)
    else:  # run_recursion reports a saturated sum as it is
        assert got.hex() == t.hex(), (label, comp, r)


class TestRepeatHelpers:
    """``_tail``, which adds the converged repeats: s + comp + r*c rounded once."""

    @pytest.mark.parametrize("s, c, label", REPEAT_INPUTS)
    def test_repeat_matches_plain_loop(self, s, c, label):
        for r in REPEAT_COUNTS:
            _assert_near_plain_repeat(s, c, r, label)

    @pytest.mark.parametrize("s, c, label", REPEAT_INPUTS)
    def test_repeat_two_sum_matches_plain_loop(self, s, c, label):
        for comp in (0.0, -0.0, 3.5e-17, -math.ulp(s) if math.isfinite(s) else 1.0):
            for r in REPEAT_COUNTS:
                _assert_near_plain_two_sum(s, comp, c, r, label)

    @pytest.mark.parametrize("s, c", [(1.0 + _ULP1, 2.5 * _ULP1), (0.0, 0.1),
                                      (1.0, -1e-6), (3 * _TINY, 7 * _TINY)])
    def test_a_million_repeats(self, s, c):
        _assert_near_plain_repeat(s, c, 10**6, "a million")
        _assert_near_plain_two_sum(s, 0.0, c, 10**6, "a million")

    def test_random_triples(self, rng):
        for _ in range(400):
            s = float(rng.uniform(-1.0, 1.0)) * 2.0 ** int(rng.integers(-30, 30))
            c = float(rng.uniform(-1.0, 1.0)) * 2.0 ** int(rng.integers(-60, 0)) * abs(s)
            if rng.random() < 0.3:  # a tie on s's grid
                c = math.copysign((int(rng.integers(0, 40)) + 0.5) * math.ulp(s), c)
            r = int(rng.integers(1, 3000))
            _assert_near_plain_repeat(s, c, r, (s, c))
            _assert_near_plain_two_sum(s, 0.0, c, r, (s, c))
            comp = float(rng.uniform(-1.0, 1.0)) * math.ulp(s)
            r = int(rng.integers(0, 2**62))
            assert _tail(s, c, r, comp).hex() == exact_tail(s, c, r, comp).hex(), (s, c, r, comp)

    @pytest.mark.parametrize("s, c, label", REPEAT_INPUTS)
    def test_exact_sum_rounded_once(self, s, c, label):
        for comp in _comps(s):
            for r in TAIL_COUNTS:
                want = exact_tail(s, c, r, comp)
                assert _tail(s, c, r, comp).hex() == want.hex(), (label, comp, r)

    @pytest.mark.parametrize("s, c, label", REPEAT_INPUTS)
    def test_no_repeats_is_one_addition(self, s, c, label):
        for comp in _comps(s):
            if s == comp == 0.0 and math.copysign(1.0, s) == math.copysign(1.0, comp) == -1.0:
                continue  # -0.0 + -0.0 is -0.0; an exact zero sum is +0.0
            assert _tail(s, c, 0, comp).hex() == (s + comp).hex(), (label, comp)

    def test_overflow_is_inf(self):
        assert _tail(1.0, 1e300, 10**9) == math.inf
        assert _tail(-1.0, -2.0**1000, 2**62) == -math.inf
        assert _tail(math.nextafter(math.inf, 0.0), 0.0, 2**62, 2.0**970) == math.inf


def _assert_contract(p, q, params, lam, label):
    for n, want in reference_traces(p, q, params, lam, FOLD_HORIZONS).items():
        trace = run_recursion(p, q, params, lam, n)
        assert_trace_matches(trace, want, (label, params, lam, p, q, n))
        assert 1 <= trace.steps <= n


class TestFastForward:
    @pytest.mark.parametrize("lam", (0.01, 0.5, 0.99))
    def test_every_case_pair_bit_identical(self, rng, lam):
        for case in ALL_CASES:
            params = random_params(rng, case, lam)
            c = Constellation(params, lam)
            pairs = [c.star] if c.case.exactly_computable else [c.star, c.upper, *c.uppers]
            for pair in pairs:
                _assert_contract(pair.p, pair.q, params, lam, (case, pair.label))

    @pytest.mark.parametrize("lam", (0.01, 0.5, 0.99))
    def test_edge_pairs_bit_identical(self, rng, lam):
        params = random_params(rng, "SP3a", lam)
        bl, al = lambda_weights(params, lam)
        for p, q, label in ((0.0, 1.5 * bl, "saturating, p = 0"),
                            (1.0, 1.5 * bl, "saturating, p > 0"),
                            (1.0, 0.0, "q = 0"), (0.0, 0.5 * bl, "p = 0"),
                            (0.0, 0.0, "p = q = 0"), (al, bl, "trivial pair")):
            _assert_contract(p, q, params, lam, label)

    def test_frozen_pair_stops_at_the_first_step(self):
        """q = beta_lambda: a_1 = 0.0 repeats a_0, so one step is evaluated at any n."""
        params = ParamSet(0.8, 0.6, 2, 2)
        bl, al = lambda_weights(params, 0.5)
        for n in (1, 2, 10**9):
            trace = run_recursion(1.3, bl, params, 0.5, n)
            assert (trace.a_n.hex(), trace.a_sum.hex()) == ((0.0).hex(), (0.0).hex())
            assert trace.steps == 1
        assert trace.b_sum == float(10**9 * Fraction(1.3 - float(al)))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_stop_point_does_not_depend_on_n(self, preset):
        """Every preset pair reaches its float fixed point well before 1e5
        steps, and at the same step for n = 1e5 and n = 1e9."""
        *quad, lam = PRESETS[preset]
        params = ParamSet(*quad)
        c = Constellation(params, lam)
        pairs = [c.star] if c.case.exactly_computable else [c.star, c.upper, *c.uppers]
        for pair in pairs:
            short = run_recursion(pair.p, pair.q, params, lam, 10**5)
            long = run_recursion(pair.p, pair.q, params, lam, 10**9)
            assert short.steps == long.steps < 10**5, pair.label
            assert long.a_n == short.a_n


def _exact_fold_sums(p, q, params, lam, n, steps):
    """(b-sum, a-sum) as Fractions: the fold's own float terms a_k, b_k for
    k <= steps, then n - steps more copies of the last pair, added exactly."""
    p, q, (bl, al) = float(p), float(q), map(float, lambda_weights(params, lam))
    a = 0.0
    b_total = a_total = Fraction(0)
    for _ in range(steps):
        e = math.exp(a) if a < 709.0 else math.inf
        a = q * e - bl
        b = p * e - al if p > 0.0 else -al
        b_total += Fraction(b)
        a_total += Fraction(a)
    return b_total + (n - steps) * Fraction(b), a_total + (n - steps) * Fraction(a)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_sums_within_1e_15_of_their_exact_terms(preset):
    """The in-order b-sum drifted by up to 2.2e-8 relative at n = 1e9; with
    the tail added once, both sums stay within 1e-15 of the exact sum of the
    fold's own float terms."""
    *quad, lam = PRESETS[preset]
    params = ParamSet(*quad)
    c = Constellation(params, lam)
    pairs = [c.star] if c.case.exactly_computable else [c.star, c.upper, *c.uppers]
    for pair in pairs:
        for n in (10**3, 10**5, 10**9):
            trace = run_recursion(pair.p, pair.q, params, lam, n)
            b_exact, a_exact = _exact_fold_sums(pair.p, pair.q, params, lam, n, trace.steps)
            for got, exact in ((trace.b_sum, b_exact), (trace.a_sum, a_exact)):
                assert abs(Fraction(got) - exact) <= Fraction(1e-15) * abs(exact), (pair, n)


def test_sp3c_long_lower_bound_matches_40_digit_run():
    """ROADMAP item 4's SP3c example: the float lower bound at n = 1e5 against
    the same float-coefficient recursion run at 40 digits (8.3e-13 relative
    when the tail was added in order)."""
    import mpmath

    params, lam, omega0, n = ParamSet(0.516, 0.351, 2.120, 2.660), 0.5, 5, 10**5
    c = Constellation(params, lam)
    assert c.case is CaseTag.SP3C
    with mpmath.workdps(40):
        p, q, bl, al = map(mpmath.mpf, (c.star.p, c.star.q, *c.weights))
        a = total = mpmath.mpf(0)
        for k in range(1, n + 1):
            e = mpmath.exp(a)
            prev, a = a, q * e - bl
            total += p * e - al
            if a == prev:  # fixed at 40 digits: every later step repeats this one
                total += (n - k) * (p * e - al)
                break
        ref = float(a * omega0 + total)
    value = recursive_log_bounds(params, lam, omega0, n).log_lower
    assert abs(value - ref) <= 1e-14 * abs(ref), (value, ref)


class TestGeometricMeanClamp:
    """The geometric-mean pair is clamped at the lambda-weights (weighted
    AM-GM); where the float geometric mean rounds above them, the lower
    bound used to diverge and the exact value to turn positive."""

    def test_sp4_lower_bound_stays_finite(self):
        params = ParamSet(1.7219844671664608, 1.7219844671664608, 1.9893907935236532,
                          0.6217259872658669)
        lam = 0.47682614452534827
        report = log_hellinger_bounds(params, lam, 5, 10**4)
        assert report.case is CaseTag.SP4
        assert math.isfinite(report.log_lower)
        assert report.log_lower <= report.log_upper <= 0.0

    def test_sp4_sweep(self):
        rng = np.random.default_rng(1433)
        above = 0
        for _ in range(3000):
            lam = float(rng.uniform(0.0, 1.0))
            beta = float(rng.uniform(0.3, 2.0))
            alpha_a, alpha_h = (float(x) for x in rng.uniform(0.2, 2.0, size=2))
            params = ParamSet(beta, beta, alpha_a, alpha_h)
            bl, _ = lambda_weights(params, lam)
            above += _geometric_mean(beta, beta, lam) > bl
            report = log_hellinger_bounds(params, lam, 5, 10**4)
            assert report.log_lower <= report.log_upper <= 0.0, (params, lam, report)
        assert above > 50  # 99 of 3000: the sweep reaches the constellations the clamp is for

    @pytest.mark.parametrize("lam", (0.3, 0.5, 0.7))
    def test_near_identical_ni(self, lam):
        params = ParamSet(0.5, 0.5000000000000001, 0.0, 0.0)
        assert exact_log_hellinger(params, lam, 3, 10) <= 0.0
        report = log_hellinger_bounds(params, lam, 3, 10)
        assert report.log_lower <= report.log_upper <= 0.0

    def test_near_identical_sp1(self):
        params = ParamSet(2.5593272465407857, 2.5593272465409647, 5.118654493081571,
                          5.118654493081929)
        lam = 0.6963088582540318
        assert exact_log_hellinger(params, lam, 3, 50) <= 0.0
        report = log_hellinger_bounds(params, lam, 3, 50)
        assert report.log_lower <= report.log_upper <= 0.0

    def test_near_identical_sweep(self):
        rng = np.random.default_rng(5071)
        for _ in range(2000):
            lam = float(rng.uniform(0.01, 0.99))
            beta_a = float(rng.uniform(0.3, 3.0))
            beta_h = beta_a * (1.0 + float(rng.choice((-1.0, 1.0)))
                               * 10.0 ** float(rng.uniform(-16.0, -13.0)))
            if beta_h == beta_a:  # the gap rounded away; the laws must differ
                beta_h = math.nextafter(beta_a, math.inf)
            scale = float(rng.choice((0.0, rng.uniform(0.3, 2.0))))
            params = ParamSet(beta_a, beta_h, scale * beta_a, scale * beta_h)
            if not classify(params, lam).exactly_computable:
                continue  # scale * beta rounded to equal immigration rates: SP2
            n = int(rng.integers(1, 100))
            report = log_hellinger_bounds(params, lam, 3, n)
            assert report.log_lower == report.log_exact == report.log_upper <= 0.0
