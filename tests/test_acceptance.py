"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Every expected number here is a frozen reference value
(reproduced to the stated absolute tolerance) or an independent-oracle
comparison; nothing is calibrated against the code under test.
"""

import math

import numpy as np
import pytest

from gwidiv import (
    CoeffRole,
    DecisionConfig,
    ParamSet,
    SDEParams,
    TruncationPolicy,
    approx_params,
    bayes_risk_bounds,
    classify,
    closed_form_log_lower,
    closed_form_log_upper,
    entropy_lower,
    entropy_upper,
    enum_bayes_risk,
    enum_log_hellinger_profile,
    enum_np_type2,
    enum_relative_entropy,
    exact_entropy,
    exact_log_hellinger,
    lambda_weights,
    limit_log_bounds,
    limit_scalars,
    np_type2_bound,
    phi_eval,
    prelimit_log_bounds,
    recursive_log_bounds,
    select_coeffs,
    solve_fixed_point,
)
from gwidiv.closed_form import asymptotic_log_slope
from gwidiv.recursions import Constellation

from conftest import ALL_CASES, log_bound_at, prefix_sequences, random_params


def _report(index: int, label: str, passed: bool) -> None:
    print(f"ACCEPTANCE {index:02d} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {index} ({label}) failed"


def test_criterion_01_reference_coefficient_pairs():
    """Asymptote and proposed upper pairs for the four example tuples, +-5e-4."""
    table = [
        ((0.8, 0.6, 2.0, 2.0), (2.021, 0.693), (2.0, 0.698)),
        ((0.8, 0.6, 2.0, 1.9), (1.963, 0.693), (1.949, 0.696)),
        ((0.8, 0.6, 2.0, 1.1), (1.501, 0.693), (1.483, 0.699)),
        ((1.0, 1.5, 2.0, 1.8), (1.960, 1.225), (1.897, 1.249)),
    ]
    ok = True
    for quad, asym_expected, upper_expected in table:
        params = ParamSet(*quad)
        asym = select_coeffs(params, 0.5, CoeffRole.ASYMPTOTE)
        upper = select_coeffs(params, 0.5, CoeffRole.UPPER)
        ok &= abs(asym.p - asym_expected[0]) <= 5e-4
        ok &= abs(asym.q - asym_expected[1]) <= 5e-4
        ok &= abs(upper.p - upper_expected[0]) <= 5e-4
        ok &= abs(upper.q - upper_expected[1]) <= 5e-4
    _report(1, "reference coefficient pairs", ok)


def test_criterion_02_case_atlas():
    """Example-tuple classification, phi'(0) signs, asymptote intercept signs."""
    ok = True
    # phi'(0) negative / zero / positive
    ok &= phi_eval(ParamSet(4, 2, 3, 1), 0.5, 0.0).phi_prime < 0.0
    ok &= abs(phi_eval(ParamSet(4, 2, 4, 1), 0.5, 0.0).phi_prime) <= 1e-12
    ok &= phi_eval(ParamSet(4, 2, 5, 1), 0.5, 0.0).phi_prime > 0.0
    # subcase classification of the example tuples
    atlas = [
        ((1.8, 0.9, 2.8, 0.7), "SP3a"),
        ((1.8, 0.9, 2.9, 0.7), "SP3b"),
        ((1.8, 0.9, 1.1, 3.0), "SP3c"),
        ((1.8, 0.9, 1.2, 3.0), "SP3d"),
    ]
    for quad, expected in atlas:
        ok &= classify(ParamSet(*quad), 0.5).value == expected
    # sign of the asymptote intercept r-tilde at the three beta_a values
    for beta_a, sign in [(3.7, 1), (3.6, 0), (3.5, -1)]:
        params = ParamSet(beta_a, 0.9, 2.0, 1.0)
        bl, al = lambda_weights(params, 0.5)
        intercept = Constellation(params, 0.5).asymptote.p - al
        if sign == 0:
            ok &= abs(intercept) <= 1e-6
        else:
            ok &= intercept * sign > 1e-6
    _report(2, "case atlas", ok)


def test_criterion_03_oracle_sandwich():
    """C^L <= B^L (or V) <= enum +- certified <= B^U (or V) <= C^G on 100
    random sets spanning all 8 cases; tail budget 1e-9."""
    rng = np.random.default_rng(31415)
    lambdas = (0.1, 0.5, 0.9)
    policy = TruncationPolicy(tail_budget=1e-9)
    ok = True
    checked = 0
    for index in range(100):
        case = ALL_CASES[index % len(ALL_CASES)]
        lam = lambdas[index % len(lambdas)]
        omega0 = (1, 3)[index % 2]
        params = random_params(rng, case, lam, beta_hi=1.2)
        tag = classify(params, lam)
        profile = enum_log_hellinger_profile(params, lam, omega0, 4, policy)
        for n in range(1, 5):
            log_enum, err = profile[n]
            enum_lo = math.exp(log_enum)
            enum_hi = enum_lo + err
            if tag.exactly_computable:
                mid_lo = mid_hi = exact_log_hellinger(params, lam, omega0, n)
            else:
                report = recursive_log_bounds(params, lam, omega0, n)
                mid_lo, mid_hi = report.log_lower, report.log_upper
            ok &= math.exp(mid_lo) <= enum_hi
            ok &= enum_lo <= math.exp(mid_hi) * (1.0 + 1e-12)
            if tag.value != "SP4":
                ok &= closed_form_log_lower(params, lam, omega0, n) < mid_lo
            if tag.value not in ("SP3d", "SP4"):
                ok &= closed_form_log_upper(params, lam, omega0, n) >= mid_hi - 1e-12
            checked += 1
    _report(3, f"oracle sandwich ({checked} horizon checks)", ok)


# constellations with moderate contraction: decrements up to n = 50 stay
# resolvable in double precision (saturating instances tie out below ulp)
_MONOTONE_SET = [
    ParamSet(1.2, 0.8, 0.0, 0.0),      # NI
    ParamSet(1.1, 0.9, 1.1, 0.9),      # SP1
    ParamSet(1.25, 0.85, 2.0, 2.0),    # SP2
    ParamSet(1.15, 0.9, 2.0, 1.9),     # SP3a-ish
    ParamSet(0.8, 0.6, 2.0, 1.1),      # SP3b
    ParamSet(1.0, 1.5, 2.0, 1.8),      # SP3c
    ParamSet(1.8, 0.9, 1.2, 3.0),      # SP3d
    ParamSet(1.0, 1.0, 2.0, 3.0),      # SP4
]


def test_criterion_04_monotonicity_suite():
    """Exact values and all four bound families strictly decrease for n <= 50."""
    ok = True
    horizon = 50
    for params in _MONOTONE_SET:
        tag = classify(params, 0.5)
        if tag.exactly_computable:
            values = [exact_log_hellinger(params, 0.5, 2, n) for n in range(1, horizon + 1)]
            ok &= bool(np.all(np.diff(values) < 0.0))
        else:
            pair = select_coeffs(params, 0.5, CoeffRole.LOWER)
            lower = [log_bound_at(pair, params, 0.5, 2, n) for n in range(1, horizon + 1)]
            ok &= bool(np.all(np.diff(lower) < 0.0))
            if tag.value in ("SP2", "SP3a", "SP3b", "SP3c"):
                pair = select_coeffs(params, 0.5, CoeffRole.UPPER)
                upper = [log_bound_at(pair, params, 0.5, 2, n) for n in range(1, horizon + 1)]
                ok &= bool(np.all(np.diff(upper) < 0.0))
        if tag.value != "SP4":
            values = [closed_form_log_lower(params, 0.5, 2, n) for n in range(1, horizon + 1)]
            ok &= bool(np.all(np.diff(values) < 0.0))
        if tag.value not in ("SP3d", "SP4"):
            values = [closed_form_log_upper(params, 0.5, 2, n) for n in range(1, horizon + 1)]
            ok &= bool(np.all(np.diff(values) < 0.0))
    _report(4, "monotonicity in the horizon", ok)


def test_criterion_05_asymptotic_slopes():
    """(1/n) log V_n at n=200 and the closed-form slopes at n=500, abs 1e-3."""
    ok = True
    ni = ParamSet(0.8, 0.6, 0.0, 0.0)
    for lam in (0.3, 0.5, 0.7):
        ok &= abs(exact_log_hellinger(ni, lam, 1, 200) / 200) < 1e-3
    for params in [ParamSet(0.8, 0.6, 0.8, 0.6), ParamSet(0.8, 0.6, 0.4, 0.3)]:
        for lam in (0.3, 0.5, 0.7):
            bl, _ = lambda_weights(params, lam)
            fp = solve_fixed_point(Constellation(params, lam).star.q, bl)
            target = params.alpha_a / params.beta_a * fp.x0
            ok &= abs(exact_log_hellinger(params, lam, 1, 200) / 200 - target) < 1e-3
    for params in [ni, ParamSet(0.8, 0.6, 0.8, 0.6), ParamSet(0.8, 0.6, 2.0, 2.0),
                   ParamSet(0.8, 0.6, 2.0, 1.9)]:
        c = Constellation(params, 0.5)
        lo_slope = closed_form_log_lower(params, 0.5, 1, 500) / 500
        ok &= abs(lo_slope - asymptotic_log_slope(c.star, params, 0.5)) < 1e-3
        up_slope = closed_form_log_upper(params, 0.5, 1, 500) / 500
        ok &= abs(up_slope - asymptotic_log_slope(c.upper, params, 0.5)) < 1e-3
    _report(5, "asymptotic slopes", ok)


_SDE_SET = [
    SDEParams(eta=0.5, kappa_a=2.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0),
    SDEParams(eta=0.0, kappa_a=0.0, kappa_h=1.0, sigma=1.0, x0_tilde=1.0),
    SDEParams(eta=1.2, kappa_a=0.3, kappa_h=2.5, sigma=1.5, x0_tilde=0.7),
]


def test_criterion_06_diffusion_limit_convergence():
    """Six scalar limits at m=1e5 (rel 1e-3); prelimit -> limit gap shrinks
    monotonically over m in {1e2, 1e3, 1e4} with final log-scale gap < 1e-2."""
    ok = True
    m_big = 10**5
    t = 1.0
    for sde in _SDE_SET:
        for lam in (0.3, 0.5, 0.8):
            kl, cap = limit_scalars(sde, lam)
            s2 = sde.sigma**2
            params = approx_params(sde, m_big)
            bl, _ = lambda_weights(params, lam)
            q = Constellation(params, lam).star.q
            fp = solve_fixed_point(q, bl)
            checks = [
                (m_big * (1 - q), kl / s2),
                (m_big**2 * (q - bl), -(cap**2 - kl**2) / (2 * s2 * s2)),
                (m_big * fp.x0, -(cap - kl) / s2),
                (m_big * (1 - fp.d_t), cap / s2),
                (m_big * (1 - fp.d_s), (cap + kl) / (2 * s2)),
                (fp.d_t ** (s2 * m_big * t), math.exp(-cap * t)),
            ]
            for got, want in checks:
                ok &= abs(got - want) <= 1e-3 * abs(want)
    for sde in _SDE_SET:
        limit_lo, limit_hi = limit_log_bounds(sde, 0.5, t)
        gaps = []
        for m in (100, 1000, 10000):
            lo, hi = prelimit_log_bounds(sde, 0.5, t, m, round(m * sde.x0_tilde))
            gaps.append(max(abs(lo - limit_lo), abs(hi - limit_hi)))
        ok &= gaps[0] > gaps[1] > gaps[2]
        ok &= gaps[2] < 1e-2
    _report(6, "diffusion-limit convergence", ok)


def test_criterion_07_entropy_consistency():
    """Exact entropy vs the lambda = 1 - 1e-6 transform (rel 1e-3, 20
    instances); E^L <= enum-I <= E^U (20 SP instances, n <= 4); the SP3d
    degenerate example flags a vanishing y*-derivative for n in 1..5."""
    rng = np.random.default_rng(2718)
    ok = True
    lam = 1.0 - 1e-6
    for index in range(20):
        case = ("NI", "SP1")[index % 2]
        params = random_params(rng, case)
        omega0 = (1, 2, 3)[index % 3]
        n = 1 + index % 5
        exact = exact_entropy(params, omega0, n)
        numeric = (1.0 - math.exp(exact_log_hellinger(params, lam, omega0, n))) / (
            lam * (1.0 - lam)
        )
        ok &= abs(exact - numeric) <= 1e-3 * abs(exact)
    sp_cases = ("SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4")
    for index in range(20):
        case = sp_cases[index % len(sp_cases)]
        params = random_params(rng, case, beta_hi=1.0)
        omega0 = (1, 2)[index % 2]
        n = 1 + index % 4
        value, err = enum_relative_entropy(params, omega0, n)
        ok &= entropy_lower(params, omega0, n).lower <= value + err
        ok &= value - err <= entropy_upper(params, omega0, n)
    degenerate = ParamSet(1.0 / 3.0, 2.0 / 3.0, 2.0, 1.0)
    for n in range(1, 6):
        report = entropy_lower(degenerate, 3, n)
        ok &= report.degenerate_sp3d and abs(report.dtan_at_ystar) <= 1e-12
        ok &= not entropy_lower(degenerate, 2, n).degenerate_sp3d
    _report(7, "entropy consistency", ok)


def test_criterion_08_decision_bounds():
    """Bayes sandwich and NP domination on 50 instances with n <= 3,
    loss asymmetries in {0.1, 1, 10}, truncation error folded in."""
    rng = np.random.default_rng(1618)
    ok = True
    losses = (0.1, 1.0, 10.0)
    for index in range(50):
        case = ALL_CASES[index % len(ALL_CASES)]
        lam = (0.3, 0.5, 0.7)[index % 3]
        params = random_params(rng, case, lam, beta_hi=1.1)
        n = 1 + index % 3
        cfg = DecisionConfig(
            loss_a=losses[index % 3],
            loss_h=1.0,
            prior_h=float(rng.uniform(0.2, 0.8)),
            level=(0.05, 0.1, 0.2)[index % 3],
        )
        lower, upper = bayes_risk_bounds(params, lam, 1, n, cfg)
        risk, err = enum_bayes_risk(params, 1, n, cfg)
        ok &= lower - err <= risk <= upper + err
        type2, err2 = enum_np_type2(params, 1, n, cfg.level)
        ok &= type2 <= np_type2_bound(params, lam, 1, n, cfg) + err2
    _report(8, "decision bounds", ok)


def test_criterion_09_property_suites():
    """Geometric-mean gap <= 0 on 1e5 tuples; trichotomy and coefficient monotonicity
    on 1e4 instances; linearized-sequence sandwiches on 1e3 instances."""
    rng = np.random.default_rng(6626)
    ok = True

    # weighted-geometric-mean gap on 1e5 random tuples (vectorized)
    x, y, z = rng.uniform(0.01, 50.0, size=(3, 10**5))
    lam = rng.uniform(0.02, 0.98, size=10**5)
    gap = np.exp(lam * np.log(x) + (1 - lam) * np.log(y)) - (
        lam * x * z ** (lam - 1.0) + (1 - lam) * y * z**lam
    )
    ok &= bool(np.all(gap <= 1e-12))

    # a/b-sequence trichotomy and coefficient monotonicity
    for _ in range(10**4):
        lam_i = rng.uniform(0.05, 0.95)
        params = random_params(rng, ALL_CASES[rng.integers(0, len(ALL_CASES))], lam_i)
        bl, al = lambda_weights(params, lam_i)
        p = rng.uniform(0.05, 2.0)
        q2 = rng.uniform(0.05, 1.0) * bl
        q1 = q2 * rng.uniform(0.05, 0.95)
        a1, b1 = prefix_sequences(p, q1, params, lam_i, 6)
        a2, b2 = prefix_sequences(p, q2, params, lam_i, 6)
        ok &= bool(np.all(a1[1:] < 0.0) and np.all(np.diff(a1[1:]) < 0.0))
        ok &= bool(np.all(a1[1:] < a2[1:]))
        ok &= bool(np.all(b1[2:] < b2[2:]))
        _, b3 = prefix_sequences(p + 0.5, q2, params, lam_i, 6)
        ok &= bool(np.all(b2[1:] < b3[1:]))
        frozen, _ = prefix_sequences(p, bl, params, lam_i, 3)
        ok &= bool(np.all(frozen[1:] == 0.0))
        zero_a, zero_b = prefix_sequences(p, 0.0, params, lam_i, 3)
        ok &= bool(np.allclose(zero_a[1:], -bl))
        ok &= abs(zero_b[2] - (p * math.exp(-bl) - al)) < 1e-12
        if not ok:
            break

    # linearized sandwiches on 1e3 random (q, beta_lambda) instances
    for _ in range(10**3):
        beta_lambda = rng.uniform(0.2, 3.0)
        q = beta_lambda * rng.uniform(0.05, 0.98)
        fp = solve_fixed_point(q, beta_lambda)
        a = under = over = 0.0
        for k in range(1, 31):
            a = q * math.exp(a) - beta_lambda
            under = fp.x0 * (1 - fp.d_t) + fp.d_t * under + 0.5 * fp.x0**2 * fp.d_t ** (2 * k - 1)
            over = (q - beta_lambda) + fp.d_s * over - 0.5 * fp.x0**2 * fp.d_t**k * (
                1 - fp.d_s ** (k - 1)
            )
            ok &= under <= a + 1e-14
            ok &= over >= a - 1e-14
            if a - fp.x0 > 1e-11:
                ok &= under < a
                if k >= 2 and over - fp.x0 > 1e-11:
                    ok &= over > a
        if not ok:
            break
    _report(9, "property suites", ok)
