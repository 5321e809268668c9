"""Relative-entropy exact values, upper bound E^U and lower-bound family."""

import math

import mpmath
import numpy as np
import pytest

from gwidiv import (
    CaseError,
    GWIError,
    ParamSet,
    classify,
    entropy_lower,
    entropy_report,
    entropy_upper,
    enum_relative_entropy,
    exact_entropy,
    exact_log_hellinger,
    secant_component,
    tangent_component,
    tangent_component_dy,
    tangent_component_limit,
    tangent_derivative_at_ystar,
)
from gwidiv.entropy import _golden_max, _occupation, horizontal_component

from conftest import ALL_CASES, random_params

SP_CASES = ("SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4")


class TestExactEntropy:
    def test_beta_a_one_branch_example(self):
        """(1, 0.5, 2, 1) is SP1; omega0=1, n=1 gives (0.5 - ln 0.5 - 1)*3."""
        value = exact_entropy(ParamSet(1, 0.5, 2, 1), 1, 1)
        assert value == pytest.approx((0.5 - math.log(0.5) - 1.0) * 3.0, rel=1e-12)

    def test_matches_lambda_limit_transform(self, rng):
        """Agrees with (1 - H_lambda)/(lambda(1-lambda)) at lambda = 1 - 1e-6."""
        lam = 1.0 - 1e-6
        for _ in range(20):
            case = "NI" if rng.random() < 0.5 else "SP1"
            params = random_params(rng, case)
            omega0 = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            exact = exact_entropy(params, omega0, n)
            numeric = (1.0 - math.exp(exact_log_hellinger(params, lam, omega0, n))) / (
                lam * (1.0 - lam)
            )
            assert exact == pytest.approx(numeric, rel=1e-3)

    def test_strictly_increasing_in_n(self, rng):
        for _ in range(20):
            params = random_params(rng, "SP1" if rng.random() < 0.5 else "NI")
            values = [exact_entropy(params, 1, n) for n in range(1, 15)]
            assert np.all(np.diff(values) > 0.0)

    def test_rejects_bound_cases(self):
        with pytest.raises(CaseError):
            exact_entropy(ParamSet(0.8, 0.6, 2, 2), 1, 3)

    def test_drift_coefficient_identity(self, rng):
        """beta_a(log(beta_a/beta_h) - 1) + beta_h >= 0, zero iff equal."""
        from gwidiv.entropy import _entropy_drift

        for _ in range(200):
            ba, bh = rng.uniform(0.1, 4.0, size=2)
            drift = ba * (math.log(ba / bh) - 1.0) + bh
            assert drift >= -1e-12
        assert _entropy_drift(ParamSet(1, 1, 2, 3)) == pytest.approx(0.0, abs=1e-15)


class TestEntropyUpper:
    def test_sandwiches_enumeration(self, rng):
        for _ in range(12):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case, beta_hi=1.0)
            omega0 = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            upper = entropy_upper(params, omega0, n)
            value, err = enum_relative_entropy(params, omega0, n)
            assert value - err <= upper

    def test_nonnegative(self, rng):
        for _ in range(50):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case)
            assert entropy_upper(params, int(rng.integers(1, 4)), int(rng.integers(1, 10))) >= 0.0

    def test_dominates_lower_bound(self):
        params = ParamSet(0.8, 0.6, 2, 2)
        for n in range(1, 21):
            report = entropy_lower(params, 1, n)
            assert entropy_upper(params, 1, n) >= report.lower

    def test_rejects_exact_cases(self):
        with pytest.raises(CaseError):
            entropy_upper(ParamSet(4, 2, 0, 0), 1, 3)


class TestEntropyLower:
    def test_sandwiches_enumeration(self, rng):
        for _ in range(12):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case, beta_hi=1.0)
            omega0 = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            report = entropy_lower(params, omega0, n)
            value, err = enum_relative_entropy(params, omega0, n)
            assert report.lower <= value + err

    def test_sup_dominates_simplified(self, rng):
        """E^L >= the simplified max{tan(inf), sec(0), horizontal}."""
        for _ in range(40):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case)
            report = entropy_lower(params, int(rng.integers(1, 4)), int(rng.integers(1, 8)))
            assert report.lower >= report.simplified - 1e-12

    def test_strict_positivity_off_sp3d(self, rng):
        """E^L > 0 on SP2, SP3a, SP3b, SP3c and SP4 for all omega0, n."""
        for case in ("SP2", "SP3a", "SP3b", "SP3c", "SP4"):
            for _ in range(10):
                params = random_params(rng, case)
                report = entropy_lower(params, int(rng.integers(1, 5)), int(rng.integers(1, 10)))
                assert report.lower > 0.0, (case, params)

    def test_sp3d_degenerate_example(self):
        """(1/3, 2/3, 2, 1): derivative at y* vanishes iff omega0 = 3."""
        params = ParamSet(1 / 3, 2 / 3, 2, 1)
        for n in range(1, 6):
            degenerate = entropy_lower(params, 3, n)
            assert degenerate.degenerate_sp3d
            assert degenerate.dtan_at_ystar == pytest.approx(0.0, abs=1e-12)
            assert degenerate.tan_at_ystar == pytest.approx(0.0, abs=1e-12)
            regular = entropy_lower(params, 2, n)
            assert not regular.degenerate_sp3d
            assert abs(regular.dtan_at_ystar) > 1e-3

    def test_sp4_tangent_family_tail(self, rng):
        """On SP4, y * tan(y) -> (alpha_a - alpha_h)^2 / beta * n from above."""
        for _ in range(10):
            params = random_params(rng, "SP4")
            n = int(rng.integers(1, 6))
            target = (params.alpha_a - params.alpha_h) ** 2 / params.beta_a * n
            y = 1e7
            assert y * tangent_component(params, 1, n, y) == pytest.approx(target, rel=1e-5)
            assert tangent_component(params, 1, n, y) > 0.0
            assert entropy_lower(params, 1, n).horizontal == 0.0

    def test_tangent_limit_matches_large_y(self, rng):
        for _ in range(20):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case)
            n = int(rng.integers(1, 6))
            limit = tangent_component_limit(params, 2, n)
            assert tangent_component(params, 2, n, 1e9) == pytest.approx(limit, rel=1e-6, abs=1e-7)

    def test_tangent_derivative_matches_finite_difference(self, rng):
        for _ in range(30):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case)
            n = int(rng.integers(1, 6))
            y = rng.uniform(0.1, 8.0)
            step = 1e-6
            fd = (
                tangent_component(params, 2, n, y + step)
                - tangent_component(params, 2, n, y - step)
            ) / (2 * step)
            assert tangent_component_dy(params, 2, n, y) == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_interior_maximizer_is_stationary(self, rng):
        """When the tangent sup sits at finite y > 0, its y-derivative vanishes."""
        for _ in range(30):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case)
            report = entropy_lower(params, 1, 3)
            if report.y_best not in (0.0, math.inf) and report.best_tan >= report.lower - 1e-12:
                deriv = tangent_component_dy(params, 1, 3, report.y_best)
                scale = max(abs(report.best_tan), 1.0)
                assert abs(deriv) < 1e-5 * scale

    def test_rejects_exact_cases(self):
        with pytest.raises(CaseError):
            entropy_lower(ParamSet(4, 2, 4, 2), 1, 3)


class TestEntropyReport:
    def test_exact_cases_fill_exact(self):
        report = entropy_report(ParamSet(0.5, 0.25, 0, 0), 1, 2)
        assert report.exact is not None
        assert report.lower == report.exact == report.upper

    def test_bound_cases_fill_bounds(self):
        report = entropy_report(ParamSet(0.8, 0.6, 2, 2), 1, 3)
        assert report.exact is None
        assert 0.0 < report.lower <= report.upper

    def test_secant_zero_matches_component(self):
        params = ParamSet(0.8, 0.6, 2, 1.9)
        report = entropy_lower(params, 1, 3)
        assert report.best_sec >= secant_component(params, 1, 3, 0) - 1e-12


# Reference copy of the twin-branch formulas that the line integrals
# n*c0 + c1*S replaced: each component written out once for beta_a != 1 and
# once for beta_a = 1 (``one``), with the search of entropy_lower on top.


def _ref_weight(p, w0, nn, one):
    if one:
        return 0.5 * p.alpha_a * nn * nn + (w0 + 0.5 * p.alpha_a) * nn
    ba = p.beta_a
    return (1.0 - ba**nn) / (1.0 - ba) * (w0 - p.alpha_a / (1.0 - ba))


def _ref_drift(p):
    return p.beta_a * (math.log(p.beta_a / p.beta_h) - 1.0) + p.beta_h


def ref_exact(p, w0, nn, one=False):
    if one:
        return (p.beta_h - math.log(p.beta_h) - 1.0) * _ref_weight(p, w0, nn, True)
    t, ba = _ref_drift(p), p.beta_a
    return t / (1.0 - ba) * (w0 - p.alpha_a / (1.0 - ba)) * (1.0 - ba**nn) + (
        p.alpha_a * t / (ba * (1.0 - ba)) * nn
    )


def ref_upper(p, w0, nn, one=False):
    aa, ah, ba, bh = p.alpha_a, p.alpha_h, p.beta_a, p.beta_h
    if one:
        lin = aa * (math.log(aa * bh / ah) - bh) + ah
        return (bh - math.log(bh) - 1.0) * _ref_weight(p, w0, nn, True) + lin * nn
    t = _ref_drift(p)
    lin = aa * t / (ba * (1.0 - ba)) + aa * (math.log(aa * bh / (ah * ba)) - bh / ba) + ah
    return t / (1.0 - ba) * (w0 - aa / (1.0 - ba)) * (1.0 - ba**nn) + lin * nn


def ref_tangent(p, w0, nn, y, one=False):
    ratio = p.rate_a(y) / p.rate_h(y)
    b_term = 1.0 - ratio
    if one:
        a_term = math.log(ratio) + p.beta_h * b_term
        return a_term * _ref_weight(p, w0, nn, True) + (
            p.alpha_h - p.alpha_a * p.beta_h
        ) * b_term * nn
    a_term = p.beta_a * math.log(ratio) + p.beta_h * b_term
    lin = p.alpha_a / (p.beta_a * (1.0 - p.beta_a)) * a_term + (
        p.alpha_h - p.alpha_a * p.beta_h / p.beta_a
    ) * b_term
    return a_term * _ref_weight(p, w0, nn, False) + lin * nn


def ref_tangent_limit(p, w0, nn, one=False):
    if one:
        lin = p.alpha_a * (1.0 - p.beta_h) + p.alpha_h * (1.0 - 1.0 / p.beta_h)
        return (p.beta_h - math.log(p.beta_h) - 1.0) * _ref_weight(p, w0, nn, True) + lin * nn
    t = _ref_drift(p)
    lin = (
        p.alpha_a * t / (p.beta_a * (1.0 - p.beta_a))
        + p.alpha_a * (1.0 - p.beta_h / p.beta_a)
        + p.alpha_h * (1.0 - p.beta_a / p.beta_h)
    )
    return t * _ref_weight(p, w0, nn, False) + lin * nn


def ref_tangent_dy(p, w0, nn, y, one=False):
    gbar = p.alpha_a * p.beta_h - p.alpha_h * p.beta_a
    fa, fh = p.rate_a(y), p.rate_h(y)
    if one:
        return gbar**2 / (fa * fh * fh) * _ref_weight(p, w0, nn, True) - gbar**2 / (
            fh * fh
        ) * nn
    lead = gbar**2 / (fa * fh * fh) * _ref_weight(p, w0, nn, False)
    lin = gbar / (fh * fh) * (
        p.alpha_a * gbar / (p.beta_a * (1.0 - p.beta_a) * fa) - gbar / p.beta_a
    )
    return lead + lin * nn


def ref_secant(p, w0, nn, k, one=False):
    def xlogr(x):
        fa = p.rate_a(x)
        return fa * math.log(fa / p.rate_h(x))

    l_k = xlogr(float(k))
    diff = xlogr(float(k + 1)) - l_k
    if one:
        lead = (diff + p.beta_h - 1.0) * _ref_weight(p, w0, nn, True)
        lin = diff * (k + p.alpha_a) - l_k + p.alpha_a * p.beta_h - p.alpha_h
        return lead - lin * nn
    lead = (diff + p.beta_h - p.beta_a) * _ref_weight(p, w0, nn, False)
    lin = (
        p.alpha_a / (p.beta_a * (1.0 - p.beta_a)) * (diff + p.beta_h - p.beta_a)
        - diff * (k + p.alpha_a / p.beta_a)
        + l_k
        - p.alpha_a * p.beta_h / p.beta_a
        + p.alpha_h
    )
    return lead + lin * nn


def ref_dtan_at_ystar(p, w0, nn, one=False):
    gbar = p.alpha_a * p.beta_h - p.alpha_h * p.beta_a
    ba, bh = p.beta_a, p.beta_h
    if one:
        return -((1.0 - bh) ** 3) / gbar * _ref_weight(p, w0, nn, True) - (1.0 - bh) ** 2 * nn
    lead = -((ba - bh) ** 3) / gbar * _ref_weight(p, w0, nn, False)
    lin = -((ba - bh) ** 2) / ba * (1.0 + p.alpha_a * (ba - bh) / ((1.0 - ba) * gbar))
    return lead + lin * nn


def ref_lower(p, w0, nn):
    """entropy_lower's search over the reference components (beta_a != 1)."""

    def tan(y):
        return ref_tangent(p, w0, nn, y)

    grid = [0.0] + [2.0**e for e in range(-4, 17)]
    values = [tan(y) for y in grid]
    i_best = max(range(len(grid)), key=values.__getitem__)
    lo = grid[i_best - 1] if i_best > 0 else 0.0
    hi = grid[i_best + 1] if i_best + 1 < len(grid) else 2.0 * grid[i_best] + 1.0
    _, best_tan = _golden_max(tan, lo, hi)
    best_tan = max(best_tan, values[i_best])
    tan_inf = ref_tangent_limit(p, w0, nn)
    best_tan = max(best_tan, tan_inf)
    guard = 0
    if p.beta_a != p.beta_h:
        guard = max(0, math.ceil((p.alpha_h - p.alpha_a) / (p.beta_a - p.beta_h)))
    best_sec = ref_secant(p, w0, nn, 0)
    drops, k = 0, 0
    while drops < 10 or k <= guard:
        k += 1
        val = ref_secant(p, w0, nn, k)
        if val > best_sec:
            best_sec, drops = val, 0
        else:
            drops += 1
        if k > 10**5:
            break
    horizontal, _ = horizontal_component(p, w0, nn)
    out = {
        "lower": max(best_tan, best_sec, horizontal, 0.0),
        "best_tan": best_tan,
        "best_sec": best_sec,
        "horizontal": horizontal,
        "simplified": max(tan_inf, ref_secant(p, w0, nn, 0), horizontal),
        "tan_at_ystar": None,
        "dtan_at_ystar": None,
    }
    if classify(p, 0.5).value == "SP3d":
        y_star = (p.alpha_a - p.alpha_h) / (p.beta_h - p.beta_a)
        out["tan_at_ystar"] = ref_tangent(p, w0, nn, y_star)
        out["dtan_at_ystar"] = ref_dtan_at_ystar(p, w0, nn)
    return out


def _rel_gap(new, old):
    return abs(new - old) / max(1.0, abs(old), abs(new))


class TestTwinBranchReference:
    """The line integrals n*c0 + c1*S reproduce the twin-branch formulas."""

    def test_random_constellations_away_from_one(self):
        """1,000+ constellations of all eight cases, |beta_a - 1| >= 1e-3,
        n up to 1000: every output within 1e-11 relative of the reference.

        y_best and k_best are not compared: the golden-section search is
        approximate, so a last-bit difference in the objective moves its
        argmax (by up to ~1e-4), and secants k and k + 1 tie exactly when
        S/n is an integer, so either index may win.
        """
        rng = np.random.default_rng(88)
        worst, count = 0.0, 0
        while count < 1040:
            params = random_params(rng, ALL_CASES[count % len(ALL_CASES)])
            if abs(params.beta_a - 1.0) < 1e-3:
                continue
            count += 1
            omega0 = int(rng.integers(1, 21))
            n = int(np.exp(rng.uniform(0.0, math.log(1000.0))))
            pairs = []
            if classify(params, 0.5).exactly_computable:
                pairs.append((exact_entropy(params, omega0, n), ref_exact(params, omega0, n)))
            else:
                report = entropy_lower(params, omega0, n)
                ref = ref_lower(params, omega0, n)
                for name, old in ref.items():
                    new = getattr(report, name)
                    if old is None:
                        assert new is None, name
                    else:
                        pairs.append((new, old))
                pairs.append((entropy_upper(params, omega0, n), ref_upper(params, omega0, n)))
                y, k = rng.uniform(0.0, 20.0), int(rng.integers(0, 30))
                pairs += [
                    (tangent_component(params, omega0, n, y), ref_tangent(params, omega0, n, y)),
                    (tangent_component_limit(params, omega0, n),
                     ref_tangent_limit(params, omega0, n)),
                    (tangent_component_dy(params, omega0, n, y),
                     ref_tangent_dy(params, omega0, n, y)),
                    (secant_component(params, omega0, n, k), ref_secant(params, omega0, n, k)),
                ]
                if params.beta_a != params.beta_h:
                    pairs.append((tangent_derivative_at_ystar(params, omega0, n),
                                  ref_dtan_at_ystar(params, omega0, n)))
            gap = max(_rel_gap(new, old) for new, old in pairs)
            assert gap <= 1e-11, (params, omega0, n, pairs)
            worst = max(worst, gap)
        assert worst > 0.0  # the comparison is not vacuous

    def test_beta_a_exactly_one_matches_unit_branch(self, rng):
        """At beta_a = 1 the series branch of S reproduces the beta_a = 1 formulas."""
        for _ in range(40):
            bh, aa, ah = rng.uniform(0.3, 1.25), rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
            params = ParamSet(1.0, bh, aa, ah)
            omega0, n = int(rng.integers(1, 21)), int(rng.integers(1, 1001))
            y, k = rng.uniform(0.0, 20.0), int(rng.integers(0, 30))
            pairs = [
                (tangent_component(params, omega0, n, y), ref_tangent(params, omega0, n, y, True)),
                (tangent_component_limit(params, omega0, n),
                 ref_tangent_limit(params, omega0, n, True)),
                (tangent_component_dy(params, omega0, n, y),
                 ref_tangent_dy(params, omega0, n, y, True)),
                (secant_component(params, omega0, n, k), ref_secant(params, omega0, n, k, True)),
                (tangent_derivative_at_ystar(params, omega0, n),
                 ref_dtan_at_ystar(params, omega0, n, True)),
                (entropy_upper(params, omega0, n), ref_upper(params, omega0, n, True)),
            ]
            sp1 = ParamSet(1.0, bh, aa, aa * bh)
            if classify(sp1, 0.5).exactly_computable:
                pairs.append((exact_entropy(sp1, omega0, n), ref_exact(sp1, omega0, n, True)))
            for new, old in pairs:
                assert _rel_gap(new, old) <= 1e-11, (params, omega0, n, new, old)


def _mp_occupation(params, omega0, n):
    """sum_{k<n} E_A X_k by the mean recursion m_{k+1} = beta_a m_k + alpha_a."""
    m, total = mpmath.mpf(omega0), mpmath.mpf(0)
    ba, aa = mpmath.mpf(params.beta_a), mpmath.mpf(params.alpha_a)
    for _ in range(n):
        total += m
        m = ba * m + aa
    return total


def _mp_divergence_rate(params, x):
    """g(x) = f_A log(f_A/f_H) - f_A + f_H, the one-step Poisson divergence."""
    fa = mpmath.mpf(params.beta_a) * x + mpmath.mpf(params.alpha_a)
    fh = mpmath.mpf(params.beta_h) * x + mpmath.mpf(params.alpha_h)
    return fa * mpmath.log(fa / fh) - fa + fh


NEAR_ONE = [1.0 + sign * 10.0**-e for e in range(1, 13) for sign in (1.0, -1.0)]


class TestNearBetaOne:
    """S, the exact entropy and E^U against 50-digit references at beta_a -> 1."""

    @pytest.mark.parametrize("beta_a", NEAR_ONE)
    def test_matches_mpmath(self, beta_a):
        with mpmath.workdps(50):
            for n in (1, 10, 100, 1000):
                for omega0 in (1, 10):
                    bound = ParamSet(beta_a, 0.6, 2.0, 1.9)
                    s_ref = _mp_occupation(bound, omega0, n)
                    assert _occupation(bound, omega0, n) == pytest.approx(float(s_ref), rel=1e-12)
                    # E^U sums the asymptote-slope majorant g(0) + t*x of g
                    g0 = _mp_divergence_rate(bound, mpmath.mpf(0))
                    t = (mpmath.mpf(beta_a) * (mpmath.log(mpmath.mpf(beta_a) / mpmath.mpf(0.6)) - 1)
                         + mpmath.mpf(0.6))
                    upper_ref = n * g0 + t * s_ref
                    assert entropy_upper(bound, omega0, n) == pytest.approx(
                        float(upper_ref), rel=1e-12)
                    # on NI/SP1 g is linear: I = n*(g(1) - slope) + slope*S
                    for exact in (ParamSet(beta_a, 0.6, 0.0, 0.0),
                                  ParamSet(beta_a, 0.6, 2.0 * beta_a, 1.2)):
                        assert classify(exact, 0.5).exactly_computable
                        s_ref = _mp_occupation(exact, omega0, n)
                        g1 = _mp_divergence_rate(exact, mpmath.mpf(1))
                        slope = _mp_divergence_rate(exact, mpmath.mpf(2)) - g1
                        assert exact_entropy(exact, omega0, n) == pytest.approx(
                            float(n * (g1 - slope) + slope * s_ref), rel=1e-12)

    def test_report_near_one(self):
        """Raised "entropy branches disagree" before S had a single formula."""
        report = entropy_report(ParamSet(1.0 + 1e-9, 0.6, 2.0, 1.9), 10, 10)
        assert report.lower == pytest.approx(18.919, abs=1e-3)
        assert report.upper == pytest.approx(21.083, abs=1e-3)
        at_one = entropy_report(ParamSet(1.0, 0.6, 2.0, 1.9), 10, 10)
        assert report.lower == pytest.approx(at_one.lower, rel=1e-7)
        assert report.upper == pytest.approx(at_one.upper, rel=1e-7)


class TestOverflow:
    """A sum or value beyond a double is a GWIError, never inf or OverflowError."""

    @pytest.mark.parametrize("params, n", [
        (ParamSet(1.8, 0.9, 2.8, 0.7), 2000),  # S itself overflows
        (ParamSet(2.0, 0.01, 1.0, 1.5), 1020),  # S is finite, t*S is not
    ])
    def test_bound_cases(self, params, n):
        with pytest.raises(GWIError, match="double"):
            entropy_report(params, 1, n)
        with pytest.raises(GWIError, match="double"):
            entropy_upper(params, 1, n)
        with pytest.raises(GWIError, match="double"):
            tangent_component_limit(params, 1, n)

    def test_exact_case(self):
        with pytest.raises(GWIError, match="double"):
            exact_entropy(ParamSet(4.0, 2.0, 4.0, 2.0), 1, 2000)
        with pytest.raises(GWIError, match="double"):
            entropy_report(ParamSet(4.0, 2.0, 4.0, 2.0), 1, 2000)

    def test_limit_winner_keeps_inf(self):
        """y_best = inf marks the y -> infinity limit as the winning tangent."""
        report = entropy_report(ParamSet(1.8, 0.9, 2.8, 0.7), 1, 50)
        assert report.y_best == math.inf
        assert math.isfinite(report.lower) and math.isfinite(report.upper)
