"""Relative-entropy exact values, upper bound E^U and lower-bound family."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from gwidiv import (
    BoundOrderError,
    CaseError,
    CaseTag,
    EntropyReport,
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
from gwidiv import entropy
from gwidiv.entropy import _occupation, _stationary_point, horizontal_component

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
        """The best tangent point y_best is where the tangent's y-derivative vanishes."""
        for _ in range(30):
            case = SP_CASES[rng.integers(0, len(SP_CASES))]
            params = random_params(rng, case)
            report = entropy_lower(params, 1, 3)
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

    def test_one_pass_classifies_once_and_sums_once(self, rng, monkeypatch):
        calls = {"classify": 0, "_occupation": 0}

        def counted(name):
            fn = getattr(entropy, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(entropy, name, counted(name))
        for case in ALL_CASES:
            for _ in range(3):
                calls.update(classify=0, _occupation=0)
                entropy_report(random_params(rng, case), 2, 9)
                assert calls == {"classify": 1, "_occupation": 1}, case

    def test_views_are_the_report(self, rng):
        for case in ALL_CASES:
            params = random_params(rng, case)
            report = entropy_report(params, 3, 40)
            if report.exact is not None:
                assert exact_entropy(params, 3, 40) == report.exact
            else:
                assert entropy_upper(params, 3, 40) == report.upper
                assert entropy_lower(params, 3, 40) == replace(report, upper=None)

    def test_order_allowance_is_relative(self):
        """The reports share one allowance, 1e-12 * max(1, |lower|, |upper|)."""
        EntropyReport(lower=1e20 * (1.0 + 5e-13), upper=1e20, case=CaseTag.SP2)
        with pytest.raises(BoundOrderError, match="exceeds upper bound"):
            EntropyReport(lower=1e-3 + 1e-10, upper=1e-3, case=CaseTag.SP2)

    def test_overflow_names_the_value(self):
        """An exact or upper value beyond a double is refused with the same
        message by every view; the bound report once named its lower bound."""
        message = "entropy value overflows a double at n = 1019"
        with pytest.raises(GWIError, match=message):
            exact_entropy(ParamSet(2.0, 0.5, 0.0, 0.0), 29, 1019)
        for view in (entropy_report, entropy_upper, entropy_lower):
            with pytest.raises(GWIError, match=message):
                view(ParamSet(2.0, 0.5, 1.0, 1.0), 29, 1019)

    def test_horizontal_component_checks_its_population(self):
        """(omega0, n) = (0, -5) once gave a negative lower-bound component."""
        for omega0, n in ((0, -5), (True, 2.5), (1, 0)):
            with pytest.raises(GWIError):
                horizontal_component(ParamSet(0.8, 0.6, 2.0, 1.1), omega0, n)


# Reference copy of the twin-branch formulas that the line integrals
# n*c0 + c1*S replaced: each component written out once for beta_a != 1 and
# once for beta_a = 1 (``one``), with the searches that the closed forms of
# entropy_lower and horizontal_component replaced on top.


def _golden_max(fn, lo, hi, iters=80):
    """Golden-section maximization of a unimodal-enough fn on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        if b - a < 1e-10 * max(1.0, abs(a)):
            break
    x = 0.5 * (a + b)
    return x, fn(x)


def ref_horizontal_argmax(p):
    """argmax over the integers of f_A(x)[1 - log(f_A/f_H)(x)] - f_H(x), by a scan.

    Ties break toward the smaller integer; the scan stops after the value
    has decreased for 10 consecutive integers past the zero-of-phi region.
    """
    def g(x):
        fa, fh = p.rate_a(x), p.rate_h(x)
        return fa * (1.0 - math.log(fa / fh)) - fh

    guard = 0
    if p.beta_a != p.beta_h:
        x_star = (p.alpha_h - p.alpha_a) / (p.beta_a - p.beta_h)
        guard = max(0, math.ceil(x_star))
    best_x, best = 0, g(0)
    drops = 0
    x = 0
    while drops < 10 or x <= guard:
        x += 1
        val = g(x)
        if val > best:
            best_x, best = x, val
            drops = 0
        else:
            drops += 1
        if x > 10**6:
            raise GWIError("horizontal argmax scan did not terminate")
    return best_x


def ref_horizontal(p, nn):
    if classify(p, 0.5).value == "SP4":
        return 0.0, 0
    z = ref_horizontal_argmax(p)
    fa, fh = p.rate_a(z), p.rate_h(z)
    return (fa * (math.log(fa / fh) - 1.0) + fh) * nn, z


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
    """The old search of entropy_lower over the reference components (beta_a != 1)."""

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
    horizontal, _ = ref_horizontal(p, nn)
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


#: outputs of entropy_lower that the old search only approximated from below
SEARCHED = ("lower", "best_tan", "best_sec")


class TestTwinBranchReference:
    """The line integrals n*c0 + c1*S reproduce the twin-branch formulas."""

    def test_random_constellations_away_from_one(self):
        """1,000+ constellations of all eight cases, |beta_a - 1| >= 1e-3,
        n up to 1000: every output within 1e-11 relative of the reference.

        The suprema in SEARCHED are checked one-sidedly: the old search
        evaluated a finite set of lines, so it falls short of the closed form
        (here by up to 5.6e-5 relative); the closed form may not fall below
        it by more than 1e-12 relative.  Where the old value is higher
        still, rounding in its n*c0 + c1*S put it above the exact supremum
        (by 1.7e-10 on one SP4 point with S/n near 5e3), and the 50-digit
        supremum takes its place.
        y_best and k_best are not compared: the closed forms put them at S/n
        and floor(S/n), which the search only approximated.
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
                    elif name in SEARCHED:
                        floor = old
                        if new < old - 1e-12 * max(1.0, abs(old)):
                            floor = min(old, float(_mp_suprema(params, omega0, n)[name]))
                        assert new >= floor - 1e-12 * max(1.0, abs(old)), (name, params, n)
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

    def test_tangent_point_is_mean_population(self):
        """The best tangent point is S/n, finite even where S/n is 6.5e11."""
        params = ParamSet(1.8, 0.9, 2.8, 0.7)
        report = entropy_report(params, 1, 50)
        assert report.y_best == _occupation(params, 1, 50) / 50
        assert report.k_best == math.floor(report.y_best)
        assert math.isfinite(report.lower) and math.isfinite(report.upper)


def _mp_suprema(params, omega0, n):
    """50-digit suprema of the three lower-bound families and of E^L.

    The best tangent is n*g(S/n), the best secant n*ghat(S/n) with ghat the
    interpolant of g at the integers, and the horizontal component n*min_Z g
    (0 on SP4, where g decreases to 0).  ghat >= g >= 0, so E^L = n*ghat(S/n).
    g(x) loses about 2*log10(x) digits to cancellation, so the precision
    grows with S/n.
    """
    digits = int(mpmath.log10(1 + _mp_occupation(params, omega0, n) / n))
    with mpmath.workdps(50 + 2 * digits):
        mbar = _mp_occupation(params, omega0, n) / n
        k = mpmath.floor(mbar)

        def g(x):
            return _mp_divergence_rate(params, mpmath.mpf(x))

        z, horizontal = 0, mpmath.mpf(0)
        if params.beta_a != params.beta_h:
            while g(z + 1) < g(z):
                z += 1
            horizontal = n * g(z)
        best_sec = n * (g(k) + (mbar - k) * (g(k + 1) - g(k)))
        return {"best_tan": n * g(mbar), "best_sec": best_sec,
                "horizontal": horizontal, "lower": best_sec}


def _supercritical(rng, case):
    """A random constellation of ``case`` with beta_a in [1.1, 1.6)."""
    while True:
        params = random_params(rng, case, beta_hi=1.6)
        if params.beta_a >= 1.1:
            return params


def _closed_form_points():
    rng = np.random.default_rng(31)
    points = []
    for case in SP_CASES:
        for draw in (random_params, _supercritical):
            for _ in range(6):
                params = draw(rng, case)
                for n in (1, 10, 100, 1000):
                    points.append((params, int(rng.integers(1, 21)), n))
    for beta_a in NEAR_ONE:
        for params in (ParamSet(beta_a, 0.6, 2.0, 1.9), ParamSet(beta_a, beta_a, 2.0, 1.9)):
            points += [(params, 10, 10), (params, 10, 1000)]
    return points


#: supercritical SP4 inputs where the old search returned lower = 0
OLD_ZERO_SP4 = [
    (ParamSet(1.2, 1.2, 1.0, 1.5), 5, 100),
    (ParamSet(1.1, 1.1, 2.0, 0.5), 1, 300),
    (ParamSet(1.3, 1.3, 1.0, 1.5), 1, 100),
    (ParamSet(1.5, 1.5, 0.5, 0.7), 20, 30),
]


class TestClosedFormReference:
    """best_tan, best_sec and horizontal against 50-digit suprema."""

    def test_matches_mpmath(self):
        """All six bound cases, sub- and supercritical draws, SP4 and
        beta_a = 1 +- 10^-e: each within 1e-12 relative."""
        worst = 0.0
        for params, omega0, n in _closed_form_points():
            report = entropy_lower(params, omega0, n)
            ref = _mp_suprema(params, omega0, n)
            for name in ("best_tan", "best_sec", "horizontal"):
                gap = _rel_gap(getattr(report, name), float(ref[name]))
                assert gap <= 1e-12, (name, params, omega0, n)
                worst = max(worst, gap)
            assert report.y_best == pytest.approx(float(_mp_occupation(params, omega0, n) / n),
                                                  rel=1e-12)
        assert worst > 0.0

    @pytest.mark.parametrize("params, omega0, n", OLD_ZERO_SP4)
    def test_old_zero_sp4_is_positive(self, params, omega0, n):
        report = entropy_report(params, omega0, n)
        ref = float(_mp_suprema(params, omega0, n)["lower"])
        assert 0.0 < ref <= report.upper
        assert report.lower == pytest.approx(ref, rel=1e-6)
        assert _rel_gap(report.lower, ref) <= 1e-12


def _mp_horizontal(params, n):
    """(z*, n*g(z*)) in 60 digits, z* the argmin of g over the two lattice
    points around the float stationary point (0 when that is not positive)."""
    x_min = _stationary_point(params)
    with mpmath.workdps(60):
        def g(x):
            return _mp_divergence_rate(params, mpmath.mpf(x))

        z = 0
        if x_min > 0.0:
            z = math.floor(x_min)
            if g(z + 1) < g(z):
                z += 1
        return z, n * g(z)


class TestHorizontalScanReference:
    """The closed-form horizontal minimizer and its value against 60 digits."""

    def test_random_constellations(self):
        rng = np.random.default_rng(47)
        lambertw_branch = moved = 0
        for i in range(600):
            case = ("SP2", "SP3a", "SP3b", "SP3c", "SP3d")[i % 5]
            params = (random_params if i % 2 else _supercritical)(rng, case)
            n = int(rng.integers(1, 1001))
            x_star = (params.alpha_h - params.alpha_a) / (params.beta_a - params.beta_h)
            if params.rate_a(x_star) <= 0.0:
                lambertw_branch += 1
            value, z = horizontal_component(params, 1, n)
            ref_z, ref_value = _mp_horizontal(params, n)
            assert z == ref_z, (params, n)
            assert _rel_gap(value, float(ref_value)) <= 1e-12, (params, n)
            moved += z > 0
        assert lambertw_branch >= 50 and moved >= 100, (lambertw_branch, moved)

    def test_small_offspring_gaps(self):
        """|beta_a - beta_h| in 1e-5..1e-2 puts z* as far out as 4e9, where
        g(z*) is far below f_A and f_A (log(f_A/f_H) - 1) + f_H cancels: each
        value within 1e-8 relative of 60 digits (worst 1.4e-10 here), and
        none negative."""
        rng = np.random.default_rng(48)
        points = [(ParamSet(0.4630323144388291, 0.46305765026143847,
                            2.3336092081154396, 1.2113111393328484), 7)]
        while len(points) < 200:
            gap = 10.0 ** rng.uniform(-5.0, -2.0)
            beta_h = rng.uniform(0.3, 1.25)
            alpha_a, alpha_h = rng.uniform(0.2, 2.0, size=2)
            params = ParamSet(beta_h + rng.choice((-gap, gap)), beta_h, alpha_a, alpha_h)
            if classify(params, 0.5).value in ("SP3a", "SP3b", "SP3c"):
                points.append((params, int(rng.integers(1, 1001))))
        for params, n in points:
            value, z = horizontal_component(params, 1, n)
            ref_z, ref_value = _mp_horizontal(params, n)
            assert z == ref_z, (params, n)
            assert value >= 0.0 and abs(value - ref_value) <= 1e-8 * ref_value, (params, n)
        assert horizontal_component(*points[0][:1], 1, 7) == (1.4008349189245085e-15, 44297)


class TestBoundOrder:
    """0 <= E^L <= E^U where the old search let E^L overtake E^U."""

    @pytest.mark.parametrize("n", [100, 300, 500, 1000])
    def test_supercritical(self, n):
        rng = np.random.default_rng(n)
        points = [(_supercritical(rng, case), int(rng.integers(1, 21)))
                  for case in ("SP2", "SP3b", "SP3c") for _ in range(10)]
        points.append((ParamSet(1.1412442533744493, 0.9273376114944971,
                                0.6419940810377196, 0.6419940810377196), 10))
        for params, omega0 in points:
            report = entropy_report(params, omega0, n)
            assert 0.0 <= report.lower <= report.upper, (params, omega0, n)
            assert math.isfinite(report.upper)
