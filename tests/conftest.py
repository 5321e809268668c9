"""Shared generators for random valid parameter constellations."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from gwidiv import GWIError, ParamSet, classify, lambda_weights, recursions, run_recursion

ALL_CASES = ("NI", "SP1", "SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4")


@pytest.fixture(autouse=True)
def empty_constellation_memo():
    """Each test starts with no Constellation in the recursions memo, so its
    call counts do not depend on the test before it."""
    recursions._memo = None


def random_params(rng: np.random.Generator, case: str, lam: float = 0.5,
                  beta_hi: float = 1.25) -> ParamSet:
    """Draw a valid ParamSet classified as ``case`` at order ``lam``.

    Parameter ranges are kept desk-scale (subcritical-ish offspring, small
    immigration) so that enumeration oracles stay cheap.
    """
    for _ in range(4000):
        beta_a, beta_h = rng.uniform(0.3, beta_hi, size=2)
        if abs(beta_a - beta_h) < 0.05:
            continue
        if case == "NI":
            return ParamSet(beta_a, beta_h, 0.0, 0.0)
        if case == "SP1":
            scale = rng.uniform(0.3, 2.0)
            return ParamSet(beta_a, beta_h, scale * beta_a, scale * beta_h)
        if case == "SP2":
            alpha = rng.uniform(0.2, 2.0)
            return ParamSet(beta_a, beta_h, alpha, alpha)
        if case == "SP4":
            beta = rng.uniform(0.3, beta_hi)
            alpha_a, alpha_h = rng.uniform(0.2, 2.0, size=2)
            if abs(alpha_a - alpha_h) < 0.05:
                continue
            return ParamSet(beta, beta, alpha_a, alpha_h)
        if case in ("SP3a", "SP3b"):
            x_star = -rng.uniform(0.2, 5.0)
        elif case == "SP3c":
            x_star = float(rng.integers(0, 4)) + rng.uniform(0.15, 0.85)
        else:  # SP3d
            x_star = float(rng.integers(1, 5))
        alpha_a = rng.uniform(0.3, 2.2)
        alpha_h = alpha_a + x_star * (beta_a - beta_h)
        if alpha_h < 0.05:
            continue
        try:
            params = ParamSet(beta_a, beta_h, alpha_a, alpha_h)
        except GWIError:
            continue
        if classify(params, lam).value == case:
            return params
    raise RuntimeError(f"failed to draw a {case} instance")


def random_any(rng: np.random.Generator, lam: float = 0.5) -> ParamSet:
    return random_params(rng, ALL_CASES[rng.integers(0, len(ALL_CASES))], lam)


def exact_tail(s: float, c: float, r: int, comp: float = 0.0) -> float:
    """s + comp + r*c in exact rational arithmetic, rounded once.

    An inf or nan operand gives what r in-order additions of c to s + comp
    give (once inf or nan, a sum no longer changes); an exact result beyond
    the float range is +-inf.
    """
    if not all(map(math.isfinite, (s, c, comp))):
        return s + comp + c if r else s + comp
    exact = Fraction(s) + Fraction(comp) + r * Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def reference_traces(p: float, q: float, params: ParamSet, lam: float, horizons):
    """{n: (a_n, b_sum, a_sum, steps)}: the contract of ``run_recursion``, one
    run up to max(horizons).

    Every step in order (b added plainly, a with TwoSum compensation) up to
    the first k with a_k == a_{k-1}; a later horizon n adds the n - k repeats
    of (a_k, b_k) in ``fractions.Fraction`` and rounds once.
    """
    p, q, (bl, al) = float(p), float(q), map(float, lambda_weights(params, lam))
    a = b_sum = a_sum = comp = 0.0
    out = {}
    for k in range(1, max(horizons) + 1):
        e = math.exp(a) if a < 709.0 else math.inf
        prev, a = a, q * e - bl if q > 0.0 else -bl
        b = p * e - al if p > 0.0 else -al
        b_sum += b
        t = a_sum + a
        z = t - a_sum
        comp += (a_sum - (t - z)) + (a - z)
        a_sum = t
        if k in horizons:
            out[k] = (a, b_sum, a_sum + comp if math.isfinite(a_sum) else a_sum, k)
        if a == prev:
            for n in horizons:
                if n > k:
                    tail_a = exact_tail(a_sum, a, n - k, comp) if math.isfinite(a_sum) else a_sum
                    out[n] = (a, exact_tail(b_sum, b, n - k), tail_a, k)
            break
    return out


def assert_trace_matches(trace, want, label=None) -> None:
    """``trace`` equals the reference tuple ``want``, bit for bit."""
    assert [x.hex() for x in trace[:3]] == [x.hex() for x in want[:3]], (label, trace, want)
    assert trace.steps == want[3], (label, trace, want)


def prefix_sequences(p: float, q: float, params: ParamSet, lam: float, n: int):
    """a[0..n] and b[0..n] of the a/b recursion, with a[0] = b[0] = 0.

    a[k] is the end state of a k-step ``run_recursion``, and b[k] =
    p*exp(a[k-1]) - alpha_lambda is rebuilt from a[k-1].  Every prefix's
    trace must match :func:`reference_traces` bit for bit.
    """
    _, al = lambda_weights(params, lam)
    reference = reference_traces(p, q, params, lam, range(1, n + 1))
    a, b = [0.0], [0.0]
    for k in range(1, n + 1):
        trace = run_recursion(p, q, params, lam, k)
        assert_trace_matches(trace, reference[k], k)
        e = math.exp(a[-1]) if a[-1] < 709.0 else math.inf
        b.append(p * e - al if p > 0.0 else -al)
        a.append(trace.a_n)
    return np.array(a), np.array(b)


def log_bound_at(pair, params: ParamSet, lam: float, omega0: int, n: int) -> float:
    """a_n*omega0 + b_1 + ... + b_n for ``pair``: its log bound at horizon n."""
    trace = run_recursion(pair.p, pair.q, params, lam, n)
    return trace.a_n * omega0 + trace.b_sum


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
