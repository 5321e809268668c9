"""Shared generators for random valid parameter constellations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gwidiv import GWIError, ParamSet, classify, lambda_weights, run_recursion

ALL_CASES = ("NI", "SP1", "SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4")


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


def prefix_sequences(p: float, q: float, params: ParamSet, lam: float, n: int):
    """a[0..n] and b[0..n] of the a/b recursion, with a[0] = b[0] = 0.

    a[k] is the end state of a k-step ``run_recursion``.  b[k] =
    p*exp(a[k-1]) - alpha_lambda is rebuilt from a[k-1], and every prefix's
    ``b_sum`` must be the in-order sum of these b[k], bit for bit.
    """
    _, al = lambda_weights(params, lam)
    a, b, b_sum = [0.0], [0.0], 0.0
    for k in range(1, n + 1):
        trace = run_recursion(p, q, params, lam, k)
        e = math.exp(a[-1]) if a[-1] < 709.0 else math.inf
        b.append(p * e - al if p > 0.0 else -al)
        b_sum += b[-1]
        assert trace.b_sum == b_sum
        a.append(trace.a_n)
    return np.array(a), np.array(b)


def log_bound_at(pair, params: ParamSet, lam: float, omega0: int, n: int) -> float:
    """a_n*omega0 + b_1 + ... + b_n for ``pair``: its log bound at horizon n."""
    trace = run_recursion(pair.p, pair.q, params, lam, n)
    return trace.a_n * omega0 + trace.b_sum


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
