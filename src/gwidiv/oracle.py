"""Independent desk-scale ground truth: truncated path-space enumeration and MC.

Everything here deliberately avoids the recursion/bound machinery: Hellinger
integrals come from dynamic programming over the lambda-weighted transition
kernel, Bayes risks and Neyman-Pearson errors from exact enumeration of
(state, likelihood-ratio) atoms under the hypothesis law, and a Monte-Carlo
estimator simulates the process directly.  Truncation points are chosen
from Poisson tails so that the total discarded mass stays within a budget,
which yields certified two-sided enclosures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtr, pdtrc, pdtrik, xlogy

from .decisions import DecisionConfig
from .params import (GWIError, ParamSet, _initial_population, _integer, _phi_kernel,
                     lambda_weights, validate_order)

__all__ = [
    "PathLaw",
    "TruncationPolicy",
    "path_law_atoms",
    "enum_log_hellinger",
    "enum_log_hellinger_profile",
    "mc_log_hellinger",
    "enum_bayes_risk",
    "enum_np_type2",
    "enum_relative_entropy",
]

#: Monte-Carlo block size; fixed so results are deterministic given the seed
_MC_BLOCK = 100_000

#: relative cushion added to certified errors against float summation rounding
_ROUNDING_CUSHION = 1e-12

#: most atoms one path-law step may expand into, checked before the expansion
#: allocates: a child costs about 100 bytes at the step's peak, so about 1 GB
_MAX_ATOMS = 10_000_000


@dataclass(frozen=True)
class PathLaw:
    """Atoms (state, log Z_n, P_H-probability) of the truncated n-step path law.

    ``trimmed_h``/``trimmed_a`` are the discarded masses under the two laws;
    ``trimmed_logz_mass`` is the first-overshoot estimate of the discarded
    |log Z| mass used by the entropy oracle.  The three arrays are read-only:
    ``path_law_atoms`` hands the same law to every caller that asks for it.
    """

    states: np.ndarray
    log_z: np.ndarray
    prob_h: np.ndarray
    trimmed_h: float
    trimmed_a: float
    trimmed_logz_mass: float

    def prob_a(self) -> np.ndarray:
        return self.prob_h * np.exp(self.log_z)


@dataclass(frozen=True)
class TruncationPolicy:
    """Total discarded-mass budget and a hard cap on the state space."""

    tail_budget: float = 1e-9
    max_state: int = 5000

    def __post_init__(self) -> None:
        budget, cap = self.tail_budget, self.max_state
        # NaN fails both comparisons; a bool is an int but not a budget
        if isinstance(budget, bool) or not isinstance(budget, (int, float)) or not 0.0 < budget < 1.0:
            raise GWIError(f"tail_budget must be a finite number in (0, 1), got {budget!r}")
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 10:
            raise GWIError(f"max_state must be an integer >= 10, got {cap!r}")


# The three Poisson helpers repeat the arithmetic of scipy.stats.poisson's
# pmf, sf and isf (the scipy.special calls behind them), without its
# argument-checking front end, so the results are the same floats.


def _poisson_pmf(k: np.ndarray, mu) -> np.ndarray:
    """Poisson(mu) probabilities at the integers k (mu broadcasts against k)."""
    return np.clip(np.exp(xlogy(k, mu) - gammaln(k + 1) - mu), 0.0, 1.0)


def _poisson_sf(k, mu) -> np.ndarray:
    """P(Poisson(mu) > k) at the integers k (k and mu broadcast)."""
    return np.where(np.less(k, 0), 1.0, np.clip(pdtrc(k, mu), 0.0, 1.0))


def _poisson_isf(q: float, mu: np.ndarray) -> np.ndarray:
    """Per rate in mu: the smallest y with P(Poisson(mu) > y) <= q, for q in
    (0, 1); NaN (or inf) where the float inversion fails, as it does once
    1 - q rounds to 1."""
    p = 1.0 - q
    vals = np.ceil(pdtrik(p, mu))
    vals1 = np.maximum(vals - 1, 0)
    return np.where(pdtr(vals1, mu) >= p, vals1, vals)


def _poisson_cutoffs(rates: np.ndarray, eps: float, max_state: int) -> list[int]:
    """Per rate: a y with P(Poisson(rate) > y) <= eps, capped at max_state.

    Where the inversion works, y is the smallest such integer.  Where it
    fails (eps below ~1e-16), y is the first of y0, 2*y0 + 1, ... (y0 =
    ceil(rate + 10 sqrt(rate) + 10)) whose tail is at most eps: conservative,
    but not the smallest.  A zero rate gives 0.  The first rate whose y
    exceeds the cap raises.
    """
    ys = _poisson_isf(eps, rates).tolist()
    out = []
    for rate, y in zip(rates.tolist(), ys):
        if rate == 0.0:
            y = 0
        elif not math.isfinite(y):
            y = math.ceil(rate + 10.0 * math.sqrt(rate) + 10.0)
            while _poisson_sf(y, rate) > eps and y < max_state:
                y = 2 * y + 1
        y = int(y)
        if y + 1 > max_state:
            raise GWIError(
                f"state-space blowup (needed {y + 1} states, cap {max_state}); "
                "reduce the horizon or loosen the tail budget"
            )
        out.append(y)
    return out


def enum_log_hellinger_profile(
    params: ParamSet,
    lam: float,
    omega0: int,
    n: int,
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[tuple[float, float]]:
    """Enumeration values for every horizon k = 0..n in one forward pass.

    Entry k is (log_value, error_bound) with the certified enclosure
    exp(log_value) <= H_k <= exp(log_value) + error_bound.  A step whose kept
    mass underflows to 0, where log_value would be -inf, is refused.
    """
    lam = validate_order(lam)
    cap = policy.max_state
    omega0, n = _initial_population(omega0, n, 0, cap)
    phi = _phi_kernel(params, lam, *lambda_weights(params, lam))
    weights = np.zeros(cap + 1)
    weights[omega0] = 1.0
    trimmed = 0.0
    out = [(0.0, 0.0)]
    for step in range(1, n + 1):
        live = np.nonzero(weights)[0]
        eps = policy.tail_budget / (max(n, 1) * max(len(live), 1))
        # each live state's kernel row has mass exp(phi) and Poisson(varphi) shape
        phis, varphis = zip(*map(phi, live.astype(float).tolist()))
        totals = list(map(math.exp, phis))
        rates = np.array(varphis)
        cutoffs = _poisson_cutoffs(rates, eps, cap)
        # one kernel row per live state, zero past its cutoff (an extinct NI
        # state, rate 0, has the row (total, 0, ...)), plus a spare zero
        # column: numpy adds the rows of an (R, K >= 2) matrix along axis 0
        # one after another, in state order as the per-state loop did, but
        # sums an (R, 1) one pairwise
        ys = np.arange(max(cutoffs, default=0) + 2)
        rows = np.array(totals)[:, None] * _poisson_pmf(ys, rates[:, None])
        rows[ys[None, :] > np.array(cutoffs)[:, None]] = 0.0
        w_live = weights[live]
        for w, total, row, y_max in zip(w_live.tolist(), totals, rows, cutoffs):
            trimmed += w * max(total - row[: y_max + 1].sum(), 0.0)
        weights = np.zeros(cap + 1)
        weights[: len(ys)] = (w_live[:, None] * rows).sum(axis=0)
        kept = weights.sum()
        if kept == 0.0:
            raise GWIError(f"kept path mass underflows to 0 at step {step} of {n}; "
                           "its log is -inf")
        # the cushion absorbs float rounding of the kept-mass summation, so
        # the enclosure stays valid beyond the exact-arithmetic argument
        out.append((float(np.log(kept)), float(trimmed + _ROUNDING_CUSHION * kept)))
    return out


def enum_log_hellinger(
    params: ParamSet,
    lam: float,
    omega0: int,
    n: int,
    policy: TruncationPolicy = TruncationPolicy(),
) -> tuple[float, float]:
    """Truncated-exact log Hellinger integral with a certified error bound.

    Returns (log_value, error_bound): all kept path mass is exactly summed,
    so exp(log_value) is a lower bound for H_n and every trimmed branch can
    contribute at most its own kernel mass, giving
    H_n <= exp(log_value) + error_bound.
    """
    return enum_log_hellinger_profile(params, lam, omega0, n, policy)[n]


def mc_log_hellinger(
    params: ParamSet, lam: float, omega0: int, n: int, reps: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of log H_n via H = E_H[Z_n^lambda].

    Paths are simulated under the hypothesis law in fixed-size blocks, each
    driven by its own counter-based Philox stream keyed by (seed, block), so
    the result is bit-reproducible for a given seed.  Returns the log-scale
    estimate and its delta-method log-scale standard error.  That error is an
    estimate, not a certificate.  For lambda > 1/2 the draws come from the
    alternative instead, by H_lambda(A, H) = H_{1-lambda}(H, A): the second
    moment of the sampled Z^lambda is then H_{2 min(lambda, 1-lambda)} <= 1,
    where under the hypothesis it is H_{2 lambda}, which is unbounded in n
    and heavy-tailed.  For the SP3b law ParamSet(0.8652015606657605,
    0.41477744087016977, 1.2142988534394856, 0.2633468617418253) at lambda
    0.9, omega0 5, n 5 and 10,000 paths (seed 1130065792), hypothesis draws
    gave -1.380 +- 0.085, eight standard errors below the enumerated
    -0.6938; alternative draws give -0.6953 +- 0.0058.
    """
    lam = validate_order(lam)
    if lam > 0.5:
        params, lam = params.swapped(), 1.0 - lam
    reps, seed = _integer("reps", reps), _integer("seed", seed)
    if reps < 1000:
        raise GWIError("need reps >= 1000")
    if not 0 <= seed < 2**64:
        raise GWIError(f"seed must lie in [0, 2**64), got {seed}")
    omega0, n = _initial_population(omega0, n, 1)
    scores = np.empty(reps)
    done = 0
    block_index = 0
    while done < reps:
        size = min(_MC_BLOCK, reps - done)
        key = np.array([seed, block_index], dtype=np.uint64)  # a list casts seeds >= 2**63 via float
        rng = np.random.Generator(np.random.Philox(key=key))
        state = np.full(size, omega0, dtype=np.int64)
        log_z = np.zeros(size)
        for _ in range(n):
            rate_a = params.beta_a * state + params.alpha_a
            rate_h = params.beta_h * state + params.alpha_h
            offspring = rng.poisson(rate_h)
            alive = rate_h > 0.0
            ratio = np.where(alive, rate_a / np.where(alive, rate_h, 1.0), 1.0)
            log_z += np.where(
                alive, -(rate_a - rate_h) + offspring * np.log(ratio), 0.0
            )
            state = offspring
        scores[done : done + size] = lam * log_z
        done += size
        block_index += 1
    peak = scores.max()
    shifted = np.exp(scores - peak)
    mean = shifted.mean()
    log_estimate = peak + math.log(mean)
    std_error_log = shifted.std(ddof=1) / (math.sqrt(reps) * mean)
    return float(log_estimate), float(std_error_log)


def path_law_atoms(
    params: ParamSet, omega0: int, n: int, policy: TruncationPolicy = TruncationPolicy()
) -> PathLaw:
    """Joint (state, log Z_n, P_H-probability) atoms of the n-step path law.

    Atoms are grouped by current state; atoms landing on the same state with
    bitwise-equal log-likelihood-ratio are merged (no binning).  Each
    expansion is truncated where the Poisson tails of BOTH conditional rates
    drop below the per-step budget; since the Z-weighted hypothesis kernel
    is exactly the alternative kernel, the trimmed alternative mass is
    computable from the Poisson(rate_a) tail and tracked alongside the
    trimmed hypothesis mass.  Returns a ``PathLaw``: the atoms' states,
    log Z_n and P_H-probabilities (sorted by state, then log Z_n), the two
    trimmed masses and the first-overshoot estimate of the trimmed |log Z|
    mass used by the entropy oracle.  A step that would expand into more
    than 10,000,000 atoms raises ``GWIError`` before it allocates.

    The arguments are checked on every call.  The law itself sits in a
    one-entry memo, so ``enum_bayes_risk``, ``enum_np_type2`` and
    ``enum_relative_entropy`` on the same (params, omega0, n, policy) share
    one build; its arrays are read-only.  The memo holds the last law (24
    bytes per atom) after the call returns, and a call with other arguments
    keeps it alive until its own build finishes: that build's peak grows by
    the previous law's size, at most 240 MB on top of the step's 1 GB.
    """
    omega0, n = _initial_population(omega0, n, 1, policy.max_state)
    return _path_law(params, omega0, n, policy)


@functools.lru_cache(maxsize=1)
def _path_law(params: ParamSet, omega0: int, n: int, policy: TruncationPolicy) -> PathLaw:
    """``path_law_atoms`` on checked arguments.  The memo keeps the last law
    alive until a call with other arguments replaces it."""
    # the atoms, sorted by state and, within a state, by log Z
    states = np.full(1, omega0, dtype=np.int64)
    log_z = np.zeros(1)
    prob = np.ones(1)
    trimmed_h = 0.0
    trimmed_a = 0.0
    trimmed_logz_mass = 0.0
    for step in range(n):
        starts = np.flatnonzero(np.diff(states, prepend=-1))
        xs = states[starts]
        bounds = [*starts.tolist(), len(states)]
        eps = policy.tail_budget / (n * len(xs))
        rates_a, rates_h = params.rate_a(xs), params.rate_h(xs)
        # a zero hypothesis rate (extinct NI state) has a zero alternative rate
        cutoffs = _poisson_cutoffs(np.maximum(rates_h, rates_a), eps, policy.max_state)
        ys = np.arange(max(cutoffs) + 1)
        pmf_rows = _poisson_pmf(ys, rates_h[:, None])
        cut = np.array(cutoffs)
        sf_a, sf_a1 = _poisson_sf(cut, rates_a).tolist(), _poisson_sf(cut - 1, rates_a).tolist()
        abs_max = np.maximum.reduceat(np.abs(log_z), starts).tolist()
        weight_a = prob * np.exp(log_z)
        bases = -(rates_a - rates_h)
        rate_list, base_list = rates_a.tolist(), bases.tolist()
        # 0 on an extinct NI state: next state 0 w.p. 1, factor 1, no trimming
        log_ratios = [math.log(a / h) if h else 0.0 for a, h in zip(rate_list, rates_h.tolist())]
        # each state's masses are sums over its own slice: np.add.reduceat
        # adds a long run in another order, and trimmed_a would move an ulp
        for i in np.flatnonzero(rates_h).tolist():
            start, end = bounds[i], bounds[i + 1]
            mass_h, mass_a = prob[start:end].sum(), float(weight_a[start:end].sum())
            trimmed_h += mass_h * max(1.0 - pmf_rows[i, : cutoffs[i] + 1].sum(), 0.0)
            trimmed_a += mass_a * sf_a[i]
            # first trimmed moment of |log Z| under P_A on this expansion,
            # via E[y; y > Y] = rate * sf(Y - 1); later steps are estimated
            # to contribute comparably per remaining generation
            overshoot = (abs_max[i] + abs(base_list[i])) * sf_a[i]
            overshoot += abs(log_ratios[i]) * rate_list[i] * sf_a1[i]
            trimmed_logz_mass += (n - step) * mass_a * overshoot
        # every expansion as one (next state, atom) block, in state order:
        # parent run r expands into (cutoff + 1) x (run length) children
        counts = np.diff(bounds)
        sizes = counts * (cut + 1)
        children = int(sizes.sum())
        if children > _MAX_ATOMS:
            raise GWIError(
                f"atom blowup (step {step + 1} expands into {children} atoms, cap "
                f"{_MAX_ATOMS}); reduce the horizon or loosen the tail budget"
            )
        parent = np.repeat(np.arange(len(xs)), sizes)
        offset = np.arange(len(parent)) - (np.cumsum(sizes) - sizes)[parent]
        child_y, atom = np.divmod(offset, counts[parent])
        atom += starts[parent]
        increments = bases[:, None] + ys * np.array(log_ratios)[:, None]
        states = child_y
        log_z = log_z[atom] + increments[parent, child_y]
        prob = prob[atom] * pmf_rows[parent, child_y]
        del parent, offset, atom  # the sort below is the step's memory peak
        # merge atoms with equal state and bitwise-equal log Z.  The stable
        # sort on the complex key (state, log Z) is lexsort's permutation;
        # each merged atom starts from its first part and adds the others in
        # state, then atom order
        key = np.empty(len(states), dtype=np.complex128)
        key.real, key.imag = states, log_z
        order = np.argsort(key, kind="stable")
        states, log_z, prob = states[order], log_z[order], prob[order]
        first = np.ones(len(states), dtype=bool)
        first[1:] = (states[1:] != states[:-1]) | (log_z[1:] != log_z[:-1])
        merged = prob[first]
        np.add.at(merged, np.cumsum(first)[~first] - 1, prob[~first])
        states, log_z, prob = states[first], log_z[first], merged
    for array in (states, log_z, prob):
        array.flags.writeable = False
    return PathLaw(
        states=states,
        log_z=log_z,
        prob_h=prob,
        trimmed_h=trimmed_h,
        trimmed_a=trimmed_a,
        trimmed_logz_mass=trimmed_logz_mass,
    )


def enum_bayes_risk(
    params: ParamSet,
    omega0: int,
    n: int,
    cfg: DecisionConfig,
    policy: TruncationPolicy = TruncationPolicy(),
) -> tuple[float, float]:
    """Exact Bayes risk integral min{w_H, w_A Z_n} dP_H over the kept atoms.

    The certified error is w_H times the trimmed hypothesis mass (the
    integrand never exceeds w_H).
    """
    law = path_law_atoms(params, omega0, n, policy)
    risk = float(np.sum(law.prob_h * np.minimum(cfg.weight_h, cfg.weight_a * np.exp(law.log_z))))
    return risk, cfg.weight_h * law.trimmed_h + _ROUNDING_CUSHION * max(risk, 1.0)


def enum_np_type2(
    params: ParamSet,
    omega0: int,
    n: int,
    level: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> tuple[float, float]:
    """Exact minimal type-II error by randomized likelihood-ratio thresholding.

    Atoms are sorted by likelihood ratio; rejection mass is spent greedily
    under the hypothesis until the level is exhausted, randomizing at the
    threshold atom.  The reported error bound covers both the trimmed
    alternative mass (counted as accepted) and the level the optimal test
    could additionally spend on trimmed paths.
    """
    if not 0.0 < level < 1.0:
        raise GWIError("level must lie in (0, 1)")
    law = path_law_atoms(params, omega0, n, policy)
    log_z, prob_h, trimmed_h = law.log_z, law.prob_h, law.trimmed_h
    prob_a = law.prob_a()
    order = np.argsort(-log_z)
    log_z, prob_h, prob_a = log_z[order], prob_h[order], prob_a[order]
    cum_h = np.cumsum(prob_h)
    idx = int(np.searchsorted(cum_h, level, side="left"))
    if idx >= len(prob_h):
        # level exceeds the kept hypothesis mass: reject every kept atom
        rejected_a = prob_a.sum()
        z_threshold = math.exp(log_z[-1]) if len(log_z) else 1.0
    else:
        before = cum_h[idx - 1] if idx > 0 else 0.0
        fraction = (level - before) / prob_h[idx]
        rejected_a = prob_a[:idx].sum() + fraction * prob_a[idx]
        z_threshold = math.exp(log_z[idx])
    type2 = min(max(1.0 - float(rejected_a), 0.0), 1.0)
    missing_a = max(1.0 - float(prob_a.sum()), 0.0)
    return type2, missing_a + z_threshold * trimmed_h + _ROUNDING_CUSHION


def enum_relative_entropy(
    params: ParamSet,
    omega0: int,
    n: int,
    policy: TruncationPolicy = TruncationPolicy(),
) -> tuple[float, float]:
    """Relative entropy sum of Z_n log Z_n dP_H over the kept atoms.

    Expansions cover the Poisson tails of both conditional laws, so both
    trimmed masses are within the budget; the error estimate scales their
    sum by the largest kept |log Z|.  The integrand on trimmed paths is not
    rigorously bounded, so this is an estimate rather than a certificate;
    at desk scale with the default budget it sits orders of magnitude below
    the bound gaps.
    """
    law = path_law_atoms(params, omega0, n, policy)
    value = float(np.sum(law.prob_a() * law.log_z))
    err = (
        law.trimmed_logz_mass
        + law.trimmed_a
        + law.trimmed_h
        + _ROUNDING_CUSHION * (abs(value) + 1.0)
    )
    return value, err
