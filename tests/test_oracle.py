"""The enumeration/Monte-Carlo oracle itself, cross-validated naively."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from gwidiv import (
    DecisionConfig,
    GWIError,
    ParamSet,
    TruncationPolicy,
    enum_bayes_risk,
    enum_log_hellinger,
    enum_log_hellinger_profile,
    enum_np_type2,
    enum_relative_entropy,
    mc_log_hellinger,
    path_law_atoms,
    phi_eval,
    varphi_value,
)
from gwidiv import oracle
from gwidiv.oracle import _path_law, _poisson_cutoffs, _poisson_isf

from conftest import ALL_CASES, random_params


def _naive_double_sum(params, lam, omega0, cap=200):
    """H_2 by direct nested summation of the lambda-kernel products."""
    total = 0.0
    for w1 in range(cap + 1):
        k1 = _kernel_weight(params, lam, omega0, w1)
        if k1 == 0.0:
            continue
        inner = 0.0
        for w2 in range(cap + 1):
            inner += _kernel_weight(params, lam, w1, w2)
        total += k1 * inner
    return math.log(total)


def _kernel_weight(params, lam, x, y):
    fa = params.rate_a(x)
    fh = params.rate_h(x)
    if fa == 0.0 or fh == 0.0:
        return 1.0 if y == 0 else 0.0
    rate = fa**lam * fh ** (1.0 - lam)
    log_w = -(lam * fa + (1.0 - lam) * fh) + y * math.log(rate) - math.lgamma(y + 1)
    return math.exp(log_w)


class TestEnumHellinger:
    def test_horizon_zero_and_one(self, rng):
        for _ in range(20):
            case = ("NI", "SP1", "SP2", "SP3d")[rng.integers(0, 4)]
            params = random_params(rng, case)
            omega0 = int(rng.integers(1, 4))
            assert enum_log_hellinger(params, 0.5, omega0, 0) == (0.0, 0.0)
            log_value, err = enum_log_hellinger(params, 0.5, omega0, 1)
            phi = phi_eval(params, 0.5, float(omega0)).phi
            assert math.exp(log_value) <= math.exp(phi) <= math.exp(log_value) + err
            assert log_value == pytest.approx(phi, abs=1e-8)

    def test_against_naive_double_sum(self, rng):
        """With a 1e-15 budget the DP matches the 200-state nested sum to 1e-12."""
        tight = TruncationPolicy(tail_budget=1e-15)
        for _ in range(8):
            case = ("NI", "SP1", "SP2", "SP3a", "SP4")[rng.integers(0, 5)]
            params = random_params(rng, case, beta_hi=1.0)
            naive = _naive_double_sum(params, 0.5, 1)
            dp, _err = enum_log_hellinger(params, 0.5, 1, 2, tight)
            assert dp == pytest.approx(naive, abs=1e-12)

    def test_error_bound_honored_under_refinement(self, rng):
        """Tightening the budget by 1e2 moves the value by less than the
        previous certified bound."""
        for _ in range(10):
            case = ("SP2", "SP3c", "SP4")[rng.integers(0, 3)]
            params = random_params(rng, case, beta_hi=1.0)
            course, err = enum_log_hellinger(params, 0.5, 1, 3, TruncationPolicy(tail_budget=1e-6))
            fine, _ = enum_log_hellinger(params, 0.5, 1, 3, TruncationPolicy(tail_budget=1e-8))
            assert abs(math.exp(fine) - math.exp(course)) <= err

    def test_profile_prefix_consistency(self):
        """Profile entries agree with single-horizon runs within the combined
        certificates (the per-layer budget split depends on the horizon)."""
        params = ParamSet(0.8, 0.6, 2, 1.9)
        profile = enum_log_hellinger_profile(params, 0.5, 1, 4)
        for n in range(5):
            value, err = enum_log_hellinger(params, 0.5, 1, n)
            gap = abs(math.exp(profile[n][0]) - math.exp(value))
            assert gap <= err + profile[n][1]

    def test_blowup_guard(self):
        params = ParamSet(1.2, 0.8, 2, 2)
        with pytest.raises(GWIError):
            enum_log_hellinger(params, 0.5, 3, 6, TruncationPolicy(max_state=30))


class TestMonteCarlo:
    def test_matches_enumeration_within_four_sigma(self):
        params = ParamSet(0.5, 0.25, 0, 0)
        estimate, std_error = mc_log_hellinger(params, 0.5, 1, 3, 10**6, seed=123)
        reference, _ = enum_log_hellinger(params, 0.5, 1, 3)
        assert abs(estimate - reference) <= 4.0 * std_error

    def test_heavy_tailed_order_matches_enumeration_within_six_sigma(self):
        """Hypothesis draws gave -1.380 +- 0.085 here, eight standard errors
        below the enumeration; at lambda > 1/2 the paths come from the
        alternative, where Z^lambda has a bounded second moment."""
        params = ParamSet(0.8652015606657605, 0.41477744087016977,
                          1.2142988534394856, 0.2633468617418253)
        estimate, std_error = mc_log_hellinger(params, 0.9, 5, 5, 10_000, seed=1130065792)
        reference, _ = enum_log_hellinger(params, 0.9, 5, 5)
        assert abs(estimate - reference) <= 6.0 * std_error

    def test_high_order_draws_from_the_alternative(self):
        """H_lambda(A, H) = H_{1-lambda}(H, A), and the sampler uses it bit for bit."""
        params = ParamSet(0.8, 0.6, 2, 1.9)
        assert mc_log_hellinger(params, 0.75, 2, 3, 2000, seed=3) == \
            mc_log_hellinger(params.swapped(), 0.25, 2, 3, 2000, seed=3)

    def test_deterministic_given_seed(self):
        params = ParamSet(0.8, 0.6, 2, 1.9)
        first = mc_log_hellinger(params, 0.5, 1, 2, 50_000, seed=7)
        second = mc_log_hellinger(params, 0.5, 1, 2, 50_000, seed=7)
        assert first == second
        third = mc_log_hellinger(params, 0.5, 1, 2, 50_000, seed=8)
        assert first != third

    def test_near_zero_order_gives_near_one(self):
        params = ParamSet(0.8, 0.6, 2, 2)
        estimate, _ = mc_log_hellinger(params, 0.01, 1, 3, 20_000, seed=5)
        assert math.exp(estimate) > 0.95

    def test_convergence_rate(self):
        """Standard error scales like reps^(-1/2) within a factor 1.5."""
        params = ParamSet(0.5, 0.25, 0, 0)
        _, se_small = mc_log_hellinger(params, 0.5, 1, 3, 10**5, seed=11)
        _, se_large = mc_log_hellinger(params, 0.5, 1, 3, 10**6, seed=11)
        ratio = se_small / se_large
        assert math.sqrt(10.0) / 1.5 <= ratio <= math.sqrt(10.0) * 1.5

    def test_rejects_tiny_rep_counts(self):
        with pytest.raises(GWIError):
            mc_log_hellinger(ParamSet(0.5, 0.25, 0, 0), 0.5, 1, 2, 10, seed=0)

    @pytest.mark.parametrize("reps, seed, match", [
        (1000.0, 1, "reps must be an integer"), (1000.5, 1, "reps must be an integer"),
        ("5000", 1, "reps must be an integer"), (True, 1, "reps must be an integer"),
        (999, 1, "reps >= 1000"), (1000, True, "seed must be an integer"),
        (1000, 1.5, "seed must be an integer"), (1000, "1", "seed must be an integer"),
        (1000, -1, "seed must lie in"), (1000, 2**64, "seed must lie in"),
    ], ids=["reps-float", "reps-fraction", "reps-str", "reps-bool", "reps-999", "seed-bool",
            "seed-float", "seed-str", "seed-negative", "seed-2**64"])
    def test_refuses_bad_reps_and_seed(self, reps, seed, match):
        """reps = 1000.0 once raised TypeError; seed = True, 1.5 and -1 ran."""
        with pytest.raises(GWIError, match=match):
            mc_log_hellinger(ParamSet(0.5, 0.3, 1.0, 1.2), 0.5, 1, 2, reps, seed)

    def test_seeds_above_two_to_the_63_are_distinct(self):
        """A key list once cast seeds >= 2**63 through float64, so neighbours
        drew the same paths."""
        params = ParamSet(0.5, 0.3, 1.0, 1.2)
        top = mc_log_hellinger(params, 0.5, 1, 2, 1000, np.uint64(2**64 - 1))
        assert top != mc_log_hellinger(params, 0.5, 1, 2, 1000, 2**64 - 2)
        assert mc_log_hellinger(params, 0.5, 1, 2, 1000, 2**63) != \
            mc_log_hellinger(params, 0.5, 1, 2, 1000, 2**63 + 1)


class TestBayesOracle:
    def test_degenerate_prior(self):
        params = ParamSet(0.5, 0.25, 0, 0)
        risk, _ = enum_bayes_risk(params, 1, 2, DecisionConfig(prior_h=1.0 - 1e-12))
        assert risk < 1e-9

    def test_one_step_total_variation_identity(self, rng):
        """n=1, equal losses, prior 1/2: risk is half the min-sum of the two
        one-step Poisson laws."""
        for _ in range(10):
            params = random_params(rng, "SP2")
            omega0 = int(rng.integers(1, 4))
            risk, err = enum_bayes_risk(params, omega0, 1, DecisionConfig())
            grid = np.arange(0, 400)
            pa = poisson.pmf(grid, params.rate_a(omega0))
            ph = poisson.pmf(grid, params.rate_h(omega0))
            expected = 0.5 * np.minimum(pa, ph).sum()
            assert risk == pytest.approx(expected, abs=max(err, 1e-12))


class TestNPOracle:
    def test_level_extremes(self):
        params = ParamSet(0.5, 0.25, 0, 0)
        nearly_all, _ = enum_np_type2(params, 1, 2, 1.0 - 1e-9)
        assert nearly_all == pytest.approx(0.0, abs=1e-6)
        nearly_none, _ = enum_np_type2(params, 1, 2, 1e-12)
        assert nearly_none == pytest.approx(1.0, abs=1e-6)

    def test_feasibility_and_optimality_shape(self, rng):
        """Type-II error decreases in the level."""
        params = random_params(rng, "SP3a")
        values = [enum_np_type2(params, 1, 2, level)[0] for level in (0.05, 0.1, 0.2, 0.4)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestEntropyOracle:
    def test_matches_closed_form_on_sp1(self, rng):
        from gwidiv import exact_entropy

        for _ in range(6):
            params = random_params(rng, "SP1", beta_hi=1.0)
            value, err = enum_relative_entropy(params, 1, 3)
            assert value == pytest.approx(exact_entropy(params, 1, 3), abs=max(10 * err, 1e-6))


class TestTruncationPolicy:
    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.0, -1e-9, 1.0, 2.0,
                                        True, "1e-9", None])
    def test_rejects_bad_tail_budget(self, budget):
        with pytest.raises(GWIError, match="tail_budget"):
            TruncationPolicy(tail_budget=budget)

    @pytest.mark.parametrize("cap", [9, 0, -5, 10.0, 5000.5, True, "5000", None])
    def test_rejects_bad_max_state(self, cap):
        with pytest.raises(GWIError, match="max_state"):
            TruncationPolicy(max_state=cap)

    def test_accepts_valid_policies(self):
        assert TruncationPolicy(tail_budget=0.5, max_state=10).max_state == 10
        assert TruncationPolicy(tail_budget=1e-300).tail_budget == 1e-300

    def test_budget_above_one_refused_before_enumeration(self):
        """A budget of 2 once gave log_enum = -inf and crashed the atoms."""
        params = ParamSet(0.8, 0.6, 2, 1.9)
        with pytest.raises(GWIError, match="tail_budget"):
            enum_bayes_risk(params, 2, 2, DecisionConfig(), TruncationPolicy(tail_budget=2.0))


class TestInitialPopulation:
    """omega0 must be an integer (not a bool) in [1, max_state]; these inputs
    once raised IndexError, returned log H > 0 or silently started from
    int(omega0)."""

    PARAMS = ParamSet(0.5, 0.3, 1.0, 1.2)

    @pytest.mark.parametrize("omega0, match", [
        (6000, "max_state"), (3.0, "integer"), (True, "integer"), (np.float64(2.0), "integer"),
        ("2", "integer"), (0, "omega0 >= 1"),
    ], ids=["6000", "3.0", "True", "np.float64", "str", "0"])
    def test_enumeration_refuses(self, omega0, match):
        with pytest.raises(GWIError, match=match):
            enum_log_hellinger(self.PARAMS, 0.5, omega0, 1)
        with pytest.raises(GWIError, match=match):
            path_law_atoms(self.PARAMS, omega0, 1)

    @pytest.mark.parametrize("omega0", [2.5, 3.0, True, np.True_],
                             ids=["2.5", "3.0", "True", "np.True_"])
    def test_non_integers_refused_everywhere(self, omega0):
        with pytest.raises(GWIError, match="integer"):
            path_law_atoms(self.PARAMS, omega0, 1)
        with pytest.raises(GWIError, match="integer"):
            mc_log_hellinger(self.PARAMS, 0.5, omega0, 2, 1000, 1)
        with pytest.raises(GWIError, match="integer"):
            enum_log_hellinger_profile(self.PARAMS, 0.5, omega0, 2)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2", True, np.True_, np.float64(2.0)],
                             ids=["2.0", "2.5", "str", "True", "np.True_", "np.float64"])
    def test_non_integer_horizons_refused_everywhere(self, n):
        """n = 2.0, 2.5 and "2" once raised TypeError; n = True ran as n = 1."""
        with pytest.raises(GWIError, match="n must be an integer"):
            path_law_atoms(self.PARAMS, 2, n)
        with pytest.raises(GWIError, match="n must be an integer"):
            mc_log_hellinger(self.PARAMS, 0.5, 2, n, 1000, 1)
        with pytest.raises(GWIError, match="n must be an integer"):
            enum_log_hellinger_profile(self.PARAMS, 0.5, 2, n)

    def test_numpy_integers_accepted(self):
        for omega0, n in ((np.int64(3), 2), (np.int32(3), 2), (np.uint8(3), 2),
                          (3, np.int64(2)), (3, np.int32(2)), (3, np.uint8(2))):
            assert enum_log_hellinger(self.PARAMS, 0.5, omega0, n) == \
                enum_log_hellinger(self.PARAMS, 0.5, 3, 2)
            # two builds, not one build and a memo hit
            _path_law.cache_clear()
            first = _law_bytes(path_law_atoms(self.PARAMS, omega0, n))
            _path_law.cache_clear()
            assert first == _law_bytes(path_law_atoms(self.PARAMS, 3, 2))
            assert mc_log_hellinger(self.PARAMS, 0.5, omega0, n, 1000, 1) == \
                mc_log_hellinger(self.PARAMS, 0.5, 3, 2, 1000, 1)

    def test_state_cap_is_inclusive(self):
        policy = TruncationPolicy(tail_budget=0.3, max_state=60)
        assert enum_log_hellinger(self.PARAMS, 0.5, 60, 1, policy)[0] < 0.0
        assert len(path_law_atoms(self.PARAMS, 60, 1, policy).states) > 1
        with pytest.raises(GWIError, match="max_state"):
            enum_log_hellinger(self.PARAMS, 0.5, 61, 1, policy)
        with pytest.raises(GWIError, match="max_state"):
            path_law_atoms(self.PARAMS, 61, 1, policy)


class TestAtomBudget:
    """The cap is a module constant; these tests lower it on small laws and
    empty the memo first, so each call builds under the lowered cap."""

    PARAMS = ParamSet(0.5, 0.3, 1.0, 1.2)

    def test_cap_is_inclusive(self, monkeypatch):
        """A one-step law keeps every child: its first state's cutoff + 1."""
        children = len(path_law_atoms(self.PARAMS, 4, 1).states)
        monkeypatch.setattr(oracle, "_MAX_ATOMS", children)
        _path_law.cache_clear()
        assert len(path_law_atoms(self.PARAMS, 4, 1).states) == children
        monkeypatch.setattr(oracle, "_MAX_ATOMS", children - 1)
        _path_law.cache_clear()
        message = f"step 1 expands into {children} atoms, cap {children - 1}"
        with pytest.raises(GWIError, match=message):
            path_law_atoms(self.PARAMS, 4, 1)

    def test_later_step_refused(self, monkeypatch):
        """A cap that lets the first of two steps expand (its budget share is
        half the tail budget) stops the second."""
        rate = max(self.PARAMS.rate_a(4), self.PARAMS.rate_h(4))
        first_step = _poisson_cutoffs(np.array([rate]), 1e-9 / 2, 5000)[0] + 1
        monkeypatch.setattr(oracle, "_MAX_ATOMS", first_step)
        _path_law.cache_clear()
        with pytest.raises(GWIError, match="atom blowup \\(step 2 expands"):
            path_law_atoms(self.PARAMS, 4, 2)

    def test_refused_before_the_expansion_allocates(self, monkeypatch):
        """This law keeps 270,798 atoms at n = 3 and once died of MemoryError
        expanding them into 39,142,535 children at n = 4."""
        params = ParamSet(0.6710839922526382, 0.9237671579983431, 1.7056241367449219,
                          2.814383621229387)
        policy = TruncationPolicy(tail_budget=1e-17)
        repeat = np.repeat

        def bounded_repeat(a, repeats, *args, **kwargs):
            assert np.sum(repeats) <= oracle._MAX_ATOMS, "expansion allocated past the cap"
            return repeat(a, repeats, *args, **kwargs)

        monkeypatch.setattr(oracle.np, "repeat", bounded_repeat)
        with pytest.raises(GWIError, match="step 4 expands into 39142535 atoms, cap 10000000"):
            path_law_atoms(params, 1, 4, policy)


class TestPathLawMemo:
    """The decision oracles share one memoised law per (params, omega0, n,
    policy); a hit must be the law a fresh build makes."""

    PARAMS = ParamSet(0.7615920487772284, 0.4876350537439173, 0.6979711829270039,
                      0.4468996437722417)
    POLICY = TruncationPolicy()

    def test_hit_is_bit_identical_to_a_fresh_build(self):
        _path_law.cache_clear()
        built = path_law_atoms(self.PARAMS, 3, 3)
        hit = path_law_atoms(self.PARAMS, 3, 3)
        assert hit is built
        assert _path_law.cache_info().hits == 1
        _path_law.cache_clear()
        rebuilt = path_law_atoms(self.PARAMS, 3, 3)
        assert rebuilt is not hit
        assert _law_bytes(hit) == _law_bytes(rebuilt)
        assert _law_bytes(hit) == _law_bytes(_ref_path_law_atoms(self.PARAMS, 3, 3, self.POLICY))

    def test_one_build_per_decision_query(self):
        _path_law.cache_clear()
        enum_bayes_risk(self.PARAMS, 3, 3, DecisionConfig())
        enum_np_type2(self.PARAMS, 3, 3, 0.05)
        enum_relative_entropy(self.PARAMS, 3, 3)
        info = _path_law.cache_info()
        assert (info.misses, info.hits, info.maxsize, info.currsize) == (1, 2, 1, 1)

    def test_arrays_are_read_only(self):
        law = path_law_atoms(self.PARAMS, 3, 2)
        for array in (law.states, law.log_z, law.prob_h):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("changed", [
        dict(params=ParamSet(0.7615920487772284, 0.4876350537439173, 0.6979711829270039, 0.45)),
        dict(omega0=2), dict(n=2), dict(policy=TruncationPolicy(tail_budget=1e-6)),
    ], ids=["params", "omega0", "n", "policy"])
    def test_any_changed_argument_misses(self, changed):
        base = dict(params=self.PARAMS, omega0=3, n=3, policy=self.POLICY)
        other = {**base, **changed}
        _path_law.cache_clear()
        first = path_law_atoms(**base)
        law = path_law_atoms(**other)
        info = _path_law.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        assert law is not first
        _path_law.cache_clear()
        assert _law_bytes(law) == _law_bytes(path_law_atoms(**other))

    def test_refused_inputs_raise_on_every_call(self):
        """True == 1 == 1.0 as memo keys, so a hit on a filled memo would
        answer them if the checks ran only on a miss."""
        path_law_atoms(self.PARAMS, 1, 1)
        for omega0, n in ((True, 1), (1, True), (1.0, 1), (1, 1.0), (0, 1), (1, 0)):
            for _ in range(2):
                with pytest.raises(GWIError):
                    path_law_atoms(self.PARAMS, omega0, n)
        blowup = (ParamSet(1.2, 0.8, 2, 2), 3, 3, TruncationPolicy(max_state=30))
        for _ in range(2):
            with pytest.raises(GWIError, match="state-space blowup"):
                path_law_atoms(*blowup)


# Reference copies of the oracle's Poisson truncation and enumeration as
# they stood on scipy.stats.poisson: one scalar isf/pmf/sf call per state
# and a per-state merge with np.unique.  The oracle must return exactly what
# these do (float.hex for scalars, the bytes of the PathLaw arrays).


def _ref_poisson_cutoff(rate, eps, max_state):
    if rate == 0.0:
        return 0
    y = poisson.isf(eps, rate)
    if not np.isfinite(y):
        y = math.ceil(rate + 10.0 * math.sqrt(rate) + 10.0)
        while poisson.sf(y, rate) > eps and y < max_state:
            y = 2 * y + 1
    y = int(y)
    if y + 1 > max_state:
        raise GWIError(
            f"state-space blowup (needed {y + 1} states, cap {max_state}); "
            "reduce the horizon or loosen the tail budget"
        )
    return y


def _ref_profile(params, lam, omega0, n, policy):
    cap = policy.max_state
    weights = np.zeros(cap + 1)
    weights[omega0] = 1.0
    trimmed = 0.0
    out = [(0.0, 0.0)]
    for _step in range(n):
        live = np.nonzero(weights)[0]
        eps = policy.tail_budget / (max(n, 1) * max(len(live), 1))
        new_weights = np.zeros(cap + 1)
        for x in live:
            w = weights[x]
            rate = varphi_value(params, lam, float(x))
            total = math.exp(phi_eval(params, lam, float(x)).phi)
            if rate == 0.0:
                new_weights[0] += w * total
                continue
            y_max = _ref_poisson_cutoff(rate, eps, cap)
            row = total * poisson.pmf(np.arange(y_max + 1), rate)
            kept = row.sum()
            trimmed += w * max(total - kept, 0.0)
            new_weights[: y_max + 1] += w * row
        weights = new_weights
        kept = weights.sum()
        out.append((float(np.log(kept)), float(trimmed + 1e-12 * kept)))
    return out


def _ref_path_law_atoms(params, omega0, n, policy):
    by_state = {omega0: (np.zeros(1), np.ones(1))}
    trimmed_h = trimmed_a = trimmed_logz_mass = 0.0
    for step in range(n):
        eps = policy.tail_budget / (n * max(len(by_state), 1))
        collect = {}
        for x, (log_zs, probs) in by_state.items():
            rate_a = params.rate_a(x)
            rate_h = params.rate_h(x)
            if rate_h == 0.0:
                collect.setdefault(0, []).append((log_zs, probs))
                continue
            y_max = _ref_poisson_cutoff(max(rate_h, rate_a), eps, policy.max_state)
            pmf = poisson.pmf(np.arange(y_max + 1), rate_h)
            mass_h = probs.sum()
            mass_a = float(np.sum(probs * np.exp(log_zs)))
            sf_a = float(poisson.sf(y_max, rate_a))
            trimmed_h += mass_h * max(1.0 - pmf.sum(), 0.0)
            trimmed_a += mass_a * sf_a
            base = -(rate_a - rate_h)
            log_ratio = math.log(rate_a / rate_h)
            overshoot = (float(np.abs(log_zs).max()) + abs(base)) * sf_a
            overshoot += abs(log_ratio) * rate_a * float(poisson.sf(y_max - 1, rate_a))
            trimmed_logz_mass += (n - step) * mass_a * overshoot
            for y in range(y_max + 1):
                collect.setdefault(y, []).append(
                    (log_zs + (base + y * log_ratio), probs * pmf[y])
                )
        by_state = {}
        for y, chunks in collect.items():
            log_zs = np.concatenate([c[0] for c in chunks])
            probs = np.concatenate([c[1] for c in chunks])
            uniq, inverse = np.unique(log_zs, return_inverse=True)
            merged = np.zeros(len(uniq))
            np.add.at(merged, inverse, probs)
            by_state[y] = (uniq, merged)
    states = np.concatenate(
        [np.full(len(v[0]), x, dtype=np.int64) for x, v in by_state.items()]
    )
    log_z = np.concatenate([v[0] for v in by_state.values()])
    prob = np.concatenate([v[1] for v in by_state.values()])
    return states, log_z, prob, trimmed_h, trimmed_a, trimmed_logz_mass


def _outcome(fn, *args):
    """The result of fn(*args), or the message of the GWIError it raises."""
    try:
        return fn(*args)
    except GWIError as exc:
        return f"GWIError: {exc}"


def _hex_profile(profile):
    if isinstance(profile, str):
        return profile
    return [(v.hex(), e.hex()) for v, e in profile]


def _law_bytes(law):
    if isinstance(law, str):
        return law
    if not isinstance(law, tuple):
        law = (law.states, law.log_z, law.prob_h, law.trimmed_h, law.trimmed_a,
               law.trimmed_logz_mass)
    *arrays, t_h, t_a, t_logz = law
    return ([(a.dtype.str, a.tobytes()) for a in arrays]
            + [float(t).hex() for t in (t_h, t_a, t_logz)])


class TestOracleMatchesScipyStatsReference:
    BUDGETS = (1e-6, 1e-9, 1e-15, 1e-17)

    def _assert_same(self, params, lam, omega0, n_profile, n_atoms, policy):
        new = _outcome(enum_log_hellinger_profile, params, lam, omega0, n_profile, policy)
        ref = _outcome(_ref_profile, params, lam, omega0, n_profile, policy)
        assert _hex_profile(new) == _hex_profile(ref)
        new = _outcome(path_law_atoms, params, omega0, n_atoms, policy)
        ref = _outcome(_ref_path_law_atoms, params, omega0, n_atoms, policy)
        assert _law_bytes(new) == _law_bytes(ref)

    def test_cutoffs(self, rng):
        rates = np.concatenate([[0.0, 1e-9, 1e-3], rng.uniform(0.01, 60.0, size=40)])
        for eps in (1e-3, 1e-9, 1e-15, 1e-17, 1e-19):
            expected = [_ref_poisson_cutoff(rate, eps, 5000) for rate in rates]
            assert _poisson_cutoffs(rates, eps, 5000) == expected
        with pytest.raises(GWIError) as excinfo:
            _poisson_cutoffs(rates, 1e-9, 40)
        with pytest.raises(GWIError) as ref_excinfo:
            for rate in rates:
                _ref_poisson_cutoff(rate, 1e-9, 40)
        assert str(excinfo.value) == str(ref_excinfo.value)

    def test_tiny_budget_takes_the_scan(self):
        """Below ~1e-16 the float inversion fails and the sf scan decides."""
        assert np.isnan(_poisson_isf(1e-17, np.array([3.0]))).all()

    def test_every_case_and_budget(self, rng):
        for case in ALL_CASES:
            for budget in self.BUDGETS:
                lam = float(rng.choice((0.3, 0.5, 0.7)))
                params = random_params(rng, case, lam, beta_hi=1.0)
                omega0 = int(rng.integers(1, 4))
                n_atoms = 3 if omega0 <= 2 else 2
                self._assert_same(params, lam, omega0, 4, n_atoms, TruncationPolicy(tail_budget=budget))

    def test_three_step_law_with_long_state_runs(self):
        """Most states carry more than 8 atoms at the third step, where a
        state's masses summed in another order than numpy's pairwise sum
        moves trimmed_a by one ulp."""
        params = ParamSet(0.7615920487772284, 0.4876350537439173, 0.6979711829270039,
                          0.4468996437722417)
        self._assert_same(params, 0.5, 3, 4, 3, TruncationPolicy())

    def test_step_whose_cutoffs_are_all_zero(self):
        """The 23 live states of the second step all have cutoff 0, so the
        kernel is a single column: its weights must still be added in state
        order, not summed pairwise."""
        params = ParamSet(1e-4, 1.2e-4, 1e-5, 1.5e-5)
        policy = TruncationPolicy(tail_budget=0.3, max_state=200_000)
        self._assert_same(params, 0.5, 150_000, 3, 3, policy)

    def test_tiny_immigration_reaches_a_zero_cutoff(self):
        """At x = 0 the rates are ~1e-9, so the expansion keeps y = 0 only
        and the overshoot uses the sf at -1."""
        params = ParamSet(0.6, 0.4, 1e-9, 2e-9)
        assert _poisson_cutoffs(np.array([2e-9]), 1e-8, 5000) == [0]
        for budget in self.BUDGETS:
            policy = TruncationPolicy(tail_budget=budget)
            self._assert_same(params, 0.5, 1, 4, 3, policy)
            assert 0 in path_law_atoms(params, 1, 3, policy).states

    def test_no_immigration_with_extinct_state(self):
        params = ParamSet(0.7, 0.4, 0.0, 0.0)
        for budget in self.BUDGETS:
            policy = TruncationPolicy(tail_budget=budget)
            self._assert_same(params, 0.5, 2, 5, 3, policy)
            assert 0 in path_law_atoms(params, 2, 3, policy).states

    def test_blowup_message(self):
        params = ParamSet(1.2, 0.8, 2, 2)
        self._assert_same(params, 0.5, 3, 6, 3, TruncationPolicy(max_state=30))
