"""Divergence transforms, distinguishability and decision-theoretic bounds."""

import dataclasses
import math

import numpy as np
import pytest

from gwidiv import (
    BoundOrderError,
    DecisionConfig,
    GWIError,
    ParamSet,
    bayes_risk_bounds,
    distinguishability,
    divergence_from_log_hellinger,
    enum_bayes_risk,
    enum_np_type2,
    np_type2_bound,
    log_hellinger_bounds,
    optimize_bayes_upper,
    recursions,
)
from gwidiv.decisions import LAMBDA_GRID
from gwidiv.recursions import Constellation

from conftest import ALL_CASES, random_params

CONFIGS = (DecisionConfig(), DecisionConfig(loss_a=10.0, loss_h=0.5, prior_h=0.3))
#: near-identical supercritical SP2 laws whose report crosses at omega0 = 3, n = 85
CROSSING = ParamSet(2.603618456914746, 2.6036184569147456, 4.469573356601049, 4.469573356601049)


class TestDivergenceTransforms:
    def test_identical_laws_endpoint(self):
        assert divergence_from_log_hellinger(0.0, 0.5) == (0.0, 0.0)

    def test_singularity_endpoint(self):
        power, renyi = divergence_from_log_hellinger(-1e6, 0.5)
        assert power == pytest.approx(4.0, rel=1e-12)
        assert renyi == pytest.approx(4e6, rel=1e-12)

    def test_half_value(self):
        power, renyi = divergence_from_log_hellinger(math.log(0.5), 0.5)
        assert power == pytest.approx(2.0, rel=1e-12)
        assert renyi == pytest.approx(-math.log(0.5) / 0.25, rel=1e-12)
        assert renyi == pytest.approx(2.7725887, abs=1e-6)

    def test_rudimentary_range(self, rng):
        for _ in range(200):
            lam = rng.uniform(0.02, 0.98)
            log_h = -rng.exponential(2.0)
            power, renyi = divergence_from_log_hellinger(log_h, lam)
            assert 0.0 <= power <= 1.0 / (lam * (1.0 - lam))
            assert renyi >= 0.0

    def test_rejects_positive_log(self):
        with pytest.raises(GWIError):
            divergence_from_log_hellinger(0.1, 0.5)


class TestDistinguishability:
    def test_sp_cases_entirely_separated(self):
        for quad in [(4, 2, 4, 2), (0.8, 0.6, 2, 2), (1.8, 0.9, 2.8, 0.7),
                     (1.8, 0.9, 1.2, 3.0)]:
            verdict = distinguishability(ParamSet(*quad))
            assert verdict.entirely_separated is True
            assert verdict.contiguous_a_to_h is False
            assert verdict.contiguous_h_to_a is False

    def test_ni_criticality_table(self):
        """The four-quadrant table over (beta_a <= 1, beta_h <= 1) on NI."""
        table = [
            ((0.5, 0.9, 0, 0), True, True),
            ((0.5, 2.0, 0, 0), True, False),
            ((2.0, 0.5, 0, 0), False, True),
            ((2.0, 3.0, 0, 0), False, False),
        ]
        for quad, a_to_h, h_to_a in table:
            verdict = distinguishability(ParamSet(*quad))
            assert verdict.entirely_separated is False
            assert verdict.contiguous_a_to_h is a_to_h
            assert verdict.contiguous_h_to_a is h_to_a

    def test_sp4_is_open(self):
        verdict = distinguishability(ParamSet(1, 1, 2, 3))
        assert verdict.contiguous_a_to_h is None
        assert verdict.contiguous_h_to_a is None
        assert verdict.entirely_separated is None


class TestBayesRiskBounds:
    def test_degenerate_hellinger_value(self):
        """On SP4 the Hellinger upper bound is 1, so the upper risk bound is
        the trivial min of the weights."""
        cfg = DecisionConfig(loss_a=2.0, loss_h=2.0, prior_h=0.5)
        _, upper = bayes_risk_bounds(ParamSet(1, 1, 2, 3), 0.5, 1, 2, cfg)
        assert upper == pytest.approx(1.0)

    def test_prior_collapse(self):
        cfg = DecisionConfig(prior_h=1e-12)
        lower, upper = bayes_risk_bounds(ParamSet(0.5, 0.25, 0, 0), 0.5, 1, 2, cfg)
        assert lower < 1e-6 and upper < 1e-5

    def test_sandwich_against_oracle(self, rng):
        """Enumeration-exact Bayes risk lies within [lower, upper]."""
        for _ in range(25):
            case = ("NI", "SP1", "SP2", "SP3a", "SP3c", "SP3d", "SP4")[rng.integers(0, 7)]
            lam = float(rng.choice([0.3, 0.5, 0.7]))
            params = random_params(rng, case, lam, beta_hi=1.1)
            cfg = DecisionConfig(
                loss_a=float(rng.choice([0.1, 1.0, 10.0])),
                loss_h=1.0,
                prior_h=float(rng.uniform(0.2, 0.8)),
            )
            n = int(rng.integers(1, 4))
            lower, upper = bayes_risk_bounds(params, lam, 1, n, cfg)
            risk, err = enum_bayes_risk(params, 1, n, cfg)
            assert lower - err <= risk <= upper + err
            assert lower <= upper

    def test_horizon_zero_bounds(self):
        cfg = DecisionConfig()
        lower, upper = bayes_risk_bounds(ParamSet(0.8, 0.6, 2, 2), 0.5, 1, 0, cfg)
        assert 0.0 < lower <= upper <= 0.5
        assert np_type2_bound(ParamSet(0.8, 0.6, 2, 2), 0.5, 1, 0, cfg) == 1.0

    def test_grid_minimum_property(self, rng):
        for _ in range(5):
            params = random_params(rng, "SP1")
            cfg = DecisionConfig()
            _, best = optimize_bayes_upper(params, 1, 2, cfg)
            for lam in (0.25, 0.5, 0.75):
                _, single = bayes_risk_bounds(params, lam, 1, 2, cfg)
                assert best <= single + 1e-15


class TestNPBound:
    def test_capped_at_one(self):
        cfg = DecisionConfig(level=0.1)
        assert np_type2_bound(ParamSet(1, 1, 2, 3), 0.5, 1, 1, cfg) == 1.0
        # extreme order: the pre-cap factor overflows a double; still capped
        extreme = DecisionConfig(level=0.001)
        assert np_type2_bound(ParamSet(1, 1, 2, 3), 0.999, 1, 1, extreme) == 1.0

    def test_dominates_oracle(self, rng):
        """Exact minimal type-II error never exceeds the bound."""
        for _ in range(25):
            case = ("NI", "SP1", "SP2", "SP3b", "SP3d")[rng.integers(0, 5)]
            lam = float(rng.choice([0.3, 0.5, 0.7]))
            params = random_params(rng, case, lam, beta_hi=1.1)
            cfg = DecisionConfig(level=float(rng.choice([0.05, 0.1, 0.2])))
            n = int(rng.integers(1, 4))
            bound = np_type2_bound(params, lam, 1, n, cfg)
            exact, err = enum_np_type2(params, 1, n, cfg.level)
            assert exact <= bound + err

    def test_monotone_in_level(self):
        params = ParamSet(0.5, 0.25, 0, 0)
        values = [
            np_type2_bound(params, 0.5, 1, 2, DecisionConfig(level=level))
            for level in (0.02, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bound_direction_wiring(self, rng):
        """An upper H bound must feed the NP bound: tightening the horizon
        (larger n, smaller H) can only shrink the bound on separated cases."""
        params = ParamSet(4, 2, 4, 2)
        cfg = DecisionConfig(level=0.1)
        values = [np_type2_bound(params, 0.5, 1, n, cfg) for n in range(1, 6)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def _grid_argmin(params, omega0, n, cfg):
    """The first argmin over LAMBDA_GRID of bayes_risk_bounds' upper bound."""
    best_lam, best = None, math.inf
    for lam in LAMBDA_GRID:
        upper = bayes_risk_bounds(params, lam, omega0, n, cfg)[1]
        if upper < best:
            best_lam, best = lam, upper
    return best_lam, best


def _signature(pair):
    return tuple((type(v).__name__, v.hex() if isinstance(v, float) else v) for v in pair)


def _refusal(call, *args):
    with pytest.raises(GWIError) as info:
        call(*args)
    return type(info.value), str(info.value)


class TestOptimizeGridPass:
    """optimize_bayes_upper is bayes_risk_bounds' upper bound at its first
    argmin over the grid, refusals included."""

    def test_equals_first_argmin_by_hex_and_type(self, rng):
        for case in ALL_CASES:
            fields = dataclasses.astuple(random_params(rng, case))
            for params in (ParamSet(*map(np.float64, fields)), ParamSet(*map(float, fields))):
                for cfg in CONFIGS:
                    for omega0, n in ((1, 0), (3, 1), (2, 7)):
                        got = optimize_bayes_upper(params, omega0, n, cfg)
                        want = _grid_argmin(params, omega0, n, cfg)
                        assert _signature(got) == _signature(want), (case, params, n)

    def test_crossing_input_refuses_as_bayes_risk_bounds(self):
        cfg = DecisionConfig()
        got = _refusal(optimize_bayes_upper, CROSSING, 3, 85, cfg)
        assert got == _refusal(_grid_argmin, CROSSING, 3, 85, cfg)
        # the first grid order already crosses
        assert got == _refusal(log_hellinger_bounds, CROSSING, 0.01, 3, 85)
        assert got[0] is BoundOrderError

    def test_initial_population_is_refused_before_any_order(self, monkeypatch):
        built = []
        monkeypatch.setattr(recursions.Constellation, "__init__",
                            _recorder(built, recursions.Constellation.__init__))
        params = ParamSet(0.8, 0.6, 2.0, 1.1)
        for omega0, n in ((0, 5), (1, 2.5)):
            built.clear()
            got = _refusal(optimize_bayes_upper, params, omega0, n, DecisionConfig())
            assert not built
            assert got == _refusal(_grid_argmin, params, omega0, n, DecisionConfig())


class TestOptimizeDerivesOnce:
    """One optimize call builds one Constellation per grid order outside the
    memo, folds without the public run_recursion and reads each lattice
    point of a Constellation once."""

    def test_counts(self, rng, monkeypatch):
        built, classified, public = [], [], []
        monkeypatch.setattr(Constellation, "__init__", _recorder(built, Constellation.__init__))
        monkeypatch.setattr(recursions, "classify", _recorder(classified, recursions.classify))
        monkeypatch.setattr(recursions, "run_recursion",
                            _recorder(public, recursions.run_recursion))
        points = {}
        real = Constellation._lattice

        def lattice(self, start=0):
            for x, point in enumerate(real(self, start), start):
                points.setdefault(self, []).append(x)
                yield point

        monkeypatch.setattr(Constellation, "_lattice", lattice)
        for case in ALL_CASES:
            params = random_params(rng, case)
            for n in (0, 7):
                for record in (built, classified, points):
                    record.clear()
                optimize_bayes_upper(params, 2, n, DecisionConfig())
                assert (len(built), len(classified), len(public)) == (99, 99, 0), case
                for xs in points.values():
                    assert len(xs) == len(set(xs)), (case, sorted(xs))
                if n and case in ("SP2", "SP3a", "SP3b", "SP3c", "SP3d"):
                    assert points, case

    def test_memo_is_left_as_it_was(self, rng):
        params = random_params(rng, "SP3c")
        optimize_bayes_upper(params, 2, 7, DecisionConfig())
        assert recursions._memo is None
        log_hellinger_bounds(params, 0.5, 2, 7)
        before = recursions._memo
        optimize_bayes_upper(params, 2, 7, DecisionConfig())
        assert recursions._memo is before


def _recorder(calls, real):
    """``real``, recording its arguments in ``calls``."""
    return lambda *args: calls.append(args) or real(*args)
