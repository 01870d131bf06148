import numpy as np
import pytest

from auctionab.alloc import MultiUnit, mixture, uniform_stair
from auctionab.equil import ALL_PAY, FIRST_PRICE, bid_curve
from auctionab.dist import Beta22, QuantileGrid, grid_values, true_revenue
from auctionab.estim import SourceGrid
from auctionab.harness import (
    ExperimentSpec,
    MadResult,
    design_rules,
    epsilon_sweep,
    run_design,
    trial_estimates,
)


class TestExperimentSpec:
    def test_design_rules_mapping(self):
        a, b = design_rules(1, 8)
        assert a == MultiUnit(1, 8)
        assert b.n == 8
        a, b = design_rules(3, 8)
        assert (a, b) == (MultiUnit(7, 8), MultiUnit(1, 8))

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            design_rules(4, 8)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(design=1, n=8, N=100, trials=0)
        with pytest.raises(ValueError):
            ExperimentSpec(design=1, n=8, N=100, eps=1.5)

    def test_sizes_rejected_at_construction(self):
        for bad in ({"N": 0}, {"N": -5}, {"n": 1}, {"grid_m": 0}):
            with pytest.raises(ValueError):
                ExperimentSpec(**{"design": 1, "n": 8, "N": 100, **bad})

    def test_negative_mad_rejected(self):
        with pytest.raises(ValueError):
            MadResult(raw_mad=-0.1, normalized_mad=0, mc_rel_error_estimate=0)


class TestRunDesign:
    def test_basic_cell(self):
        spec = ExperimentSpec(design=2, n=8, N=1000, trials=50, seed=3)
        r = run_design(spec)
        assert r.raw_mad > 0
        assert r.truth > 0
        assert r.normalized_mad == pytest.approx(r.raw_mad * np.sqrt(1000) / 8)
        assert r.norm_sqrt_N_over_n_alt == pytest.approx(r.raw_mad * np.sqrt(1000 / 8))

    def test_deterministic(self):
        spec = ExperimentSpec(design=1, n=4, N=500, trials=20, seed=9)
        a, b = run_design(spec), run_design(spec)
        assert a == b

    def test_seed_changes_result(self):
        base = ExperimentSpec(design=1, n=4, N=500, trials=20, seed=9)
        other = ExperimentSpec(design=1, n=4, N=500, trials=20, seed=10)
        assert run_design(base).raw_mad != run_design(other).raw_mad

    def test_self_design_matches_sample_mean_theory(self):
        # a source estimating its own revenue gives the sample mean, whose
        # MAD is sd * sqrt(2/pi) / sqrt(N)
        us = uniform_stair(8)
        grid = QuantileGrid(10_000)
        curve = bid_curve(ALL_PAY, Beta22(), us, grid)
        est = trial_estimates(curve, us, (us,), 2000, 5, 400)[:, 0]
        raw_mad = 8 * np.mean(np.abs(est - true_revenue(Beta22(), us, grid)))
        sd = np.std(curve.b)
        theory = 8 * sd * np.sqrt(2 / np.pi) / np.sqrt(2000)
        assert raw_mad == pytest.approx(theory, rel=0.15)

    def test_trials_doubling_within_mc_error(self):
        spec1 = ExperimentSpec(design=2, n=8, N=1000, trials=200, seed=7)
        spec2 = ExperimentSpec(design=2, n=8, N=1000, trials=400, seed=7)
        r1, r2 = run_design(spec1), run_design(spec2)
        se = r1.mc_rel_error_estimate * r1.raw_mad
        assert abs(r1.raw_mad - r2.raw_mad) <= 3 * se


class TestFirstPriceCells:
    def test_unbiased_when_n_is_close_to_N(self):
        # design 2 with N = 1000: the weights must integrate the target's
        # slope up to q = 1 (a 10x trapezoid clamped at 1 - 1/(2N) gave mean
        # estimates -0.0011 and -0.029 against truths 0.0037 and 0.00095)
        grid = QuantileGrid(10_000)
        for n in (256, 1024):
            a, b = design_rules(2, n)
            c = mixture(a, b, 0.001)
            est = trial_estimates(bid_curve(FIRST_PRICE, Beta22(), c, grid), c, (b,), 1000, 7, 5)[:, 0]
            truth = true_revenue(Beta22(), b, grid)
            se = est.std(ddof=1) / np.sqrt(5)
            assert abs(est.mean() - truth) <= 6 * se + 0.02 * truth, n

    def test_bit_identical(self):
        spec = ExperimentSpec(design=1, n=8, N=400, trials=16, format=FIRST_PRICE, seed=3)
        assert run_design(spec) == run_design(spec)


class TestEpsilonSweep:
    def test_single_eps_single_row(self):
        spec = ExperimentSpec(design=1, n=8, N=500, trials=30, seed=4)
        rows = epsilon_sweep(spec, [0.01])
        assert len(rows) == 1
        assert rows[0][0] == 0.01
        assert rows[0][1] > 0

    def test_invalid_eps_rejected(self):
        spec = ExperimentSpec(design=1, n=8, N=500, trials=30, seed=4)
        with pytest.raises(ValueError):
            epsilon_sweep(spec, [0.0])


class TestSeedingRule:
    @pytest.mark.parametrize("fmt, design, n, eps, N, path", [
        (ALL_PAY, 1, 8, 0.1, 300, "index sort"),
        (ALL_PAY, 1, 8, 0.1, 2500, "counting"),
        (FIRST_PRICE, 1, 8, 0.1, 300, "index sort"),
        (FIRST_PRICE, 1, 8, 0.1, 2500, "counting"),
        (FIRST_PRICE, 3, 64, 0.001, 300, "unordered sort"),
    ])
    def test_row_t_is_trial_t_stream(self, fmt, design, n, eps, N, path):
        """Row t is the estimate from curve.draw(N, SeedSequence((seed, t))),
        bit for bit, and T trials are the first T rows of T + 5 trials, on
        each of draw's three paths."""
        a, b = design_rules(design, n)
        c = mixture(a, b, eps)
        curve = bid_curve(fmt, Beta22(), c, QuantileGrid(500))
        reached = ("unordered sort" if not curve.ordered
                   else "counting" if N >= 4 * len(curve.b) else "index sort")
        assert reached == path
        ys, seed, T = (a, b), 11, 6
        est = trial_estimates(curve, c, ys, N, seed, T)
        ws = [SourceGrid(fmt, c, N).weights(y) for y in ys]
        expected = np.array([[w @ curve.draw(N, np.random.SeedSequence((seed, t))) for w in ws]
                             for t in range(T)])
        assert est.tobytes() == expected.tobytes()
        assert est.tobytes() == trial_estimates(curve, c, ys, N, seed, T + 5)[:T].tobytes()


def test_values_evaluated_once_across_cells(monkeypatch):
    """A cell evaluates Beta22.v on its grid once, for the bid curve and the
    oracle together, and the next cell on the same grid not at all."""
    grid_values.cache_clear()
    calls, real = [], Beta22.v
    monkeypatch.setattr(Beta22, "v", lambda self, q: calls.append(np.size(q)) or real(self, q))
    for fmt in ("allpay", FIRST_PRICE):
        run_design(ExperimentSpec(design=1, n=8, N=50, trials=2, grid_m=321, format=fmt))
    assert calls.count(322) == 1
