from fractions import Fraction

import numpy as np
import pytest

from auctionab.alloc import MultiUnit, mixture, uniform_stair
from auctionab.equil import ALL_PAY, FIRST_PRICE, BidCurve, bid_curve, sample_bids
from auctionab.dist import Beta22, QuantileGrid, grid_values, true_revenue
from auctionab.estim import SourceGrid, estimate
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

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trial_estimates_rejects_too_few_trials(self, trials):
        curve = bid_curve(ALL_PAY, Beta22(), uniform_stair(4), QuantileGrid(50))
        with pytest.raises(ValueError, match="trials must be at least 1"):
            trial_estimates(curve, uniform_stair(4), (MultiUnit(1, 4),), 100, 0, trials)

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
        (FIRST_PRICE, 3, 64, 0.001, 300, "index sort"),
    ])
    def test_row_t_is_trial_t_stream(self, fmt, design, n, eps, N, path):
        """Row t is the estimate from stream SeedSequence((seed, t)), bit for
        bit, and T trials are the first T rows of T + 5 trials, on both of
        draw's paths.  On the sort paths the row is the weights dotted
        with curve.draw(N, stream); on the counting path it is the kernel at
        the cumulative curve.counts(N, stream) dotted with the grid bids'
        increments, within 1e-12 of that weight form."""
        a, b = design_rules(design, n)
        c = mixture(a, b, eps)
        curve = bid_curve(fmt, Beta22(), c, QuantileGrid(500))
        assert curve.counting(N) == (path == "counting")
        ys, seed, T = (a, b), 11, 6
        est = trial_estimates(curve, c, ys, N, seed, T)
        grid = SourceGrid(fmt, c, N)
        streams = [np.random.SeedSequence((seed, t)) for t in range(T)]
        weight_form = np.array([[grid.weights(y) @ curve.draw(N, s) for y in ys] for s in streams])
        if path == "counting":
            Ks, db = [grid.kernel(y) for y in ys], np.diff(curve.b, append=0.0)
            expected = np.array([[K[0] * curve.b[0] + K.take(curve.counts(N, s).cumsum()) @ db
                                  for K in Ks] for s in streams])
            np.testing.assert_allclose(est, weight_form, rtol=1e-12, atol=0)
        else:
            expected = weight_form
        assert est.tobytes() == expected.tobytes()
        assert est.tobytes() == trial_estimates(curve, c, ys, N, seed, T + 5)[:T].tobytes()

    @pytest.mark.parametrize("fmt, design, n, eps", [
        (ALL_PAY, 1, 8, 0.1), (FIRST_PRICE, 1, 8, 0.1), (FIRST_PRICE, 3, 64, 0.001)])
    @pytest.mark.parametrize("N", [300, 2500])
    def test_counts_are_the_draw(self, fmt, design, n, eps, N):
        """counts(N, seed) sums to N, and repeating each grid bid that often
        gives draw(N, seed), below and above the counting boundary alike."""
        a, b = design_rules(design, n)
        curve = bid_curve(fmt, Beta22(), mixture(a, b, eps), QuantileGrid(500))
        seed = np.random.SeedSequence((11, 2))
        counts = curve.counts(N, seed)
        assert len(counts) == len(curve.b) and counts.sum() == N
        assert np.repeat(curve.b, counts).tobytes() == curve.draw(N, seed).tobytes()


class TestCountForm:
    """Trials on the counting path estimate from grid counts, never from the
    N sorted bids; a small grid with N = 4 (m + 1) reaches it."""

    @staticmethod
    def _cell(fmt, design, n, m, eps=0.001):
        a, b = design_rules(design, n)
        c = mixture(a, b, eps)
        curve = bid_curve(fmt, Beta22(), c, QuantileGrid(m))
        N = 4 * (m + 1)
        assert curve.counting(N)
        return curve, c, (a, b), N

    @pytest.mark.parametrize("fmt", [ALL_PAY, FIRST_PRICE])
    @pytest.mark.parametrize("design, n, shift", [(2, 32, 0.0), (3, 256, 0.0), (2, 32, 0.25)])
    def test_rows_match_estimate(self, fmt, design, n, shift):
        """Each row is what estimate gives on the trial's sample, the
        increment form over the edges where its sorted bids change; also on
        a curve shifted up, whose lowest grid bid b_0 is not 0."""
        curve, c, ys, N = self._cell(fmt, design, n, 200)
        curve = BidCurve(fmt, c, curve.grid, curve.b + shift)
        seed, T = 5, 3
        est = trial_estimates(curve, c, ys, N, seed, T)
        for t in range(T):
            sample = sample_bids(curve, N, np.random.SeedSequence((seed, t)))
            np.testing.assert_allclose(est[t], estimate(sample, c, ys), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("fmt, n, m, gap", [
        pytest.param(ALL_PAY, 256, 200, 1e-13, id="allpay"),
        pytest.param(FIRST_PRICE, 256, 200, 1e-13, id="firstprice"),
        # a curve bid_curve repairs (S/x drops by an ulp on its flat top);
        # its first trial's weight form is 9.98e-14 off
        pytest.param(FIRST_PRICE, 64, 2000, 5e-14, id="firstprice-n64-m2000"),
    ])
    def test_exact_where_the_weight_form_cancels(self, fmt, n, m, gap):
        """Design 3 at n = 256 and 64: 1/x' spans many decades, so the
        weight form sum_i (K_{i-1} - K_i) bid_i cancels to more than `gap`
        relative off its exact value over the same float K and bids, while
        the row stays within a few ulps of it."""
        curve, c, ys, N = self._cell(fmt, 3, n, m)
        y, seed, T = ys[1], 3, 3
        rows = trial_estimates(curve, c, (y,), N, seed, T)[:, 0]
        grid = SourceGrid(fmt, c, N)
        K, w = grid.kernel(y), grid.weights(y)
        Kf = [Fraction(k) for k in K]
        for t, row in enumerate(rows):
            bids = curve.draw(N, np.random.SeedSequence((seed, t)))
            exact = float(sum((Kf[i] - Kf[i + 1]) * Fraction(v) for i, v in enumerate(bids)))
            assert abs(w @ bids - exact) > gap * abs(exact)
            assert abs(row - exact) <= 4 * np.spacing(abs(exact))


def test_values_evaluated_once_across_cells(monkeypatch):
    """A cell evaluates Beta22.v on its grid once, for the bid curve and the
    oracle together, and the next cell on the same grid not at all."""
    grid_values.cache_clear()
    calls, real = [], Beta22.v
    monkeypatch.setattr(Beta22, "v", lambda self, q: calls.append(np.size(q)) or real(self, q))
    for fmt in ("allpay", FIRST_PRICE):
        run_design(ExperimentSpec(design=1, n=8, N=50, trials=2, grid_m=321, format=fmt))
    assert calls.count(322) == 1
