import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auctionab.abtest import best_of_r, compare_revenues, revenue_verdict
from auctionab.alloc import (
    MultiUnit,
    Position,
    PositionWeights,
    marginal_weights,
    mixture,
    uniform_stair,
    uniform_stair_weights,
    universal_b,
)
from auctionab.dist import Beta22, QuantileGrid, Uniform01, expected_value, true_revenue
from auctionab.equil import ALL_PAY, FIRST_PRICE, BidSample, allpay_bid_curve, bid_curve, sample_bids
from auctionab.harness import trial_estimates
from auctionab.estim import (
    DegenerateSourceError,
    EstimateReport,
    SourceGrid,
    estimate_expected_value,
    estimate_multiunit_revenues,
    estimate_revenue,
    estimate_revenues,
    estimate_welfare,
)

GRID = QuantileGrid(10_000)


def allpay_sample(dist, rule, N, seed, grid=GRID):
    return sample_bids(allpay_bid_curve(dist, rule, grid), N, seed)


class TestExactIdentities:
    def test_self_estimation_equals_sample_mean(self):
        for rule in (uniform_stair(4), MultiUnit(1, 4), MultiUnit(3, 4)):
            s = allpay_sample(Beta22(), rule, 777, 3)
            est = estimate_revenue(s, rule, rule).point
            assert abs(est - s.bids.mean()) <= 1e-12

    def test_weights_sum_to_one_for_self(self):
        w = SourceGrid(ALL_PAY, uniform_stair(8), 100).weights(uniform_stair(8))
        np.testing.assert_allclose(w, 1 / 100, atol=1e-15)

    def test_linearity_in_target(self):
        x = mixture(MultiUnit(1, 8), Position(universal_b(8)), 0.5)
        s = allpay_sample(Beta22(), x, 500, 1)
        y1, y2 = MultiUnit(2, 8), MultiUnit(5, 8)
        lam = 0.3
        ymix = mixture(y1, y2, 1 - lam)  # weight lam on y1
        direct = estimate_revenue(s, x, ymix).point
        combo = lam * estimate_revenue(s, x, y1).point + (1 - lam) * estimate_revenue(s, x, y2).point
        assert abs(direct - combo) <= 1e-12

    def test_linearity_first_price(self):
        x = mixture(MultiUnit(1, 8), Position(universal_b(8)), 0.5)
        s = sample_bids(bid_curve(FIRST_PRICE, Beta22(), x, GRID), 500, 1)
        y1, y2 = MultiUnit(2, 8), MultiUnit(5, 8)
        ymix = mixture(y1, y2, 0.5)
        direct = estimate_revenue(s, x, ymix).point
        combo = 0.5 * (estimate_revenue(s, x, y1).point + estimate_revenue(s, x, y2).point)
        assert abs(direct - combo) <= 1e-12


class TestAllPayEstimator:
    def test_consistency_rate(self):
        # MAD shrinks roughly like sqrt(N) between N=1e3 and N=1e5
        d = Beta22()
        x = mixture(uniform_stair(8), MultiUnit(1, 8), 0.05)
        y = MultiUnit(1, 8)
        curve = allpay_bid_curve(d, x, GRID)
        truth = true_revenue(d, y, GRID)
        mads = []
        for N in (1000, 100_000):
            errs = [
                abs(estimate_revenue(sample_bids(curve, N, np.random.SeedSequence((21, t))), x, y).point - truth)
                for t in range(200)
            ]
            mads.append(np.mean(errs))
        assert 5 <= mads[0] / mads[1] <= 20

    def test_small_bias_at_large_n_samples(self):
        d = Beta22()
        x = Position(universal_b(8))
        y = MultiUnit(3, 8)
        curve = allpay_bid_curve(d, x, GRID)
        truth = true_revenue(d, y, GRID)
        est = np.mean(
            [estimate_revenue(sample_bids(curve, 10_000, np.random.SeedSequence((22, t))), x, y).point
             for t in range(200)]
        )
        assert abs(est - truth) <= 2e-3

    def test_degenerate_source_raises(self):
        rule = Position(PositionWeights([0.0, 0.0]))
        s = allpay_sample(Uniform01(), uniform_stair(2), 100, 0)
        with pytest.raises(DegenerateSourceError):
            estimate_revenue(s, rule, uniform_stair(2))

    @pytest.mark.parametrize("fmt", [ALL_PAY, FIRST_PRICE])
    def test_flat_source_where_bids_tie_estimates(self, fmt):
        # one-unit at n=200 has x' = 199 q^198 = 0 in floating point for
        # q <= 0.02; the first 50 bids are tied at 0, so no edge the
        # estimate uses is flat, while the weight form uses every edge
        x, y = MultiUnit(1, 200), uniform_stair(200)
        s = BidSample(fmt, x, np.concatenate([np.zeros(50), np.linspace(0.1, 0.5, 50)]))
        with pytest.raises(DegenerateSourceError):
            SourceGrid(fmt, x, 100).weights(y)
        assert np.isfinite(estimate_revenue(s, x, y).point)
        if fmt == ALL_PAY:
            assert np.isfinite(estimate_expected_value(s, x).point)

    @pytest.mark.parametrize("fmt", [ALL_PAY, FIRST_PRICE])
    def test_flat_edge_with_a_bid_step_raises_there(self, fmt):
        # the bids first change at edge 2 (q = 0.02), where x' is 0
        x, y = MultiUnit(1, 200), uniform_stair(200)
        s = BidSample(fmt, x, np.concatenate([np.zeros(2), np.linspace(0.1, 0.5, 98)]))
        with pytest.raises(DegenerateSourceError, match=r"q=0\.02$") as exc:
            estimate_revenue(s, x, y)
        assert exc.value.quantile == 0.02

    def test_flat_edge_raises_where_the_welfare_target_serves(self):
        # x' is 0 at q = 0.02, the first edge the bids use: the uniform stair
        # serves there (y = q), while the one-unit rule's y = q^199 is 0
        x = MultiUnit(1, 200)
        s = BidSample(ALL_PAY, x, np.concatenate([np.zeros(2), np.linspace(0.1, 0.5, 98)]))
        with pytest.raises(DegenerateSourceError, match=r"q=0\.02$"):
            estimate_welfare(s, x, uniform_stair_weights(200))
        assert np.isfinite(estimate_welfare(s, x, x.weights).point)

    def test_expected_value_never_uses_the_ends(self):
        # at N = 20 only edge 0 (clamped to q = 0.025) is flat: revenue uses
        # it through b_1 > 0, while the expected value's boundary terms cancel
        x = MultiUnit(1, 200)
        s = BidSample(ALL_PAY, x, np.linspace(0.1, 0.5, 20))
        with pytest.raises(DegenerateSourceError, match=r"q=0\.025$"):
            estimate_revenue(s, x, uniform_stair(200))
        assert np.isfinite(estimate_expected_value(s, x).point)

    def test_degenerate_source_error_pickles(self):
        e = pickle.loads(pickle.dumps(DegenerateSourceError(0.5)))
        assert isinstance(e, DegenerateSourceError)
        assert e.quantile == 0.5
        assert str(e) == "source allocation slope vanishes at q=0.5"


class TestFirstPriceEstimator:
    def test_weights_sum_to_target_mean_weight(self):
        # the weights telescope to F(1) - F(0) = int_0^1 y = mean position
        # weight of y, since x(0) = y(0) = 0 here
        for n in (8, 256, 1024):
            x = mixture(uniform_stair(n), MultiUnit(1, n), 0.001)
            for y, mean_w in ((MultiUnit(1, n), 1 / n), (uniform_stair(n), 0.5),
                              (MultiUnit(n // 2, n), 0.5)):
                assert abs(SourceGrid(FIRST_PRICE, x, 1000).weights(y).sum() - mean_w) <= 1e-12

    def test_self_weights_integrate_the_rule(self):
        # with y = x, F is the integral of x, so each weight is x's cell mass
        x = mixture(MultiUnit(1, 8), Position(universal_b(8)), 0.5)
        q = np.arange(501) / 500
        np.testing.assert_allclose(SourceGrid(FIRST_PRICE, x, 500).weights(x), np.diff(x.xint(q)),
                                   rtol=0.0, atol=1e-15)

    def test_recovers_truth_design3(self):
        d = Beta22()
        x = mixture(MultiUnit(7, 8), MultiUnit(1, 8), 0.001)
        y = MultiUnit(1, 8)
        curve = bid_curve(FIRST_PRICE, d, x, GRID)
        truth = true_revenue(d, y, GRID)
        errs = [
            estimate_revenue(sample_bids(curve, 10_000, np.random.SeedSequence((23, t))), x, y).point - truth
            for t in range(50)
        ]
        assert abs(np.mean(errs)) <= 2e-3
        assert np.mean(np.abs(errs)) <= 5e-3

    def test_self_estimation_close(self):
        d = Beta22()
        x = uniform_stair(6)
        curve = bid_curve(FIRST_PRICE, d, x, GRID)
        truth = true_revenue(d, x, GRID)
        errs = [
            estimate_revenue(sample_bids(curve, 10_000, np.random.SeedSequence((24, t))), x, x).point - truth
            for t in range(50)
        ]
        assert abs(np.mean(errs)) <= 2e-3


class TestMultiUnitVector:
    def test_vector_matches_individual_estimates(self):
        x = Position(universal_b(8))
        s = allpay_sample(Beta22(), x, 2000, 5)
        vec = estimate_multiunit_revenues(s, x)
        assert len(vec) == 7
        for k in (1, 4, 7):
            assert vec[k - 1] == estimate_revenue(s, x, MultiUnit(k, 8)).point


@st.composite
def multi_target_cases(draw):
    """A sample of sorted bids in either format, a source rule whose slope
    never vanishes (half uniform stair), and 2-5 target position rules."""
    n = draw(st.integers(2, 48))
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)

    def rule():
        return Position(PositionWeights(sorted(draw(st.lists(weight, min_size=n, max_size=n)),
                                               reverse=True)))

    x = mixture(rule(), uniform_stair(n), 0.5)
    ys = [rule() for _ in range(draw(st.integers(2, 5)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bids = np.sort(rng.random(draw(st.integers(1, 400))))
    return BidSample(draw(st.sampled_from([ALL_PAY, FIRST_PRICE])), x, bids), x, ys


class TestMultiTarget:
    """Multi-target estimators evaluate the source once and must give
    exactly the loop of single-target estimates; welfare, one kernel, must
    give the composition of n-1 multi-unit revenues to rounding."""

    @settings(max_examples=60, deadline=None)
    @given(multi_target_cases(), st.floats(0.25, 4.0))
    def test_equal_to_loop_of_single_estimates(self, case, alpha):
        s, x, ys = case
        loop = [estimate_revenue(s, x, y).point for y in ys]
        assert estimate_revenues(s, x, ys).tolist() == loop
        idx, est = best_of_r(s, x, ys, alpha)
        assert est.tolist() == loop
        assert idx == int(np.argmax([loop[0]] + [alpha * p for p in loop[1:]]))
        assert compare_revenues(s, x, ys[0], ys[1], alpha) == revenue_verdict(loop[0], loop[1], alpha)
        units = [MultiUnit(k, x.n) for k in range(1, x.n)]
        pk = [estimate_revenue(s, x, y).point for y in units]
        assert estimate_multiunit_revenues(s, x).tolist() == pk
        if s.format == ALL_PAY:
            # SW = w_1 vbar - sum_k (w_1 - w_{k+1}) P_k / k, each term summed
            # by parts on the full grid of edges
            w = ys[0].weights
            vbar = estimate_expected_value(s, x).point
            c = (w.w[0] - w.w[1:]) / np.arange(1, w.n)
            want = float(w.w[0] * vbar - np.sum(c * np.array(pk)))
            grid = SourceGrid(ALL_PAY, x, s.size)
            steps = np.abs(np.diff(s.bids, prepend=0.0, append=0.0))
            value = np.where((grid.q > 0.0) & (grid.q < 1.0), 1.0 / grid.xp, 0.0)
            scale = steps @ (w.w[0] * np.abs(value)
                             + sum(abs(ck) * np.abs(grid.kernel(u)) for ck, u in zip(c, units)))
            assert abs(estimate_welfare(s, x, w).point - want) <= 1e-12 * scale
            assert estimate_welfare(s, x, MultiUnit(x.n, x.n).weights).point == vbar


class TestIncrementForm:
    """Estimates sum the kernel times each bid increment; gathered per bid
    that is the weight form the Monte Carlo trials use."""

    @settings(max_examples=150, deadline=None)
    @given(fmt=st.sampled_from([ALL_PAY, FIRST_PRICE]), n=st.integers(2, 48),
           N=st.integers(1, 400), levels=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    @example(fmt=ALL_PAY, n=8, N=1, levels=0, seed=0)
    @example(fmt=FIRST_PRICE, n=8, N=1, levels=0, seed=0)
    @example(fmt=ALL_PAY, n=8, N=300, levels=1, seed=1)
    @example(fmt=FIRST_PRICE, n=8, N=300, levels=1, seed=1)
    def test_equals_weight_form(self, fmt, n, N, levels, seed):
        # levels > 0: bids drawn from that many values, so heavily tied
        # (1: all equal); levels = 0: continuous bids
        rng = np.random.default_rng(seed)

        def rule():
            w = np.where(rng.random(n) < 0.3, rng.integers(0, 2, n), rng.random(n))
            return Position(PositionWeights(np.sort(w)[::-1]))

        x, y = mixture(rule(), uniform_stair(n), 0.5), rule()
        bids = np.sort(rng.choice(rng.random(levels), N) if levels else rng.random(N))
        s = BidSample(fmt, x, bids)
        grid = SourceGrid(fmt, x, N)
        w = grid.weights(y)
        assert abs(estimate_revenue(s, x, y).point - w @ bids) <= 1e-12 * np.sum(np.abs(w * bids))
        if fmt == ALL_PAY:
            # the expected value's weights keep both boundary terms
            z = 1.0 / grid.xp
            terms = np.concatenate([(z[:-1] - z[1:]) * bids, [z[-1] * bids[-1], -z[0] * bids[0]]])
            assert abs(estimate_expected_value(s, x).point - terms.sum()) <= 1e-12 * np.abs(terms).sum()
            # serving every agent, the welfare kernel is 1/x' inside, 0 at the ends
            inner = (grid.q > 0.0) & (grid.q < 1.0)
            np.testing.assert_array_equal(grid.welfare_kernel(MultiUnit(n, n)), np.where(inner, z, 0.0))

    @pytest.mark.parametrize("n", [128, 256, 1024])
    def test_flat_source_value_and_welfare_bounded(self, n):
        # x' of one-unit + 10% universal-B spans up to 74 decades here; in
        # weight form E[v] and welfare cancel to rounding noise (E[v] was
        # -3.2e15 at n = 128 and 1.7e54 at n = 256, the same at every seed)
        x = mixture(MultiUnit(1, n), Position(universal_b(n)), 0.1)
        curve = allpay_bid_curve(Beta22(), x, GRID)
        for seed in range(5):
            s = sample_bids(curve, 10_000, seed)
            for est in (estimate_expected_value(s, x).point,
                        estimate_welfare(s, x, uniform_stair_weights(n)).point):
                assert np.isfinite(est) and 0.0 <= est < 1.0


class TestExpectedValue:
    def test_uniform_stair_source_reduces_to_boundary(self):
        # x' = 1 so the telescoping weights vanish; estimate = max - min bid
        s = allpay_sample(Uniform01(), uniform_stair(2), 10_000, 2)
        est = estimate_expected_value(s, uniform_stair(2)).point
        assert est == pytest.approx(s.bids[-1] - s.bids[0])
        assert est == pytest.approx(0.5, abs=2e-3)

    def test_design3_source_beta22(self):
        d = Beta22()
        x = mixture(MultiUnit(7, 8), MultiUnit(1, 8), 0.001)
        curve = allpay_bid_curve(d, x, GRID)
        est = np.mean(
            [estimate_expected_value(sample_bids(curve, 100_000, np.random.SeedSequence((25, t))), x).point
             for t in range(20)]
        )
        assert est == pytest.approx(expected_value(d, GRID), abs=5e-3)

    def test_requires_allpay(self):
        s = sample_bids(bid_curve(FIRST_PRICE, Uniform01(), uniform_stair(4), GRID), 100, 0)
        with pytest.raises(ValueError):
            estimate_expected_value(s, uniform_stair(4))


class TestWelfare:
    def test_serve_everyone_equals_expected_value(self):
        w = PositionWeights([1.0, 1.0, 1.0, 1.0])
        x = Position(universal_b(4))
        s = allpay_sample(Beta22(), x, 5000, 6)
        assert estimate_welfare(s, x, w).point == estimate_expected_value(s, x).point

    def test_one_unit_two_uniform_agents(self):
        w = PositionWeights([1.0, 0.0])
        x = uniform_stair(2)
        curve = allpay_bid_curve(Uniform01(), x, GRID)
        sw = np.mean(
            [estimate_welfare(sample_bids(curve, 20_000, np.random.SeedSequence((26, t))), x, w).point
             for t in range(30)]
        )
        assert sw == pytest.approx(1 / 3, abs=3e-3)


class TestAgentCounts:
    """A target or a bid sample for another number of agents than the
    source rule is rejected by every entry point."""

    X = Position(universal_b(8))
    SAMPLE = BidSample(ALL_PAY, X, np.linspace(0.1, 0.5, 50))
    OTHER = MultiUnit(2, 4)

    @pytest.mark.parametrize("call", [
        lambda s, x, y: estimate_revenue(s, x, y),
        lambda s, x, y: estimate_revenues(s, x, (MultiUnit(1, 8), y)),
        lambda s, x, y: best_of_r(s, x, (MultiUnit(1, 8), y)),
        lambda s, x, y: compare_revenues(s, x, MultiUnit(1, 8), y),
        lambda s, x, y: estimate_welfare(s, x, y.weights),
        lambda s, x, y: estimate_welfare(s, x, PositionWeights([1.0, 0.0])),
        lambda s, x, y: SourceGrid(ALL_PAY, x, 50).weights(y),
        lambda s, x, y: trial_estimates(allpay_bid_curve(Uniform01(), x, GRID), x, (y,), 50, 0, 2),
    ], ids=["estimate_revenue", "estimate_revenues", "best_of_r", "compare_revenues",
            "estimate_welfare", "estimate_welfare_two_weights", "weights", "trial_estimates"])
    def test_target_for_other_agent_count_rejected(self, call):
        with pytest.raises(ValueError, match="target rule has"):
            call(self.SAMPLE, self.X, self.OTHER)

    @pytest.mark.parametrize("call", [
        lambda s, x: estimate_revenue(s, x, x),
        lambda s, x: estimate_multiunit_revenues(s, x),
        lambda s, x: estimate_expected_value(s, x),
        lambda s, x: estimate_welfare(s, x, x.weights),
    ], ids=["estimate_revenue", "estimate_multiunit_revenues", "estimate_expected_value",
            "estimate_welfare"])
    def test_sample_for_other_agent_count_rejected(self, call):
        with pytest.raises(ValueError, match="bid sample's rule"):
            call(self.SAMPLE, self.OTHER)


class TestEstimateReport:
    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            EstimateReport(0.1, bound=-1.0)

    def test_csv_row_layout(self):
        r = EstimateReport(0.25, meta={"design": 2, "format": ALL_PAY, "n": 4, "N": 100, "eps": 0.001, "seed": 7})
        row = r.csv_row(truth=0.2)
        cells = row.split(",")
        assert cells[0] == "2"
        assert cells[6] == "0.25"
        assert float(cells[8]) == pytest.approx(0.05)
