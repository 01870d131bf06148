import numpy as np
import pytest
from hypothesis import given, settings
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
from auctionab.estim import (
    DegenerateSourceError,
    EstimateReport,
    estimate_expected_value,
    estimate_multiunit_revenues,
    estimate_revenue,
    estimate_revenues,
    estimate_welfare,
    firstprice_weights,
    revenue_weights,
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
        w = revenue_weights(uniform_stair(8), uniform_stair(8), 100)
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

    def test_format_mismatch_rejected(self):
        s = sample_bids(bid_curve(FIRST_PRICE, Uniform01(), uniform_stair(4), GRID), 100, 0)
        from auctionab.estim import estimate_revenue_allpay

        with pytest.raises(ValueError):
            estimate_revenue_allpay(s, uniform_stair(4), uniform_stair(4))


class TestFirstPriceEstimator:
    def test_weights_sum_to_target_mean_weight(self):
        # the weights telescope to F(1) - F(0) = int_0^1 y = mean position
        # weight of y, since x(0) = y(0) = 0 here
        for n in (8, 256, 1024):
            x = mixture(uniform_stair(n), MultiUnit(1, n), 0.001)
            for y, mean_w in ((MultiUnit(1, n), 1 / n), (uniform_stair(n), 0.5),
                              (MultiUnit(n // 2, n), 0.5)):
                assert abs(firstprice_weights(x, y, 1000).sum() - mean_w) <= 1e-12

    def test_self_weights_integrate_the_rule(self):
        # with y = x, F is the integral of x, so each weight is x's cell mass
        x = mixture(MultiUnit(1, 8), Position(universal_b(8)), 0.5)
        q = np.arange(501) / 500
        np.testing.assert_allclose(firstprice_weights(x, x, 500), np.diff(x.xint(q)),
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
    return BidSample(draw(st.sampled_from([ALL_PAY, FIRST_PRICE])), n, x, bids), x, ys


class TestMultiTarget:
    """Multi-target estimators evaluate the source once and must give
    exactly the loop of single-target estimates."""

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
            w = ys[0].weights
            vbar = estimate_expected_value(s, x).point
            k = np.arange(1, w.n)
            want = float(w.w[0] * vbar - np.sum((w.w[0] - w.w[1:]) * np.array(pk) / k))
            assert estimate_welfare(s, x, w).point == want


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
        sw = estimate_welfare(s, x, w).point
        vbar = estimate_expected_value(s, x).point
        assert sw == pytest.approx(vbar, abs=1e-12)

    def test_one_unit_two_uniform_agents(self):
        w = PositionWeights([1.0, 0.0])
        x = uniform_stair(2)
        curve = allpay_bid_curve(Uniform01(), x, GRID)
        sw = np.mean(
            [estimate_welfare(sample_bids(curve, 20_000, np.random.SeedSequence((26, t))), x, w).point
             for t in range(30)]
        )
        assert sw == pytest.approx(1 / 3, abs=3e-3)


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
