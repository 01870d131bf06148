import numpy as np
import pytest

from auctionab.abtest import best_of_r, compare_revenues
from auctionab.alloc import MultiUnit, Position, universal_b
from auctionab.dist import Beta22, QuantileGrid, true_revenue
from auctionab.equil import allpay_bid_curve, sample_bids

GRID = QuantileGrid(10_000)


def universal_sample(n, N, seed):
    x = Position(universal_b(n))
    curve = allpay_bid_curve(Beta22(), x, GRID)
    return x, sample_bids(curve, N, seed)


class TestCompareRevenues:
    def test_correct_sign_on_clear_gap(self):
        x, s = universal_sample(8, 10_000, 11)
        # P_5 > P_1 for Beta(2,2) with 8 agents
        verdict, margin = compare_revenues(s, x, MultiUnit(5, 8), MultiUnit(1, 8))
        assert verdict == 1 and margin > 0
        verdict, margin = compare_revenues(s, x, MultiUnit(1, 8), MultiUnit(5, 8))
        assert verdict == 0 and margin < 0

    def test_alpha_shifts_threshold(self):
        x, s = universal_sample(8, 10_000, 11)
        verdict, _ = compare_revenues(s, x, MultiUnit(5, 8), MultiUnit(1, 8), alpha=100.0)
        assert verdict == 0

    def test_margin_is_python_float(self):
        x, s = universal_sample(8, 1000, 11)
        assert type(compare_revenues(s, x, MultiUnit(5, 8), MultiUnit(1, 8))[1]) is float

    def test_exact_tie_keeps_incumbent(self):
        x, s = universal_sample(8, 1000, 11)
        verdict, margin = compare_revenues(s, x, MultiUnit(3, 8), MultiUnit(3, 8))
        assert verdict == 0 and margin == 0.0

    def test_invalid_alpha(self):
        x, s = universal_sample(8, 100, 11)
        with pytest.raises(ValueError):
            compare_revenues(s, x, MultiUnit(1, 8), MultiUnit(2, 8), alpha=0.0)


class TestBestOfR:
    def test_agrees_with_binary_compare(self):
        x, s = universal_sample(8, 10_000, 12)
        b1, b2 = MultiUnit(5, 8), MultiUnit(1, 8)
        verdict, _ = compare_revenues(s, x, b1, b2)
        idx, _ = best_of_r(s, x, [b1, b2])
        assert (idx == 0) == (verdict == 1)

    def test_estimates_returned_per_candidate(self):
        x, s = universal_sample(8, 5000, 13)
        cands = [MultiUnit(k, 8) for k in (1, 3, 5, 7)]
        idx, ests = best_of_r(s, x, cands)
        assert len(ests) == 4
        assert idx == int(np.argmax(ests))

    def test_picks_true_argmax_at_scale(self):
        d = Beta22()
        truths = [true_revenue(d, MultiUnit(k, 8), GRID) for k in (1, 3, 5, 7)]
        want = int(np.argmax(truths))
        x, s = universal_sample(8, 100_000, 14)
        idx, _ = best_of_r(s, x, [MultiUnit(k, 8) for k in (1, 3, 5, 7)])
        assert idx == want

    def test_needs_two_candidates(self):
        x, s = universal_sample(8, 100, 15)
        with pytest.raises(ValueError):
            best_of_r(s, x, [MultiUnit(1, 8)])
