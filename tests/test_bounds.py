import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionab.alloc import LIMITS, SLOPE_GRID, AllocationRule, MultiUnit, mixture, uniform_stair
from auctionab.bounds import (
    BoundInputs,
    bound_allpay_k,
    bound_bias,
    bound_classifier,
    bound_expected_value,
    bound_general_y,
    bound_ideal_ab,
    bound_mixture,
    bound_universal,
    bound_welfare,
    normalized_table_bound,
)
from auctionab.estim import SourceGrid


def inputs_for(design, n, N, eps=0.001):
    from auctionab.harness import design_rules

    a, b = design_rules(design, n)
    return BoundInputs.from_rules(mixture(a, b, eps), b, N)


class TestBoundInputs:
    def test_self_ratios_are_one(self):
        x = uniform_stair(8)
        bi = BoundInputs.from_rules(x, x, 1000)
        assert bi.ratio_down == pytest.approx(1.0)
        assert bi.ratio_up == pytest.approx(1.0)
        assert bi.sup_yprime == pytest.approx(1.0, abs=1e-9)

    def test_design2_ratio_down_near_n_minus_one(self):
        bi = inputs_for(2, 32, 1000)
        assert 25 <= bi.ratio_down <= 31

    def test_zero_sample_size_rejected(self):
        """N = 0 once raised ZeroDivisionError from the clamp 1/(2N)."""
        with pytest.raises(ValueError, match="sample size N must be at least 1"):
            BoundInputs.from_rules(uniform_stair(4), uniform_stair(4), 0)


def four_scan_inputs(x, y, N):
    """BoundInputs as from_rules built them with one xprime scan of each
    rule on the clamped grid and another inside each max_slope."""
    def max_slope(rule):
        n = rule.n
        k = np.concatenate([np.arange(k0, k1 + 1) for k0, k1, _ in rule._runs] or [[]])
        peaks = [(n - k) / (n - 1)] + ([(n - 1 - k) / (n - 2)] if n > 2 else [])
        return float(rule.xprime(np.concatenate([np.linspace(0.0, 1.0, SLOPE_GRID), *peaks])).max())

    q = np.clip(np.linspace(0.0, 1.0, SLOPE_GRID), 0.5 / N, 1.0 - 0.5 / N)
    yp, xp = y.xprime(q), x.xprime(q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        down = np.where(xp > 0, yp / np.where(xp > 0, xp, 1.0), np.inf)
        up_mask = yp >= 1.0
        up = float(np.max(xp[up_mask] / yp[up_mask])) if np.any(up_mask) else 0.0
    return BoundInputs(N=N, n=x.n, sup_yprime=max_slope(y), sup_xprime=max_slope(x),
                       sup_inv_xprime=float(np.max(1.0 / np.maximum(xp, 1e-300))),
                       ratio_up=up, ratio_down=float(np.max(down)))


@st.composite
def rule_pairs(draw):
    """Two position rules on one n, with runs of equal weights and drifting ones."""
    n = draw(st.integers(2, 40))
    value = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    return tuple(AllocationRule(np.sort(draw(st.lists(value, min_size=n, max_size=n)))[::-1])
                 for _ in range(2))


class TestOneSlopeScan:
    @settings(max_examples=40, deadline=None)
    @given(rule_pairs(), st.sampled_from([1, 2, 3, 10, 10_000, 100_000]))
    def test_equals_four_scans(self, rules, N):
        x, y = rules
        assert BoundInputs.from_rules(x, y, N) == four_scan_inputs(x, y, N)

    @pytest.mark.parametrize("design, n", [(1, 4), (2, 32), (3, 256), (2, 1024)])
    def test_design_cells_equal_four_scans(self, design, n):
        from auctionab.harness import design_rules

        a, b = design_rules(design, n)
        x = mixture(a, b, 0.001)
        for N in (1, 2, 3, 10, 10_000, 100_000):
            assert BoundInputs.from_rules(x, b, N) == four_scan_inputs(x, b, N)


class TestAllPayBound:
    def test_self_case_floors_log(self):
        x = uniform_stair(4)
        bi = BoundInputs.from_rules(x, x, 100)
        # floored log gives exactly 1, so the bound is 40/sqrt(N) * sup x'
        assert bound_allpay_k(bi) == pytest.approx(40 / 10 * bi.sup_yprime)

    def test_nonincreasing_in_samples(self):
        vals = [bound_allpay_k(inputs_for(2, 8, N)) for N in (100, 10_000, 1_000_000)]
        assert vals[0] > vals[1] > vals[2] > 0


class TestGeneralBound:
    def test_adds_bias_term(self):
        bi = inputs_for(1, 8, 1000)
        assert bound_general_y(bi) > bound_bias(bi) > 0

    def test_dominates_multiunit_form(self):
        bi = inputs_for(3, 8, 1000)
        assert bound_general_y(bi) >= bound_allpay_k(bi)

    def test_vanishes_at_large_n_samples(self):
        bi_small = inputs_for(1, 8, 10**4)
        bi_large = inputs_for(1, 8, 10**12)
        assert bound_general_y(bi_large) < 1e-3 * bound_general_y(bi_small)


class TestIdealAndMixture:
    def test_ideal_arithmetic(self):
        assert bound_ideal_ab(1.0, 100, 1.0) == pytest.approx(0.1)

    def test_ideal_eps_scaling(self):
        assert bound_ideal_ab(0.01, 100, 1.0) == pytest.approx(10 * bound_ideal_ab(1.0, 100, 1.0))

    def test_mixture_bound_arithmetic(self):
        # multi-unit form: 40 log(n/eps) sup / sqrt(N)
        v = bound_mixture(0.001, 10_000, 8, 2.0, multi_unit=True)
        assert v == pytest.approx(40 * math.log(8000) * 2.0 / 100)

    def test_general_mixture_has_extra_factor(self):
        gen = 40 * bound_mixture(0.001, 10_000, 8, 2.0, multi_unit=False)
        mu = bound_mixture(0.001, 10_000, 8, 2.0, multi_unit=True)
        assert gen == pytest.approx(mu * math.sqrt(8 * math.log(8)))

    def test_small_eps_mixture_beats_ideal(self):
        eps = 1e-6
        sup = 31.0
        assert bound_mixture(eps, 10_000, 32, sup, multi_unit=True) < 40 * bound_ideal_ab(eps, 10_000, sup)


class TestUniversalBound:
    def test_arithmetic_example(self):
        assert bound_universal(math.exp(-1), 1600, 4) == pytest.approx(40 * 4 * 5 / 40)

    def test_eps_one_limit(self):
        assert bound_universal(1.0, 100, 4) == pytest.approx(40 * 16 / 10)

    def test_monotone_in_samples(self):
        assert bound_universal(0.001, 10_000, 8) < bound_universal(0.001, 100, 8)


class TestClassifierBound:
    def test_zero_gap_vacuous(self):
        assert bound_classifier(10_000, 8, 0.001, 1.0, 0.0) == 1.0

    def test_doubling_samples_squares(self):
        b1 = bound_classifier(5000, 8, 0.001, 1.0, 0.05)
        b2 = bound_classifier(10_000, 8, 0.001, 1.0, 0.05)
        assert b2 == pytest.approx(b1**2)

    def test_in_unit_interval(self):
        v = bound_classifier(10_000, 8, 0.001, 1.0, 0.05)
        assert 0 < v < 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bound_classifier(100, 8, 0.001, -1.0, 0.05)
        with pytest.raises(ValueError):
            bound_classifier(100, 8, 0.001, 1.0, -0.05)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.0, 0.0])
    def test_alpha_not_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            bound_classifier(100, 8, 0.001, alpha, 0.05)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-200, 1e200, 1e300])
    def test_extreme_alpha_stays_in_unit_interval(self, alpha):
        """alpha**2 overflows at 1e200 and underflows to a zero divisor at
        1e-200; the bound must saturate to 0 or 1 instead of raising."""
        assert 0.0 <= bound_classifier(100, 8, 0.001, alpha, 0.05) <= 1.0


class TestExpectedValueAndWelfareBounds:
    def test_expected_value_positive_and_shrinking(self):
        a = bound_expected_value(1000, 8, 7.0, 1000.0)
        b = bound_expected_value(100_000, 8, 7.0, 1000.0)
        assert a > b > 0

    def test_welfare_terms(self):
        v = bound_welfare(0.001, 10_000, 8)
        lead = 40 * 8 * math.log(8) * (8 + math.log(1000)) / 100
        assert v > lead

    def test_welfare_vanishes_large_n_samples(self):
        assert bound_welfare(0.5, 10**16, 8) < 1e-4


class TestNormalizedTableBound:
    def test_design1_first_row(self):
        assert normalized_table_bound(1, 4, 0.001) == pytest.approx(5.4221, abs=5e-4)

    def test_designs_2_and_3_constant(self):
        assert normalized_table_bound(2, 32, 0.001) == pytest.approx(9.2103, abs=5e-4)
        assert normalized_table_bound(3, 256, 0.001) == pytest.approx(9.2103, abs=5e-4)

    def test_design1_published_column(self):
        published = {4: 5.4221, 8: 4.6957, 16: 4.6166, 32: 4.5622, 64: 4.2406,
                     128: 3.7786, 256: 3.2644, 512: 2.7543}
        for n, want in published.items():
            assert normalized_table_bound(1, n, 0.001) == pytest.approx(want, abs=5e-4)

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            normalized_table_bound(4, 8, 0.001)

    def test_eps_range_ends(self):
        """log(1/eps) is taken as a difference, finite at the smallest
        subnormal eps, and +0.0 rather than -0.0 at eps = 1."""
        for design in (1, 2, 3):
            assert math.isfinite(normalized_table_bound(design, 4, 5e-324))
        assert math.copysign(1.0, normalized_table_bound(2, 4, 1.0)) == 1.0


@pytest.mark.parametrize("limit, call", [
    ("N", lambda: SourceGrid("allpay", uniform_stair(4), 0)),
    ("N", lambda: SourceGrid("allpay", uniform_stair(4), -1)),
    ("N", lambda: bound_ideal_ab(0.5, 0, 1.0)),
    ("N", lambda: bound_mixture(0.5, 0, 4, 1.0)),
    ("N", lambda: bound_universal(0.5, 0, 4)),
    ("N", lambda: bound_welfare(0.5, 0, 4)),
    ("N", lambda: bound_expected_value(0, 4, 1.0, 1.0)),
    ("n", lambda: bound_classifier(100, 1, 1.0, 1.0, 0.1)),
    ("n", lambda: bound_expected_value(100, 0, 1.0, 1.0)),
    ("n", lambda: normalized_table_bound(1, 0, 0.001)),
], ids=["SourceGrid_N0", "SourceGrid_N-1", "ideal_ab", "mixture", "universal", "welfare",
        "expected_value_N0", "classifier_n1", "expected_value_n0", "normalized_table_n0"])
def test_sample_size_and_agent_count_checked(limit, call):
    """N and n fail with the message of the shared table of input limits,
    not a ZeroDivisionError, a math domain error or a numpy warning."""
    with pytest.raises(ValueError, match=re.escape(LIMITS[limit][1])):
        call()
