import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from auctionab.alloc import (
    MarginalWeights,
    Mixture,
    MultiUnit,
    Position,
    PositionWeights,
    marginal_weights,
    max_slope,
    mixture,
    multi_unit_alloc,
    multi_unit_alloc_deriv,
    parse_rule,
    uniform_stair,
    uniform_stair_weights,
    universal_b,
    weights_from_marginals,
)
from auctionab.alloc import _binom_pmf


def direct_alloc(k, n, q):
    from math import comb

    return sum(comb(n - 1, i) * q ** (n - 1 - i) * (1 - q) ** i for i in range(k))


class TestMultiUnitAlloc:
    def test_matches_direct_binomial_sum(self):
        q = np.linspace(0, 1, 101)
        for n in (2, 3, 5, 8, 13):
            for k in range(1, n + 1):
                expect = np.array([direct_alloc(k, n, t) for t in q])
                np.testing.assert_allclose(multi_unit_alloc(k, n, q), expect, atol=1e-12)

    def test_one_unit_is_power_rule(self):
        q = np.linspace(0, 1, 50)
        np.testing.assert_allclose(multi_unit_alloc(1, 6, q), q**5, atol=1e-13)

    def test_serve_all_is_constant_one(self):
        q = np.linspace(0, 1, 50)
        np.testing.assert_array_equal(multi_unit_alloc(4, 4, q), np.ones(50))

    def test_monotone_and_bounded(self):
        q = np.linspace(0, 1, 400)
        for n, k in ((8, 3), (32, 16), (1024, 100)):
            x = multi_unit_alloc(k, n, q)
            assert np.all(np.diff(x) >= -1e-12)
            assert x[0] == 0.0 if k < n else x[0] == 1.0
            assert abs(x[-1] - 1.0) < 1e-12

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            multi_unit_alloc(0, 4, 0.5)
        with pytest.raises(ValueError):
            multi_unit_alloc(5, 4, 0.5)

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            multi_unit_alloc(1, 4, 1.5)


class TestMultiUnitDerivatives:
    def test_deriv_matches_numeric_gradient(self):
        q = np.linspace(0, 1, 4001)
        for n, k in ((2, 1), (5, 2), (8, 7), (16, 9)):
            num = np.gradient(multi_unit_alloc(k, n, q), q)
            ana = multi_unit_alloc_deriv(k, n, q)
            np.testing.assert_allclose(ana[5:-5], num[5:-5], atol=2e-3, rtol=1e-3)

    def test_large_n_no_overflow(self):
        q = np.linspace(0, 1, 201)
        for k in (1, 2, 512, 1023):
            d = multi_unit_alloc_deriv(k, 1024, q)
            assert np.all(np.isfinite(d))
            assert np.all(d >= 0)

    def test_deriv_integrates_to_one(self):
        q = np.linspace(0, 1, 20001)
        for n, k in ((8, 3), (64, 20), (1024, 7)):
            total = np.trapezoid(multi_unit_alloc_deriv(k, n, q), q)
            assert abs(total - 1.0) < 1e-6

    def test_serve_all_derivatives_vanish(self):
        q = np.linspace(0, 1, 11)
        assert np.all(multi_unit_alloc_deriv(3, 3, q) == 0)

    def test_pmf_endpoints_exact_without_warnings(self):
        # Bin(m, 1-q) is m at q = 0 and 0 at q = 1: 0**0 = 1, every other pmf 0
        q = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (0, 1, 6, 30, 254, 1022):
                for j in sorted({0, 1, m // 2, m - 1, m} - {-1}):
                    assert _binom_pmf(m, j, q).tolist() == [j == m, j == 0]
                    # a scaled coefficient is exp(log(scale)), within an ulp
                    got = _binom_pmf(m, j, q, m + 1) / (m + 1)
                    assert got[0] == pytest.approx(float(j == m), abs=0, rel=1e-15)
                    assert got[1] == pytest.approx(float(j == 0), abs=0, rel=1e-15)


class TestPositionWeights:
    def test_valid_construction(self):
        w = PositionWeights([1.0, 0.5, 0.0])
        assert w.n == 3
        np.testing.assert_array_equal(w.w, [1.0, 0.5, 0.0])

    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            PositionWeights([0.5, 1.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PositionWeights([1.5, 0.5])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            PositionWeights([1.0])


class TestMarginalWeights:
    def test_two_agent_example(self):
        wbar = marginal_weights(PositionWeights([1.0, 0.5])).wbar
        np.testing.assert_allclose(wbar, [0.0, 0.5, 0.5])

    def test_sum_to_one_enforced(self):
        with pytest.raises(ValueError):
            MarginalWeights(2, np.array([0.5, 0.2, 0.2]))

    def test_round_trip_exact(self):
        for w in ([1.0, 0.5, 0.0], [0.9, 0.9, 0.3, 0.1], list(uniform_stair_weights(7).w)):
            pw = PositionWeights(w)
            back = weights_from_marginals(marginal_weights(pw))
            np.testing.assert_array_almost_equal(back.w, pw.w, decimal=14)


class TestPositionRule:
    def test_uniform_stair_is_identity(self):
        q = np.linspace(0, 1, 101)
        for n in (2, 5, 32):
            np.testing.assert_allclose(uniform_stair(n).x(q), q, atol=1e-10)
            np.testing.assert_allclose(uniform_stair(n).xprime(q), 1.0, atol=1e-10)

    def test_position_is_marginal_mixture_of_multiunits(self):
        q = np.linspace(0, 1, 101)
        w = PositionWeights([0.9, 0.6, 0.6, 0.1])
        rule = Position(w)
        wbar = rule.marginals.wbar
        expect = sum(wbar[k] * multi_unit_alloc(k, 4, q) for k in range(1, 5))
        np.testing.assert_allclose(rule.x(q), expect, atol=1e-12)

    def test_full_service_weights(self):
        q = np.linspace(0, 1, 11)
        rule = Position(PositionWeights([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(rule.x(q), 1.0)

    def test_never_serve_weights(self):
        q = np.linspace(0, 1, 11)
        rule = Position(PositionWeights([0.0, 0.0]))
        np.testing.assert_allclose(rule.x(q), 0.0)


class TestUniversalB:
    def test_n4_weights(self):
        np.testing.assert_allclose(universal_b(4).w, [1.0, 0.5, 0.5, 0.0])

    def test_n4_marginals(self):
        wbar = marginal_weights(universal_b(4)).wbar
        np.testing.assert_allclose(wbar, [0.0, 0.5, 0.0, 0.5, 0.0])

    def test_n3_boundary(self):
        np.testing.assert_allclose(universal_b(3).w, [1.0, 0.5, 0.0])

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            universal_b(2)

    def test_marginals_mass_on_one_and_n_minus_one(self):
        for n in (3, 8, 17):
            wbar = marginal_weights(universal_b(n)).wbar
            assert wbar[1] == pytest.approx(0.5)
            assert wbar[n - 1] == pytest.approx(0.5 if n > 3 else wbar[n - 1])
            assert wbar.sum() == pytest.approx(1.0)


class TestMixture:
    def test_convex_combination_pointwise(self):
        q = np.linspace(0, 1, 101)
        a, b = MultiUnit(1, 8), uniform_stair(8)
        c = mixture(a, b, 0.25)
        np.testing.assert_allclose(c.x(q), 0.75 * a.x(q) + 0.25 * b.x(q), atol=1e-14)
        np.testing.assert_allclose(c.xprime(q), 0.75 * a.xprime(q) + 0.25 * b.xprime(q), atol=1e-12)

    def test_agent_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mixture(MultiUnit(1, 4), MultiUnit(1, 5), 0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Mixture(((0.5, MultiUnit(1, 4)), (0.4, MultiUnit(2, 4))))


class TestMaxSlope:
    def test_uniform_stair_slope_one(self):
        assert max_slope(uniform_stair(16)) == pytest.approx(1.0, abs=1e-9)

    def test_one_unit_slope_n_minus_one(self):
        # x'(q) = (n-1) q^{n-2} peaks at q=1
        for n in (2, 8, 64):
            assert max_slope(MultiUnit(1, n)) == pytest.approx(n - 1, rel=1e-9)

    def test_analytic_candidate_beats_coarse_grid(self):
        # sharp interior peak that a coarse grid would miss
        rule = MultiUnit(2, 1024)
        coarse = float(np.max(rule.xprime(np.linspace(0, 1, 101))))
        assert max_slope(rule, grid_size=101) >= coarse

    def test_bounded_by_n(self):
        for n in (2, 3, 8, 32):
            for k in range(1, n + 1):
                assert max_slope(MultiUnit(k, n)) <= n


class TestParseRule:
    def test_presets(self):
        assert parse_rule("one-unit", 8) == MultiUnit(1, 8)
        assert parse_rule("k-unit:3", 8) == MultiUnit(3, 8)
        assert isinstance(parse_rule("uniform-stair", 8), Position)
        assert isinstance(parse_rule("universal-b", 8), Position)

    def test_weight_list(self):
        rule = parse_rule("1,0.5,0", 3)
        np.testing.assert_allclose(rule.weights.w, [1.0, 0.5, 0.0])

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_rule("nonsense", 4)
        with pytest.raises(ValueError):
            parse_rule("1,0.5", 3)


@st.composite
def position_rules(draw):
    """Position rules with n in 2..1024 whose marginal weights over 1..n-1
    repeat segments of equal values (stair segments in w, including zeros)."""
    n = draw(st.integers(2, 1024))
    value = st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0)
    segs = draw(st.lists(st.tuples(st.integers(1, 64), value), min_size=1, max_size=8))
    inner = np.resize(np.concatenate([np.full(length, v) for length, v in segs]), n - 1)
    wbar = np.concatenate([[draw(st.floats(0.0, 1.0))], inner, [draw(st.floats(0.0, 1.0))]])
    if wbar.sum() == 0.0:
        wbar[-1] = 1.0
    wbar = wbar / wbar.sum()
    w = np.minimum(np.cumsum(wbar[::-1])[::-1][1:], 1.0)  # w_k = sum_{j>=k} wbar_j
    return Position(PositionWeights(w))


def multi_unit_int(k, n, q):
    """int_0^q x_k = q I_q(n-k, k) - (n-k)/n I_q(n-k+1, k) (DLMF 8.17)."""
    if k == n:
        return q
    return q * special.betainc(n - k, k, q) - (n - k) / n * special.betainc(n - k + 1, k, q)


def per_term(fn, rule, q):
    wbar = rule.marginals.wbar
    terms = (wbar[k] * fn(k, rule.n, q) for k in range(1, rule.n + 1) if wbar[k] != 0.0)
    return sum(terms, np.zeros_like(q))


class TestRunEvaluation:
    """The rule evaluators sum closed forms over runs of equal marginal
    weight; they must agree with the sum over the n multi-unit terms."""

    @settings(max_examples=60, deadline=None)
    @given(position_rules(), st.lists(st.floats(0.0, 1.0), max_size=12))
    def test_matches_per_term_sum(self, rule, extra):
        q = np.array([0.0, 1.0, 1e-6, 1.0 - 1e-6, 0.5] + extra)
        for got, ref in ((rule.x(q), per_term(multi_unit_alloc, rule, q)),
                         (rule.xprime(q), per_term(multi_unit_alloc_deriv, rule, q))):
            sel = np.abs(ref) > 1e-280
            np.testing.assert_allclose(got[sel], ref[sel], rtol=1e-9, atol=0.0)
        # the integral is held to 1e-9 of q x(q) (or 1e-300, below the normal
        # range): that bounds it (x is nondecreasing) and is its change under a
        # relative shift of q.  Its run moments cancel in the far tail of a run
        # in mid-range, where the value itself can be off by 1e-8 relative at
        # n = 1024
        ref = per_term(multi_unit_int, rule, q)
        assert np.all(np.abs(rule.xint(q) - ref) <= 1e-9 * q * rule.x(q) + 1e-300)

    def test_uniform_stair_slope_is_exactly_one(self):
        q = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-300, 1e-6, 1.0 - 1e-6]])
        for n in range(2, 1025):
            rule = uniform_stair(n)
            assert np.all(rule.xprime(q) == 1.0), n
            np.testing.assert_allclose(rule.x(q), q, rtol=0.0, atol=1e-15)

    def test_uniform_stair_integral_is_half_square(self):
        q = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-300, 1e-6, 1.0 - 1e-6]])
        for n in range(2, 1025):
            np.testing.assert_allclose(uniform_stair(n).xint(q), q * q / 2, rtol=0.0, atol=1e-15)

    def test_integral_endpoints(self):
        # int_0^1 x_k = k/n, so int_0^1 x is the mean position weight
        cases = ((MultiUnit(1, 8), 1 / 8), (MultiUnit(8, 8), 1.0),
                 (Position(universal_b(33)), (1.0 + 0.5 * 31) / 33),
                 (mixture(MultiUnit(1023, 1024), MultiUnit(1, 1024), 0.001),
                  0.999 * 1023 / 1024 + 0.001 / 1024))
        for rule, mean_w in cases:
            assert rule.xint(0.0) == 0.0
            assert rule.xint(1.0) == pytest.approx(mean_w, rel=1e-15)
