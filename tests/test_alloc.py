import itertools
import pickle
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from auctionab.alloc import (
    RUN_RTOL,
    AllocationRule,
    Mixture,
    MultiUnit,
    max_slope,
    mixture,
    parse_rule,
    uniform_stair,
    uniform_stair_weights,
    universal_b,
)
from auctionab.alloc import _as_array, _between, _binom_pmf, _ibeta


def multi_unit_alloc(k: int, n: int, q):
    """Probability that an agent at quantile q is served by the
    highest-k-bids-win auction with n agents.

    x_k(q) = sum_{i=0}^{k-1} C(n-1, i) q^{n-1-i} (1-q)^i, evaluated as the
    regularized incomplete beta function I_q(n-k, k), which keeps its
    relative accuracy at large n and in the far tail.
    """
    if not (1 <= k <= n):
        raise ValueError(f"unit count k={k} outside 1..{n}")
    q = _as_array(q)
    if k == n:
        return np.ones_like(q)
    # sum equals P(Binom(n-1, 1-q) <= k-1) = I_q(n-k, k)
    return _ibeta(n - k, k, q)


def multi_unit_alloc_deriv(k: int, n: int, q):
    """Derivative of multi_unit_alloc with respect to q:
    x_k'(q) = (n-1) C(n-2, k-1) q^{n-1-k} (1-q)^{k-1}, with 0**0 = 1 at the
    endpoints so the derivative is defined on the closed interval.
    """
    if not (1 <= k <= n):
        raise ValueError(f"unit count k={k} outside 1..{n}")
    return (n - 1) * _binom_pmf(n - 2, k - 1, _as_array(q))


#: (x_k, x_k') as the per-term reference above, the one every rule
#: evaluator is checked against, and as the rule MultiUnit(k, n) evaluates
#: over its runs; the multi-unit checks below hold for both
MULTI_UNIT_FORMS = (
    (multi_unit_alloc, multi_unit_alloc_deriv),
    (lambda k, n, q: MultiUnit(k, n).x(q), lambda k, n, q: MultiUnit(k, n).xprime(q)),
)


def marginals(rule):
    """The rule's marginal weights over 0..n units: 1 - w_1, w_k - w_{k+1}, w_n."""
    w = rule.w
    return np.concatenate(([1.0 - w[0]], w[:-1] - w[1:], [w[-1]]))


def direct_alloc(k, n, q):
    return sum(comb(n - 1, i) * q ** (n - 1 - i) * (1 - q) ** i for i in range(k))


class TestMultiUnitAlloc:
    def test_matches_direct_binomial_sum(self):
        q = np.linspace(0, 1, 101)
        for n in (2, 3, 5, 8, 13):
            for k in range(1, n + 1):
                expect = np.array([direct_alloc(k, n, t) for t in q])
                for alloc, _ in MULTI_UNIT_FORMS:
                    np.testing.assert_allclose(alloc(k, n, q), expect, atol=1e-12)

    def test_one_unit_is_power_rule(self):
        q = np.linspace(0, 1, 50)
        for alloc, _ in MULTI_UNIT_FORMS:
            np.testing.assert_allclose(alloc(1, 6, q), q**5, atol=1e-13)

    def test_serve_all_is_constant_one(self):
        q = np.linspace(0, 1, 50)
        for alloc, _ in MULTI_UNIT_FORMS:
            np.testing.assert_array_equal(alloc(4, 4, q), np.ones(50))

    def test_monotone_and_bounded(self):
        q = np.linspace(0, 1, 400)
        for n, k in ((8, 3), (32, 16), (1024, 100)):
            for alloc, _ in MULTI_UNIT_FORMS:
                x = alloc(k, n, q)
                assert np.all(np.diff(x) >= -1e-12)
                assert x[0] == 0.0 if k < n else x[0] == 1.0
                assert abs(x[-1] - 1.0) < 1e-12

    def test_invalid_k_raises(self):
        for alloc, _ in MULTI_UNIT_FORMS:
            with pytest.raises(ValueError):
                alloc(0, 4, 0.5)
            with pytest.raises(ValueError):
                alloc(5, 4, 0.5)

    def test_quantile_out_of_range_raises(self):
        for alloc, _ in MULTI_UNIT_FORMS:
            with pytest.raises(ValueError):
                alloc(1, 4, 1.5)


class TestMultiUnitDerivatives:
    def test_deriv_matches_numeric_gradient(self):
        q = np.linspace(0, 1, 4001)
        for n, k in ((2, 1), (5, 2), (8, 7), (16, 9)):
            for alloc, deriv in MULTI_UNIT_FORMS:
                num = np.gradient(alloc(k, n, q), q)
                ana = deriv(k, n, q)
                np.testing.assert_allclose(ana[5:-5], num[5:-5], atol=2e-3, rtol=1e-3)

    def test_large_n_no_overflow(self):
        q = np.linspace(0, 1, 201)
        for k in (1, 2, 512, 1023):
            for _, deriv in MULTI_UNIT_FORMS:
                d = deriv(k, 1024, q)
                assert np.all(np.isfinite(d))
                assert np.all(d >= 0)

    def test_deriv_integrates_to_one(self):
        q = np.linspace(0, 1, 20001)
        for n, k in ((8, 3), (64, 20), (1024, 7)):
            for _, deriv in MULTI_UNIT_FORMS:
                total = np.trapezoid(deriv(k, n, q), q)
                assert abs(total - 1.0) < 1e-6

    def test_serve_all_derivatives_vanish(self):
        q = np.linspace(0, 1, 11)
        for _, deriv in MULTI_UNIT_FORMS:
            assert np.all(deriv(3, 3, q) == 0)

    def test_pmf_endpoints_exact_without_warnings(self):
        # Bin(m, 1-q) is m at q = 0 and 0 at q = 1: 0**0 = 1, every other pmf 0
        q = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (0, 1, 6, 30, 254, 1022):
                for j in sorted({0, 1, m // 2, m - 1, m} - {-1}):
                    assert _binom_pmf(m, j, q).tolist() == [j == m, j == 0]


IBETA_PARAMS = (1, 2, 3, 5, 16, 100, 511, 1023, 2048)
IBETA_X = np.unique(np.concatenate([
    np.linspace(0.0, 1.0, 2001), np.geomspace(1e-300, 1e-3, 300),
    1.0 - np.geomspace(1e-12, 1e-3, 100), [1e-300, 1e-12, 1.0 - 1e-12]]))


class TestIncompleteBeta:
    """_ibeta against scipy's betainc, which the tests alone load."""

    @pytest.mark.parametrize("a, b", itertools.product(IBETA_PARAMS, IBETA_PARAMS))
    def test_matches_scipy(self, a, b):
        # scipy's own value is off by up to 3.7e-8 relative near 1e-280 at
        # (2048, 16) (see the pinned values below), so the relative check stops
        # at 1e-270 and an absolute one of 1e-12 times that takes over
        ref = special.betainc(a, b, IBETA_X)
        got = _ibeta(a, b, IBETA_X)
        big = ref >= 1e-270
        assert np.all(np.abs(got[big] - ref[big]) <= 1e-12 * ref[big])
        assert np.all(np.abs(got[~big] - ref[~big]) <= 1e-282)

    @pytest.mark.parametrize("a, b, x, value", [
        # 40-digit values from mpmath.betainc(a, b, 0, x, regularized=True)
        (2048, 16, 0.7065, 3.822808756923726e-280),
        (1023, 16, 0.4995, 1.5190872893314698e-280),
        (511, 3, 0.2785, 1.3840818912475531e-279),
        (16, 16, 1.2030053494232995e-15, 5.783403590963433e-231),
    ])
    def test_far_tail_keeps_relative_accuracy(self, a, b, x, value):
        assert _ibeta(a, b, np.array([x]))[0] == pytest.approx(value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a, b", itertools.product(IBETA_PARAMS, IBETA_PARAMS))
    def test_exact_at_the_ends(self, a, b):
        got = _ibeta(a, b, np.array([0.0, 1.0]))
        assert got.tolist() == [0.0, 1.0] and not np.signbit(got).any()

    def test_scalar_and_shape(self):
        for a, b in ((1, 5), (5, 1), (5, 2), (2, 5), (5, 5)):
            assert np.shape(_ibeta(a, b, np.array(0.3))) == ()
            assert _ibeta(a, b, np.full((2, 3), 0.3)).shape == (2, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.integers(-2, 42), st.integers(-2, 42),
           st.lists(st.floats(0.0, 1.0) | st.sampled_from([1e-300, 1e-12, 1.0 - 1e-12]),
                    min_size=1, max_size=6))
    def test_between_is_the_pmf_sum(self, m, a, b, qs):
        """P(a <= Bin(m, 1-q) <= b), summed exactly in rationals."""
        q = np.array(qs)
        got = _between(m, a, b, q)
        for g, t in zip(got, qs):
            qf = Fraction(t)
            exact = float(sum(comb(m, j) * (1 - qf) ** j * qf ** (m - j)
                              for j in range(max(a, 0), min(b, m) + 1)))
            assert abs(g - exact) <= 1e-12 * exact + 1e-300, (m, a, b, t)


def _exact_ibeta(a: int, b: int, x: float) -> float:
    """I_x(a, b) = sum_{j>=a} C(m, j) x^j (1-x)^(m-j), m = a+b-1, exactly:
    with x = p/d, d^m less the sum of C(m, j) p^j (d-p)^(m-j) over j < a,
    over d^m (in integers, so the short side of the sum serves)."""
    m, (p, d) = a + b - 1, float(x).as_integer_ratio()
    low = sum(comb(m, j) * p ** j * (d - p) ** (m - j) for j in range(a))
    return float(Fraction(d ** m - low, d ** m))


class TestTailSum:
    """_ibeta wherever it sums the pmf terms (both parameters above 2, and
    the far tail of I_x(2, b)), against the exact sum."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 60), st.integers(3, 60), st.data())
    def test_matches_the_exact_sum(self, a, b, data):
        swap = (a + 1) / (a + b + 2)
        x = data.draw(st.floats(0.0, 1.0)
                      | st.floats(-1e-3, 1e-3).map(lambda d: swap * (1.0 + d))
                      | st.floats(-30.0, -1.0).map(lambda e: 10.0 ** e))
        got, exact = _ibeta(a, b, np.array([x]))[0], _exact_ibeta(a, b, x)
        assert abs(got - exact) <= 1e-12 * exact + 1e-300, (a, b, x)

    @pytest.mark.parametrize("b", [6, 7, 30, 31, 1022])
    def test_far_tail_edge_of_ibeta_2_b(self, b):
        # b x = 0.125 (1 - x) at x = 0.125 / (b + 0.125); the sum takes the
        # points below, the closed form 1 - (1-x)^b (1 + b x) those above
        edge = 0.125 / (b + 0.125)
        xs = [edge]
        for _ in range(3):
            xs = [np.nextafter(xs[0], 0.0)] + xs + [np.nextafter(xs[-1], 1.0)]
        got = _ibeta(2, b, np.array(xs))
        for g, x in zip(got, xs):
            exact = _exact_ibeta(2, b, x)
            assert abs(g - exact) <= 1e-12 * exact, (b, x)

    @pytest.mark.parametrize("a, b", [(2, 30), (3, 30), (16, 16), (511, 512)])
    def test_a_point_does_not_depend_on_the_others(self, a, b):
        # points that finish early stay in the arrays until half are done
        x = np.concatenate([np.linspace(0.0, 1.0, 201), np.geomspace(1e-6, 0.003, 50)])
        alone = [_ibeta(a, b, x[i:i + 1])[0] for i in range(len(x))]
        assert _ibeta(a, b, x).tolist() == alone


class TestAllocationRuleWeights:
    """AllocationRule checks its position weights and keeps them read-only."""

    def test_valid_construction(self):
        rule = AllocationRule([1.0, 0.5, 0.0])
        assert rule.n == 3
        np.testing.assert_array_equal(rule.w, [1.0, 0.5, 0.0])

    @pytest.mark.parametrize("w, message", [
        ([0.2, 0.9, 1.5], "lie in"),
        ([1.0, np.nan, 0.0], "lie in"),
        ([1.0, -0.1], "lie in"),
        ([0.2, 0.9, 0.1], "nonincreasing"),
        ([1.0], "at least 2"),
        ([[1.0, 0.5]], "at least 2"),
    ])
    def test_bad_weights_rejected(self, w, message):
        with pytest.raises(ValueError, match=message):
            AllocationRule(np.array(w))

    def test_rounding_noise_accepted(self):
        # a mixture's weights may rise by an ulp; the check allows 1e-12
        rule = AllocationRule(np.array([1.0, 0.5 + 1e-13, 0.5, 0.0]))
        assert rule.n == 4

    def test_caller_array_stays_writable(self):
        a = np.array([1.0, 0.5, 0.0])
        rule = AllocationRule(a)
        a[1] = 0.7
        assert rule.w.tolist() == [1.0, 0.5, 0.0] and not rule.w.flags.writeable

    def test_read_only_input_not_copied(self):
        w = MultiUnit(2, 4).w
        assert AllocationRule(w).w is w

    def test_uniform_stair_weights_is_the_stair(self):
        assert uniform_stair_weights(7) == uniform_stair(7)


class TestPositionRule:
    def test_uniform_stair_is_identity(self):
        q = np.linspace(0, 1, 101)
        for n in (2, 5, 32):
            np.testing.assert_allclose(uniform_stair(n).x(q), q, atol=1e-10)
            np.testing.assert_allclose(uniform_stair(n).xprime(q), 1.0, atol=1e-10)

    def test_position_is_marginal_mixture_of_multiunits(self):
        q = np.linspace(0, 1, 101)
        rule = AllocationRule([0.9, 0.6, 0.6, 0.1])
        wbar = marginals(rule)
        expect = sum(wbar[k] * multi_unit_alloc(k, 4, q) for k in range(1, 5))
        np.testing.assert_allclose(rule.x(q), expect, atol=1e-12)

    def test_full_service_weights(self):
        q = np.linspace(0, 1, 11)
        rule = AllocationRule([1.0, 1.0, 1.0])
        np.testing.assert_allclose(rule.x(q), 1.0)

    def test_never_serve_weights(self):
        q = np.linspace(0, 1, 11)
        rule = AllocationRule([0.0, 0.0])
        np.testing.assert_allclose(rule.x(q), 0.0)


class TestUniversalB:
    def test_n4_weights(self):
        np.testing.assert_allclose(universal_b(4).w, [1.0, 0.5, 0.5, 0.0])

    def test_n4_marginals(self):
        wbar = marginals(universal_b(4))
        np.testing.assert_allclose(wbar, [0.0, 0.5, 0.0, 0.5, 0.0])

    def test_n3_boundary(self):
        np.testing.assert_allclose(universal_b(3).w, [1.0, 0.5, 0.0])

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            universal_b(2)

    def test_marginals_mass_on_one_and_n_minus_one(self):
        for n in (3, 8, 17):
            wbar = marginals(universal_b(n))
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

    def test_coefficients_off_by_rounding_never_serve_above_one(self):
        r = Mixture(((0.5 + 1e-10, MultiUnit(1, 4)), (0.5, MultiUnit(1, 4))))
        q = np.linspace(0, 1, 101)
        assert np.all(r.x(q) <= 1.0)
        assert r.x(0.5) <= 0.125 + 1e-15
        np.testing.assert_array_equal(r.w, [1.0, 0.0, 0.0, 0.0])


class TestMaxSlope:
    def test_uniform_stair_slope_one(self):
        assert max_slope(uniform_stair(16)) == pytest.approx(1.0, abs=1e-9)

    def test_one_unit_slope_n_minus_one(self):
        # x'(q) = (n-1) q^{n-2} peaks at q=1
        for n in (2, 8, 64):
            assert max_slope(MultiUnit(1, n)) == pytest.approx(n - 1, rel=1e-9)

    def test_analytic_candidate_beats_coarse_grid(self):
        # sharp interior peak at (n-1-k)/(n-2) that a coarse grid would miss
        rule = MultiUnit(2, 1024)
        coarse = float(np.max(rule.xprime(np.linspace(0, 1, 101))))
        assert max_slope(rule) == float(rule.xprime(1021 / 1022)) > coarse

    def test_bounded_by_n(self):
        for n in (2, 3, 8, 32):
            for k in range(1, n + 1):
                assert max_slope(MultiUnit(k, n)) <= n


class TestParseRule:
    def test_presets(self):
        assert parse_rule("one-unit", 8) == MultiUnit(1, 8)
        assert parse_rule("k-unit:3", 8) == MultiUnit(3, 8)
        assert parse_rule("uniform-stair", 8) == uniform_stair(8)
        assert parse_rule("universal-b", 8) == universal_b(8)

    def test_weight_list(self):
        rule = parse_rule("1,0.5,0", 3)
        np.testing.assert_allclose(rule.w, [1.0, 0.5, 0.0])

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_rule("nonsense", 4)
        with pytest.raises(ValueError):
            parse_rule("1,0.5", 3)


class TestRuleIdentity:
    """A rule is its position-weight vector, whichever constructor built it."""

    def test_equal_weights_equal_rules(self):
        for k, n in ((1, 2), (3, 8), (8, 8)):
            a, b = MultiUnit(k, n), AllocationRule([1.0] * k + [0.0] * (n - k))
            assert a == b and hash(a) == hash(b)
        assert uniform_stair(8) == uniform_stair(8)
        assert hash(uniform_stair(8)) == hash(uniform_stair(8))
        assert mixture(MultiUnit(1, 4), MultiUnit(1, 4), 0.3) == MultiUnit(1, 4)
        assert MultiUnit(1, 4) != MultiUnit(2, 4)
        assert MultiUnit(1, 4) != MultiUnit(1, 5)

    def test_negative_zero_weight(self):
        a = AllocationRule([1.0, 0.0])
        b = AllocationRule([1.0, -0.0])
        assert a == b and hash(a) == hash(b) == hash(MultiUnit(1, 2))

    def test_dict_keys(self):
        table = {MultiUnit(1, 4): "one", uniform_stair(4): "stair"}
        assert table[AllocationRule([1.0, 0.0, 0.0, 0.0])] == "one"
        assert table[parse_rule("uniform-stair", 4)] == "stair"
        assert len({MultiUnit(2, 4), parse_rule("k-unit:2", 4), parse_rule("1,1,0,0", 4)}) == 1

    def test_pickle_round_trip(self):
        rules = (MultiUnit(2, 5), universal_b(5),
                 mixture(MultiUnit(1, 5), uniform_stair(5), 0.25))
        for rule in rules:
            back = pickle.loads(pickle.dumps(rule))
            assert back == rule and back.describe() == rule.describe()
            assert not back.w.flags.writeable

    def test_describe_strings(self):
        assert MultiUnit(3, 8).describe() == "3-unit(n=8)"
        assert universal_b(5).describe() == "position(1,0.5,0.5,0.5,0)"
        nested = mixture(MultiUnit(1, 4), mixture(MultiUnit(2, 4), uniform_stair(4), 0.5), 0.1)
        assert nested.describe() == \
            "0.9*1-unit(n=4)+0.1*0.5*2-unit(n=4)+0.5*position(1,0.666667,0.333333,0)"

    def test_immutable(self):
        for rule in (MultiUnit(1, 4), mixture(MultiUnit(1, 4), uniform_stair(4), 0.5)):
            with pytest.raises(AttributeError):
                rule.w = np.zeros(4)
            with pytest.raises(ValueError):
                rule.w[0] = 0.5


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
    return AllocationRule(w)


def loop_runs(w):
    """The runs found entry by entry: a nonzero marginal weight joins the run
    before it when it is adjacent and within RUN_RTOL of the run's first."""
    wbar = w[:-1] - w[1:]
    runs = []
    for i in np.flatnonzero(wbar):
        if runs and runs[-1][1] == i - 1 and \
                abs(wbar[i] - wbar[runs[-1][0]]) <= RUN_RTOL * abs(wbar[runs[-1][0]]):
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return tuple((int(i0) + 1, int(i1) + 1, float(w[i0] - w[i1 + 1])) for i0, i1 in runs)


@st.composite
def drifting_weights(draw):
    """Weights with n in 2..2048 whose marginals over 1..n-1 come in
    segments, each from a level (zero, subnormal, or in [1e-6, 1]) that
    drifts by up to 3e-13 of itself per step, so runs end partway through."""
    n = draw(st.integers(2, 2048))
    level = st.sampled_from([0.0, 5e-324, 1e-310]) | st.floats(1e-6, 1.0)
    drift = st.sampled_from([0.0, 1e-16]) | st.floats(-3e-13, 3e-13)
    segs = draw(st.lists(st.tuples(st.integers(1, 600), level, drift), min_size=1, max_size=8))
    inner = np.concatenate([v * (1.0 + d * np.arange(length)) for length, v, d in segs])
    wbar = np.append(np.resize(inner, n - 1), draw(st.floats(0.0, 1.0)))
    wbar /= max(wbar.sum(), 1.0)
    return np.minimum(np.cumsum(wbar[::-1])[::-1], 1.0)


@st.composite
def distinct_weights(draw):
    """n in 2..2048 sorted uniform weights, so no two marginals are alike."""
    n = draw(st.integers(2, 2048))
    return np.sort(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n))[::-1]


class TestRunFinder:
    """Construction finds the runs with a few numpy calls per run; they are
    exactly the runs of the entry-by-entry walk, as Python ints and floats."""

    def check(self, rule):
        assert rule._runs == loop_runs(rule.w)
        assert all(tuple(map(type, run)) == (int, int, float) for run in rule._runs)

    @settings(max_examples=100, deadline=None)
    @given(position_rules())
    def test_position_rules(self, rule):
        self.check(rule)

    @settings(max_examples=200, deadline=None)
    @given(drifting_weights() | distinct_weights())
    def test_drifting_and_distinct_marginals(self, w):
        self.check(AllocationRule(w))

    def test_library_rules(self):
        for n in (2, 3, 4, 32, 1024):
            one, stair = MultiUnit(1, n), uniform_stair(n)
            for rule in (one, stair, MultiUnit(n, n), mixture(one, stair, 0.001),
                         mixture(stair, one, 0.001), mixture(MultiUnit(n - 1, n), one, 0.001)):
                self.check(rule)

    def test_uniform_stair_is_one_run(self):
        assert uniform_stair(1024)._runs == ((1, 1023, 1.0),)


def multi_unit_int(k, n, q):
    """int_0^q x_k = q I_q(n-k, k) - (n-k)/n I_q(n-k+1, k) (DLMF 8.17)."""
    if k == n:
        return q
    return q * special.betainc(n - k, k, q) - (n - k) / n * special.betainc(n - k + 1, k, q)


def per_term(fn, rule, q):
    wbar = marginals(rule)
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
                 (universal_b(33), (1.0 + 0.5 * 31) / 33),
                 (mixture(MultiUnit(1023, 1024), MultiUnit(1, 1024), 0.001),
                  0.999 * 1023 / 1024 + 0.001 / 1024))
        for rule, mean_w in cases:
            assert rule.xint(0.0) == 0.0
            assert rule.xint(1.0) == pytest.approx(mean_w, rel=1e-15)
