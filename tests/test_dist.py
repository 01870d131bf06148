import numpy as np
import pytest

from auctionab.alloc import MultiUnit, Position, PositionWeights, marginal_weights, uniform_stair
from auctionab.dist import (
    Beta22,
    QuantileGrid,
    TabulatedQuantile,
    Uniform01,
    expected_value,
    make_distribution,
    order_statistic_means,
    order_statistic_stats,
    true_revenue,
    true_revenue_alt,
    true_welfare,
)

GRID = QuantileGrid(10_000)


class TestQuantileGrid:
    def test_endpoints_and_spacing(self):
        g = QuantileGrid(4)
        np.testing.assert_allclose(g.q, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            QuantileGrid(0)


class TestUniform01:
    def test_identity_quantile(self):
        q = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(Uniform01().v(q), q)

    def test_revenue_boundary_zero(self):
        d = Uniform01()
        assert d.revenue(0.0) == 0.0
        assert d.revenue(1.0) == 0.0
        assert d.revenue(0.5) == pytest.approx(0.25)


class TestBeta22:
    def test_cdf_inversion_identity(self):
        rng = np.random.default_rng(0)
        v = rng.random(1000)
        d = Beta22()
        np.testing.assert_allclose(d.v(d.cdf(v)), v, atol=1e-10)

    def test_median_is_half(self):
        assert Beta22().v(0.5) == pytest.approx(0.5, abs=1e-10)

    def test_vprime_matches_numeric(self):
        d = Beta22()
        q = np.linspace(0.1, 0.9, 3001)
        num = np.gradient(d.v(q), q)
        np.testing.assert_allclose(d.vprime(q), num, rtol=1e-3)

    def test_mean_is_half(self):
        assert expected_value(Beta22(), GRID) == pytest.approx(0.5, abs=1e-4)

    def test_quantile_residual_endpoints_and_monotone(self):
        d = Beta22()
        q = np.concatenate([np.linspace(0.0, 1.0, 100_001), np.random.default_rng(1).random(10_000)])
        v = d.v(q)
        assert np.max(np.abs(d.cdf(v) - q)) <= 1e-15
        assert d.v(0.0) == 0.0 and d.v(1.0) == 1.0
        assert np.all(np.diff(d.v(np.sort(q))) >= 0.0)


class TestTabulatedQuantile:
    def test_constant_distribution(self):
        d = TabulatedQuantile([0.0, 1.0], [0.7, 0.7])
        assert d.v(0.3) == pytest.approx(0.7)
        assert expected_value(d, GRID) == pytest.approx(0.7)

    def test_decreasing_values_rejected(self):
        with pytest.raises(ValueError):
            TabulatedQuantile([0.0, 0.5, 1.0], [0.5, 0.4, 0.6])

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "dist.csv"
        p.write_text("q,v\n0,0\n0.5,0.4\n1,1\n")
        d = TabulatedQuantile.from_csv(p)
        assert d.v(0.5) == pytest.approx(0.4)


class TestMakeDistribution:
    def test_names(self):
        assert isinstance(make_distribution("uniform"), Uniform01)
        assert isinstance(make_distribution("beta22"), Beta22)
        with pytest.raises(ValueError):
            make_distribution("cauchy")


class TestTrueRevenue:
    def test_uniform_two_bidder_sixth(self):
        assert true_revenue(Uniform01(), MultiUnit(1, 2), GRID) == pytest.approx(1 / 6, abs=1e-6)

    def test_two_quadrature_forms_agree(self):
        for d in (Uniform01(), Beta22()):
            for rule in (MultiUnit(1, 5), MultiUnit(3, 5), uniform_stair(8)):
                a = true_revenue(d, rule, GRID)
                b = true_revenue_alt(d, rule, GRID)
                assert abs(a - b) <= 1e-4

    def test_revenue_equivalence_decomposition(self):
        d = Beta22()
        w = PositionWeights([0.9, 0.7, 0.4, 0.1])
        wbar = marginal_weights(w).wbar
        direct = true_revenue(d, Position(w), GRID)
        parts = sum(wbar[k] * true_revenue(d, MultiUnit(k, 4), GRID) for k in range(1, 5))
        assert direct == pytest.approx(parts, abs=1e-6)


class TestOrderStatistics:
    def test_uniform_n2(self):
        means = order_statistic_means(Uniform01(), 2, trials=100_000, seed=1)
        np.testing.assert_allclose(means, [2 / 3, 1 / 3], atol=3e-3)

    def test_uniform_n3(self):
        means = order_statistic_means(Uniform01(), 3, trials=100_000, seed=1)
        np.testing.assert_allclose(means, [3 / 4, 2 / 4, 1 / 4], atol=3e-3)

    def test_constant_distribution(self):
        d = TabulatedQuantile([0.0, 1.0], [0.7, 0.7])
        means = order_statistic_means(d, 4, trials=10_000, seed=0)
        np.testing.assert_allclose(means, 0.7, atol=1e-12)

    def test_deterministic_given_seed(self):
        a = order_statistic_means(Beta22(), 5, trials=20_000, seed=9)
        b = order_statistic_means(Beta22(), 5, trials=20_000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_revenue_order_statistic_identity(self):
        # n * P_k = k * E[(k+1)-th highest value], for k < n
        d = Beta22()
        for n in (3, 5, 6):
            means, ses = order_statistic_stats(d, n, trials=200_000, seed=4)
            for k in range(1, n):
                lhs = n * true_revenue(d, MultiUnit(k, n), GRID)
                rhs = k * means[k]  # index k = (k+1)-th highest
                assert abs(lhs - rhs) <= 3 * k * ses[k] + 1e-4


class TestTrueWelfare:
    def test_serve_everyone_equals_mean_value(self):
        w = PositionWeights([1.0, 1.0, 1.0])
        sw, se = true_welfare(Uniform01(), w, trials=100_000, seed=2)
        assert sw == pytest.approx(0.5, abs=3 * se + 1e-3)

    def test_one_unit_two_uniform_agents(self):
        w = PositionWeights([1.0, 0.0])
        sw, se = true_welfare(Uniform01(), w, trials=200_000, seed=2)
        assert sw == pytest.approx(1 / 3, abs=3 * se + 1e-3)
