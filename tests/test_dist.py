import numpy as np
import pytest

from auctionab.alloc import (
    MultiUnit,
    Position,
    PositionWeights,
    marginal_weights,
    uniform_stair,
    uniform_stair_weights,
)
from auctionab.dist import (
    Beta22,
    QuantileGrid,
    TabulatedQuantile,
    Uniform01,
    expected_value,
    grid_values,
    make_distribution,
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

    @pytest.mark.parametrize("text, message", [
        # without the header the first point would be skipped silently
        ("0,0\n0.5,0.4\n1,1\n", "header line 'q,v'"),
        ("", "header line 'q,v'"),
        ("q,v\n0\n1\n", "q,v pairs"),
    ])
    def test_bad_csv_rejected(self, tmp_path, text, message):
        p = tmp_path / "dist.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            TabulatedQuantile.from_csv(p)

    @pytest.mark.parametrize("qs", [[0.5, 1.0], [0.0, 0.5], [0.1, 0.5, 0.9]])
    def test_table_must_span_unit_interval(self, qs):
        with pytest.raises(ValueError, match="q = 0 and end at q = 1"):
            TabulatedQuantile(qs, np.linspace(0.4, 1.0, len(qs)))


class TestMakeDistribution:
    def test_names(self):
        assert isinstance(make_distribution("uniform"), Uniform01)
        assert isinstance(make_distribution("beta22"), Beta22)
        with pytest.raises(ValueError):
            make_distribution("cauchy")


class TestGridValues:
    def test_one_evaluation_per_distribution_and_grid(self, monkeypatch):
        grid_values.cache_clear()
        calls, real = [], Beta22.v
        monkeypatch.setattr(Beta22, "v", lambda self, q: calls.append(np.size(q)) or real(self, q))
        v = grid_values(Beta22(), QuantileGrid(123))
        assert grid_values(make_distribution("beta22"), QuantileGrid(123)) is v
        assert calls == [124]
        assert not v.flags.writeable
        assert v.tobytes() == real(Beta22(), QuantileGrid(123).q).tobytes()

    def test_unparametrized_distributions_compare_by_type(self):
        assert Beta22() == Beta22() and hash(Beta22()) == hash(Beta22())
        assert Uniform01() != Beta22()

    @pytest.mark.parametrize("d", [Uniform01(), Beta22(), TabulatedQuantile([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])])
    def test_oracles_keep_their_bits(self, d):
        """The oracles on the shared values give the bits of evaluating v anew."""
        q, rule = GRID.q, uniform_stair(8)
        assert true_revenue(d, rule, GRID) == float(np.trapezoid(d.revenue(q) * rule.xprime(q), q))
        assert expected_value(d, GRID) == float(np.trapezoid(d.v(q), q))
        w = uniform_stair_weights(8)
        assert true_welfare(d, w, GRID) == float(np.trapezoid(d.v(q) * Position(w).x(q), q))


class TestTrueRevenue:
    def test_uniform_two_bidder_sixth(self):
        assert true_revenue(Uniform01(), MultiUnit(1, 2), GRID) == pytest.approx(1 / 6, abs=1e-6)

    def test_two_quadrature_forms_agree(self):
        for d in (Uniform01(), Beta22()):
            for rule in (MultiUnit(1, 5), MultiUnit(3, 5), uniform_stair(8)):
                a = true_revenue(d, rule, GRID)
                b = true_revenue_alt(d, rule, GRID)
                assert abs(a - b) <= 1e-4

    def test_multi_unit_uniform_closed_form(self):
        # n P_k = k E[(k+1)-th highest of n uniform values] = k (n-k)/(n+1)
        for n in (3, 5, 6):
            for k in range(1, n):
                assert true_revenue(Uniform01(), MultiUnit(k, n), GRID) == pytest.approx(
                    k * (n - k) / (n * (n + 1)), abs=1e-8)

    def test_revenue_equivalence_decomposition(self):
        d = Beta22()
        w = PositionWeights([0.9, 0.7, 0.4, 0.1])
        wbar = marginal_weights(w).wbar
        direct = true_revenue(d, Position(w), GRID)
        parts = sum(wbar[k] * true_revenue(d, MultiUnit(k, 4), GRID) for k in range(1, 5))
        assert direct == pytest.approx(parts, abs=1e-6)


class TestTrueWelfare:
    @pytest.mark.parametrize("n", [8, 256, 1024])
    def test_uniform_stair_beta22_eleven_35ths(self, n):
        # x(q) = q, so the welfare is E[v q] = int_0^1 v (3v^2 - 2v^3) 6v(1-v) dv
        assert true_welfare(Beta22(), uniform_stair_weights(n), GRID) == pytest.approx(11 / 35, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_uniform_order_statistic_means(self, n):
        # the k-th highest of n uniform values has mean (n+1-k)/(n+1)
        w = np.sort(np.random.default_rng(n).random(n))[::-1]
        k = np.arange(1, n + 1)
        want = np.sum(w * (n + 1 - k) / (n + 1)) / n
        assert true_welfare(Uniform01(), PositionWeights(w), GRID) == pytest.approx(want, abs=1e-8)

    def test_serve_everyone_equals_mean_value(self):
        w = PositionWeights([1.0, 1.0, 1.0])
        assert true_welfare(Uniform01(), w, GRID) == pytest.approx(0.5, abs=1e-12)

    def test_one_unit_two_uniform_agents(self):
        w = PositionWeights([1.0, 0.0])
        assert true_welfare(Uniform01(), w, GRID) == pytest.approx(1 / 3, abs=1e-8)
