import os

import numpy as np
import pytest

from auctionab.alloc import MultiUnit, mixture, uniform_stair
from auctionab.equil import FIRST_PRICE, allpay_bid_curve, bid_curve
from auctionab.dist import Beta22, QuantileGrid, grid_values, true_revenue
from auctionab.harness import (
    CSV_HEADER,
    ExperimentSpec,
    MadResult,
    design_rules,
    epsilon_sweep,
    mad_csv_row,
    _worker_count,
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
        curve = allpay_bid_curve(Beta22(), us, grid)
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

    def test_bit_identical_and_worker_independent(self, monkeypatch):
        spec = ExperimentSpec(design=1, n=8, N=400, trials=16, format=FIRST_PRICE, seed=3)
        monkeypatch.setenv("AUCTIONAB_WORKERS", "1")
        first, again = run_design(spec), run_design(spec)
        monkeypatch.setenv("AUCTIONAB_WORKERS", "2")
        assert first == again == run_design(spec)


class TestCsvRow:
    def test_column_count_matches_header(self):
        spec = ExperimentSpec(design=2, n=8, N=200, trials=10, seed=1)
        row = mad_csv_row(spec, run_design(spec), bound=9.2103)
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_bit_identical_between_runs(self):
        spec = ExperimentSpec(design=3, n=8, N=200, trials=10, seed=2)
        a = mad_csv_row(spec, run_design(spec))
        b = mad_csv_row(spec, run_design(spec))
        assert a == b


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


class TestWorkerPool:
    def test_worker_count_does_not_change_results(self, monkeypatch):
        spec = ExperimentSpec(design=2, n=4, N=300, trials=16, seed=8)
        monkeypatch.setenv("AUCTIONAB_WORKERS", "1")
        serial = run_design(spec)
        monkeypatch.setenv("AUCTIONAB_WORKERS", "2")
        parallel = run_design(spec)
        assert serial == parallel

    @pytest.mark.parametrize("value, cpus, expected", [
        (None, 4, 1), ("1", 4, 1), ("3", 4, 3), ("4", 4, 4), ("5000", 4, 4), ("2", 1, 1),
    ])
    def test_worker_count_clamped_to_usable_cpus(self, monkeypatch, value, cpus, expected):
        if value is None:
            monkeypatch.delenv("AUCTIONAB_WORKERS", raising=False)
        else:
            monkeypatch.setenv("AUCTIONAB_WORKERS", value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _worker_count() == expected

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("AUCTIONAB_WORKERS", "64")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count() == 1

    @pytest.mark.parametrize("value", ["abc", "2.5", ""])
    def test_non_integer_worker_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("AUCTIONAB_WORKERS", value)
        with pytest.raises(ValueError) as exc:
            _worker_count()
        assert str(exc.value) == f"AUCTIONAB_WORKERS must be an integer, got {value!r}"


def test_values_evaluated_once_across_cells(monkeypatch):
    """A cell evaluates Beta22.v on its grid once, for the bid curve and the
    oracle together, and the next cell on the same grid not at all."""
    grid_values.cache_clear()
    calls, real = [], Beta22.v
    monkeypatch.setattr(Beta22, "v", lambda self, q: calls.append(np.size(q)) or real(self, q))
    for fmt in ("allpay", FIRST_PRICE):
        run_design(ExperimentSpec(design=1, n=8, N=50, trials=2, grid_m=321, format=fmt))
    assert calls.count(322) == 1
