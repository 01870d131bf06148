"""Monte Carlo experiment runner: the three benchmark designs, mean
absolute deviation tables and the mixture-weight sweep.

Every experiment is deterministic given its seed: trial t uses a fresh
generator seeded with SeedSequence((seed, t)), so results are independent
of execution order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .alloc import AllocationRule, MultiUnit, check, mixture, uniform_stair
from .dist import QuantileGrid, ValueDistribution, make_distribution, true_revenue
from .equil import ALL_PAY, BidCurve, bid_curve
from .estim import SourceGrid, _dot

#: default mixture weight of the treatment arm in the benchmark designs
DEFAULT_EPS = 0.001

def design_rules(design: int, n: int) -> tuple[AllocationRule, AllocationRule]:
    """Incumbent A and treatment B for the three benchmark designs:
    1: A = one-unit, B = uniform-stair;  2: the reverse;
    3: A = (n-1)-unit, B = one-unit."""
    if design == 1:
        return MultiUnit(1, n), uniform_stair(n)
    if design == 2:
        return uniform_stair(n), MultiUnit(1, n)
    if design == 3:
        return MultiUnit(n - 1, n), MultiUnit(1, n)
    raise ValueError(f"unknown design {design} (expected 1, 2, or 3)")


@dataclass(frozen=True)
class ExperimentSpec:
    design: int
    n: int
    N: int
    eps: float = DEFAULT_EPS
    trials: int = 1000
    grid_m: int = 10_000
    dist: str = "beta22"
    format: str = ALL_PAY
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "N", "grid_m", "trials", "eps"):
            check(name, getattr(self, name))

    def rules(self) -> tuple[AllocationRule, AllocationRule]:
        return design_rules(self.design, self.n)

    def distribution(self) -> ValueDistribution:
        return make_distribution(self.dist)


@dataclass(frozen=True)
class MadResult:
    """Mean absolute deviation of the revenue estimate over the trials.

    raw_mad is at auction level (n times the per-agent deviation) so the
    published normalization sqrt(N)/n applies to it directly; truth and
    mean_estimate stay per-agent, matching the rest of the library.
    normalized_mad is raw_mad times sqrt(N)/n, calibrated against the
    published 0.008-0.011 band of the design-2 n=1024 column;
    norm_sqrt_N_over_n_alt keeps the other reading, raw_mad times sqrt(N/n),
    so the choice stays auditable.
    """

    raw_mad: float
    normalized_mad: float
    mc_rel_error_estimate: float
    norm_sqrt_N_over_n_alt: float = 0.0
    truth: float = 0.0
    mean_estimate: float = 0.0

    def __post_init__(self):
        if self.raw_mad < 0:
            raise ValueError("mean absolute deviation cannot be negative")


def _count_form(curve: BidCurve, N: int) -> bool:
    """Whether trials of N bids from curve take the count form: from 4 (m + 1)
    on.  Below that, sorting the N drawn grid indices is cheaper."""
    return N >= 4 * len(curve.b)


def trial_estimates(curve: BidCurve, x: AllocationRule, ys, N: int, seed: int,
                    trials: int) -> np.ndarray:
    """P_hat of each target in ys over `trials` replicates, one row per
    trial; every target is estimated from the trial's bids, with its kernel
    K on the N + 1 cell edges built once.  Trial t is seeded from (seed, t),
    so row t does not depend on the other trials.

    From N = 4 (m + 1) on (`_count_form`), a trial never builds its
    N bids: they change only where the cumulative grid counts
    C_j = counts_0 + ... + counts_j step from grid bid b_j to b_{j+1}, so
    the estimate sum_i K_i (bid_{i+1} - bid_i) is
    K_0 b_0 + sum_j K[C_j] (b_{j+1} - b_j), with b_{m+1} = 0, in O(m) after
    the draw.  Below that the trial dots the weights K_{i-1} - K_i with its
    sorted bids, curve.draw(N, stream).  Both dots are estim._dot's."""
    out = np.empty((check("trials", trials), len(ys)))
    if _count_form(curve, N):
        Ks = list(map(SourceGrid(curve.format, x, N).kernel, ys))
        b = curve.b
        db = np.diff(b, append=0.0)
        heads = [K[0] * b[0] for K in Ks]
        for t in range(trials):
            C = curve.counts(N, np.random.SeedSequence((seed, t))).cumsum()
            for i, K in enumerate(Ks):
                out[t, i] = heads[i] + _dot(K.take(C), db)
        return out
    ws = list(map(SourceGrid(curve.format, x, N).weights, ys))
    # bare draws: a BidSample would re-check the sorted bids, about 30 us on
    # top of a 140 us trial at N = m = 1e4 (2-CPU Xeon, numpy 2.4)
    for t in range(trials):
        bids = curve.draw(N, np.random.SeedSequence((seed, t)))
        for i, w in enumerate(ws):
            out[t, i] = _dot(w, bids)
    return out


def _cell(spec: ExperimentSpec) -> tuple[float, np.ndarray]:
    """Build the composite mechanism and its equilibrium bid curve: the
    target's true revenue and its estimates P_hat over the trials."""
    a, b = spec.rules()
    c = mixture(a, b, spec.eps)
    dist = spec.distribution()
    grid = QuantileGrid(spec.grid_m)
    curve = bid_curve(spec.format, dist, c, grid)
    truth = true_revenue(dist, b, grid)
    return truth, trial_estimates(curve, c, (b,), spec.N, spec.seed, spec.trials)[:, 0]


def run_design(spec: ExperimentSpec) -> MadResult:
    """Average |P_hat - P| over the trials of one cell."""
    truth, est = _cell(spec)
    # deviations at auction level: n agents, each contributing the per-agent
    # revenue, so the published normalization sqrt(N)/n applies directly
    abs_err = spec.n * np.abs(est - truth)
    raw = float(abs_err.mean())
    se = float(abs_err.std(ddof=1) / np.sqrt(spec.trials)) if spec.trials > 1 else float("nan")
    f_cap = np.sqrt(spec.N) / spec.n   # sqrt(N)/n, the caption reading
    f_alt = np.sqrt(spec.N / spec.n)   # sqrt(N/n), the body-text reading
    return MadResult(
        raw_mad=raw,
        normalized_mad=raw * f_cap,
        mc_rel_error_estimate=se / raw if raw > 0 else 0.0,
        norm_sqrt_N_over_n_alt=raw * f_alt,
        truth=truth,
        mean_estimate=float(est.mean()),
    )


def epsilon_sweep(spec: ExperimentSpec, eps_list) -> list[tuple[float, float]]:
    """Relative median absolute error, median |P_hat - P| / P, for each
    mixture weight."""
    rows = []
    for eps in eps_list:
        truth, est = _cell(replace(spec, eps=float(eps)))
        if truth == 0:
            raise ValueError(f"the true revenue is 0 on a grid of {spec.grid_m} cells, "
                             "so the relative error is undefined")
        rows.append((float(eps), float(np.median(np.abs(est - truth)) / truth)))
    return rows


TABLE_NS = [2**i for i in range(2, 11)]
TABLE_SAMPLE_SIZES = [2, 10, 100, 1000, 10_000, 100_000]


def full_table(design: int, seed: int, eps: float = DEFAULT_EPS, trials: int = 1000,
               ns=None, sample_sizes=None):
    """The full MAD grid for one design (rows: n, columns: N), yielding
    (spec, MadResult) in row-major order."""
    for n in ns or TABLE_NS:
        for N in sample_sizes or TABLE_SAMPLE_SIZES:
            spec = ExperimentSpec(design=design, n=n, N=N, eps=eps, trials=trials, seed=seed)
            yield spec, run_design(spec)
