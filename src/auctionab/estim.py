"""Counterfactual estimators: revenue, expected value, and welfare of a
target auction from bids observed in equilibrium of a different auction.

Each estimate applies a kernel K on the cell edges q = i/N to the sorted
bids b_1..b_N by summation by parts: the sum over i = 0..N of
K_i (b_{i+1} - b_i), with b_0 = b_{N+1} = 0.  Only the edges where the bids
change enter it, so the rules are evaluated there alone.  With source x and
target y, K is Z = (1-q) y'/x' for all-pay revenue, -F for first-price
revenue (F = (1-q) y + int_0^q y - x Z, whose increments integrate -x Z'
exactly over each bid's cell), and y/x' for the all-pay welfare of
position rule y (SourceGrid.welfare_kernel), which for the rule that serves
every agent, y = 1, is the expected value.  Gathered per bid, the sum is
the weight form sum_i (K_{i-1} - K_i) b_i that the Monte Carlo trials use;
where 1/x' spans many decades that form cancels to rounding noise on tied
bids.

DegenerateSourceError is raised only at an edge the estimate uses, where x'
vanishes and the kernel's numerator does not, so a source that is flat only
where the bids tie estimates without error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .alloc import AllocationRule, MultiUnit, Position, PositionWeights
from .equil import ALL_PAY, FIRST_PRICE, BidSample

#: derivatives at or below this are treated as exact zeros
TINY_SLOPE = 1e-300


class DegenerateSourceError(ValueError):
    """The source rule's slope vanishes at an evaluation point, so the
    inference weights are undefined there."""

    def __init__(self, quantile: float):
        self.quantile = quantile
        super().__init__(f"source allocation slope vanishes at q={quantile:.6g}")

    def __reduce__(self):
        return type(self), (self.quantile,)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with optional theoretical bound and run metadata."""

    point: float
    bound: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bound is not None and self.bound < 0:
            raise ValueError("error bound must be nonnegative")

    def csv_row(self) -> str:
        """The estimate row: with no ground truth, its truth and abs_error
        cells are empty."""
        m = self.meta
        bd = "" if self.bound is None else f"{self.bound:.10g}"
        return ",".join(
            str(m.get(k, "")) for k in ("design", "format", "n", "N", "eps", "seed")
        ) + f",{self.point:.10g},,,{bd}"


class SourceGrid:
    """A source rule x evaluated once on cell edges q = i/N of N sorted
    bids: all N+1 of them, or the increasing edge indices `edges`.  Every
    kernel divides by the slope x' at the edges clamped into
    [1/(2N), 1 - 1/(2N)], where the rules' slopes may both vanish;
    first-price kernels also need x(q).  Targets then build their kernels
    from these one at a time, so no (targets x N) matrix is held.
    """

    def __init__(self, fmt: str, x: AllocationRule, N: int, edges: Optional[np.ndarray] = None):
        if fmt not in (ALL_PAY, FIRST_PRICE):
            raise ValueError(f"unknown payment format {fmt!r}")
        self.fmt = fmt
        self.n = x.n
        self.q = (np.arange(N + 1) if edges is None else edges) / N
        self.qe = np.clip(self.q, 0.5 / N, 1.0 - 0.5 / N)
        self.xp = x.xprime(self.qe)
        self.flat = np.abs(self.xp) <= TINY_SLOPE
        self.xq = x.x(self.q) if fmt == FIRST_PRICE else None

    def _check_agents(self, y: AllocationRule) -> None:
        if y.n != self.n:
            raise ValueError(f"target rule has {y.n} agents, the source rule {self.n}")

    def _over_slope(self, num: np.ndarray) -> np.ndarray:
        """num/x' at the edges, 0 where both vanish."""
        bad = self.flat & (np.abs(num) > TINY_SLOPE)
        if np.any(bad):
            raise DegenerateSourceError(float(self.qe[np.argmax(bad)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.flat, 0.0, num / np.where(self.flat, 1.0, self.xp))

    def kernel(self, y: AllocationRule) -> np.ndarray:
        """y's revenue kernel at the edges.  All-pay: Z = (1-q) y'/x'.
        First-price: -F, F = (1-q)(y - x y'/x') + int_0^q y."""
        self._check_agents(y)
        # y'/x', exactly 1 when y is x (exact self-estimation)
        r = self._over_slope(y.xprime(self.qe))
        q = self.q
        if self.fmt == ALL_PAY:
            return (1.0 - q) * r
        return -((1.0 - q) * (y.x(q) - self.xq * r) + y.xint(q))

    def welfare_kernel(self, y: AllocationRule) -> np.ndarray:
        """y's welfare kernel on an all-pay sample: y/x' on the interior
        edges, -(w_1 - y)/((1-q) x') at q = 0 and 0 at q = 1, with y and x'
        at the clamped q and w_1 y's first position weight.

        It is w_1 V - sum_k (w_1 - w_{k+1})/k Z_k, the expected-value kernel
        V = 1/x' less the revenue kernels Z_k of the k-unit rules, summed in
        closed form: (1-q) x_k'/k = P(C = k) with C ~ Bin(n-1, 1-q), so
        sum_k (w_1 - w_{k+1})/k (1-q) x_k' = w_1 - y.  Every weight 1 gives
        the expected-value kernel itself.
        """
        if self.fmt != ALL_PAY:
            raise ValueError("welfare and expected-value estimation need an all-pay sample")
        self._check_agents(y)
        q, yq = self.q, y.x(self.qe)
        num = np.where(q == 0.0, (yq - y.weights.w[0]) / (1.0 - self.qe),
                       np.where(q == 1.0, 0.0, yq))
        return self._over_slope(num)

    def weights(self, y: AllocationRule) -> np.ndarray:
        """The N weights K_{i-1} - K_i of the full grid, whose dot product
        with the sorted bids estimates y's revenue."""
        K = self.kernel(y)
        return K[:-1] - K[1:]


def _bid_steps(sample: BidSample, x: AllocationRule) -> tuple[SourceGrid, np.ndarray]:
    """x on the edges where the sorted bids, with a 0 before and after,
    change, and those changes b_{i+1} - b_i: a kernel dotted with them is
    the estimate."""
    if x.n != sample.n:
        raise ValueError(f"source rule has {x.n} agents, the bid sample's rule {sample.n}")
    steps = np.diff(sample.bids, prepend=0.0, append=0.0)
    edges = np.flatnonzero(steps)
    return SourceGrid(sample.format, x, sample.size, edges), steps[edges]


def estimate_revenue(sample: BidSample, x: AllocationRule, y: AllocationRule, **meta) -> EstimateReport:
    """Per-agent revenue of target rule y from bids under source x, by the
    kernel of the sample's payment format (SourceGrid.kernel)."""
    return EstimateReport(
        float(estimate_revenues(sample, x, (y,))[0]),
        meta={"format": sample.format, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": y.describe(), **meta},
    )


def estimate_revenues(sample: BidSample, x: AllocationRule, ys) -> np.ndarray:
    """The revenue of each target in ys from one sample under source x: the
    points of estimate_revenue, bit for bit, with x evaluated once."""
    grid, steps = _bid_steps(sample, x)
    return np.array([float(grid.kernel(y) @ steps) for y in ys])


def estimate_multiunit_revenues(sample: BidSample, x: AllocationRule) -> np.ndarray:
    """P_hat_k for k = 1..n-1, each from the format-appropriate estimator
    with the highest-k-bids-win rule as target."""
    return estimate_revenues(sample, x, [MultiUnit(k, x.n) for k in range(1, x.n)])


def estimate_expected_value(sample: BidSample, x: AllocationRule, **meta) -> EstimateReport:
    """Mean agent value from all-pay bids: the welfare of serving every
    agent (SourceGrid.welfare_kernel)."""
    grid, steps = _bid_steps(sample, x)
    return EstimateReport(
        float(grid.welfare_kernel(MultiUnit(x.n, x.n)) @ steps),
        meta={"format": ALL_PAY, "n": x.n, "N": sample.size, "source": x.describe(), **meta},
    )


def estimate_welfare(sample: BidSample, x: AllocationRule, w: PositionWeights, **meta) -> EstimateReport:
    """Per-agent social welfare of the position auction with weights w from
    all-pay bids (SourceGrid.welfare_kernel)."""
    y = Position(w)
    grid, steps = _bid_steps(sample, x)
    return EstimateReport(
        float(grid.welfare_kernel(y) @ steps),
        meta={"format": sample.format, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": y.describe(), **meta},
    )
