"""Counterfactual estimators: revenue, expected value, and welfare of a
target auction from bids observed in equilibrium of a different auction.

Each estimate applies a kernel K on the cell edges q = i/N to the sorted
bids b_1..b_N by summation by parts: the sum over i = 0..N of
K_i (b_{i+1} - b_i), with b_0 = b_{N+1} = 0.  Only the edges where the bids
change enter it, so the rules are evaluated there alone.  With source x and
target y, K is Z = (1-q) y'/x' for all-pay revenue, -F for first-price
revenue (F = (1-q) y + int_0^q y - x Z, whose increments integrate -x Z'
exactly over each bid's cell), and 1/x' for the all-pay expected value,
whose boundary terms cancel.  Gathered per bid, the sum is the weight form
sum_i (K_{i-1} - K_i) b_i that the Monte Carlo trials use; where 1/x' spans
many decades that form cancels to rounding noise on tied bids.

DegenerateSourceError is raised only at an edge the estimate uses, where x'
vanishes and the target's slope does not, so a source that is flat only
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

    def csv_row(self, truth: Optional[float] = None) -> str:
        m = self.meta
        err = "" if truth is None else f"{abs(self.point - truth):.10g}"
        tr = "" if truth is None else f"{truth:.10g}"
        bd = "" if self.bound is None else f"{self.bound:.10g}"
        return ",".join(
            str(m.get(k, "")) for k in ("design", "format", "n", "N", "eps", "seed")
        ) + f",{self.point:.10g},{tr},{err},{bd}"


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
        self.q = (np.arange(N + 1) if edges is None else edges) / N
        self.qe = np.clip(self.q, 0.5 / N, 1.0 - 0.5 / N)
        self.xp = x.xprime(self.qe)
        self.flat = np.abs(self.xp) <= TINY_SLOPE
        self.xq = x.x(self.q) if fmt == FIRST_PRICE else None

    def kernel(self, y: AllocationRule) -> np.ndarray:
        """y's revenue kernel at the edges.  All-pay: Z = (1-q) y'/x'.
        First-price: -F, F = (1-q)(y - x y'/x') + int_0^q y."""
        # y'/x', 0 where both slopes vanish; exactly 1 when y is x (exact self-estimation)
        yp = y.xprime(self.qe)
        bad = self.flat & (np.abs(yp) > TINY_SLOPE)
        if np.any(bad):
            raise DegenerateSourceError(float(self.qe[np.argmax(bad)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(self.flat, 0.0, yp / np.where(self.flat, 1.0, self.xp))
        q = self.q
        if self.fmt == ALL_PAY:
            return (1.0 - q) * r
        return -((1.0 - q) * (y.x(q) - self.xq * r) + y.xint(q))

    def value_kernel(self) -> np.ndarray:
        """The expected-value kernel of an all-pay sample: 1/x' on the
        interior edges, 0 at q = 0 and 1."""
        if self.fmt != ALL_PAY:
            raise ValueError("expected-value estimation needs an all-pay sample")
        inner = (self.q > 0.0) & (self.q < 1.0)
        bad = self.flat & inner
        if np.any(bad):
            raise DegenerateSourceError(float(self.qe[np.argmax(bad)]))
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(inner, 1.0 / self.xp, 0.0)

    def weights(self, y: AllocationRule) -> np.ndarray:
        """The N weights K_{i-1} - K_i of the full grid, whose dot product
        with the sorted bids estimates y's revenue."""
        K = self.kernel(y)
        return K[:-1] - K[1:]


def revenue_weights(x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The N summation-by-parts weights applied to the sorted all-pay bids."""
    return SourceGrid(ALL_PAY, x, N).weights(y)


def firstprice_weights(x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The N weights applied to the sorted first-price bids."""
    return SourceGrid(FIRST_PRICE, x, N).weights(y)


def _bid_steps(sample: BidSample, x: AllocationRule) -> tuple[SourceGrid, np.ndarray]:
    """x on the edges where the sorted bids, with a 0 before and after,
    change, and those changes b_{i+1} - b_i: a kernel dotted with them is
    the estimate."""
    steps = np.diff(sample.bids, prepend=0.0, append=0.0)
    edges = np.flatnonzero(steps)
    return SourceGrid(sample.format, x, sample.size, edges), steps[edges]


def _revenues(grid: SourceGrid, steps: np.ndarray, ys) -> np.ndarray:
    return np.array([float(grid.kernel(y) @ steps) for y in ys])


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
    return _revenues(*_bid_steps(sample, x), ys)


def estimate_multiunit_revenues(sample: BidSample, x: AllocationRule) -> np.ndarray:
    """P_hat_k for k = 1..n-1, each from the format-appropriate estimator
    with the highest-k-bids-win rule as target."""
    return estimate_revenues(sample, x, [MultiUnit(k, x.n) for k in range(1, x.n)])


def estimate_expected_value(sample: BidSample, x: AllocationRule, **meta) -> EstimateReport:
    """Mean agent value from all-pay bids (SourceGrid.value_kernel)."""
    grid, steps = _bid_steps(sample, x)
    return EstimateReport(
        float(grid.value_kernel() @ steps),
        meta={"format": ALL_PAY, "n": x.n, "N": sample.size, "source": x.describe(), **meta},
    )


def estimate_welfare(sample: BidSample, x: AllocationRule, w: PositionWeights, **meta) -> EstimateReport:
    """Per-agent social welfare of the position auction with weights w:

        SW = w_1 vbar - sum_{k=1}^{n-1} (w_1 - w_{k+1}) P_k / k

    composed from the expected-value estimate and the n-1 multi-unit
    revenue estimates, their kernels all taken on one grid of the edges
    where the bids change.
    """
    grid, steps = _bid_steps(sample, x)
    vbar = float(grid.value_kernel() @ steps)
    pk = _revenues(grid, steps, [MultiUnit(k, x.n) for k in range(1, x.n)])
    k = np.arange(1, w.n)
    point = float(w.w[0] * vbar - np.sum((w.w[0] - w.w[1:]) * pk / k))
    return EstimateReport(
        point,
        meta={"format": sample.format, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": Position(w).describe(), **meta},
    )
