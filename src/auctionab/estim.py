"""Counterfactual estimators: revenue, expected value, and welfare of a
target auction from bids observed in equilibrium of a different auction.

estimate(sample, x, targets, measure) is the one entry point.  For each
target it applies a kernel K on the cell edges q = i/N to the sorted bids
b_1..b_N by summation by parts: the sum over i = 0..N of
K_i (b_{i+1} - b_i), with b_0 = b_{N+1} = 0.  Only the edges where the bids
change enter it, so the rules are evaluated there alone.  With source x and
target y, K is Z = (1-q) y'/x' for all-pay revenue, -F for first-price
revenue (F = (1-q) y + int_0^q y - x Z, whose increments integrate -x Z'
exactly over each bid's cell), and y/x' for the all-pay welfare of
position rule y (measure="welfare", SourceGrid.welfare_kernel), which for
the rule that serves every agent, y = 1, is the expected value.  Gathered
per bid, the sum is the weight form sum_i (K_{i-1} - K_i) b_i that the
Monte Carlo trials use below N = 4 (m + 1) bids from an m-cell bid curve
(BidCurve.counting); where 1/x' spans many decades that form cancels to
rounding noise on tied bids.  From there on the trials sum K over the grid
bids' increments instead (harness.trial_estimates).

DegenerateSourceError is raised only at an edge the estimate uses, where x'
vanishes and the kernel's numerator does not, so a source that is flat only
where the bids tie estimates without error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alloc import AllocationRule, check
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
    """A point estimate."""

    point: float


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
        check("N", N)
        self.fmt = fmt
        self.n = x.n
        self.q = (np.arange(N + 1) if edges is None else edges) / N
        self.qe = np.clip(self.q, 0.5 / N, 1.0 - 0.5 / N)
        self.xp = x.xprime(self.qe)
        #: the edges where x' vanishes: every kernel divides everywhere, then
        #: checks and zeroes these alone
        self.flat = np.flatnonzero(np.abs(self.xp) <= TINY_SLOPE)
        self.xq = x.x(self.q) if fmt == FIRST_PRICE else None

    def _check_agents(self, y: AllocationRule) -> None:
        if y.n != self.n:
            raise ValueError(f"target rule has {y.n} agents, the source rule {self.n}")

    def _over_slope(self, num: np.ndarray) -> np.ndarray:
        """num/x' at the edges, 0 where both vanish."""
        bad = np.abs(num[self.flat]) > TINY_SLOPE
        if np.any(bad):
            raise DegenerateSourceError(float(self.qe[self.flat[np.argmax(bad)]]))
        # |num| <= TINY_SLOPE where x' vanishes, so no quotient there overflows
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / self.xp
        out[self.flat] = 0.0
        return out

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
        num = np.where(q == 0.0, (yq - y.w[0]) / (1.0 - self.qe),
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


def estimate(sample: BidSample, x: AllocationRule, targets, measure: str = "revenue") -> np.ndarray:
    """The per-agent revenue of each target rule, or with measure="welfare"
    its all-pay welfare (the rule that serves every agent gives the expected
    value), from one sample under source x: each target's kernel
    (SourceGrid.kernel or welfare_kernel) dotted with the bid increments."""
    if measure not in ("revenue", "welfare"):
        raise ValueError(f"unknown measure {measure!r}: use revenue or welfare")
    grid, steps = _bid_steps(sample, x)
    kernel = grid.kernel if measure == "revenue" else grid.welfare_kernel
    return np.array([float(kernel(y) @ steps) for y in targets])


def estimate_revenue(sample: BidSample, x: AllocationRule, y: AllocationRule) -> EstimateReport:
    """Per-agent revenue of target rule y from bids under source x."""
    return EstimateReport(float(estimate(sample, x, [y])[0]))


def estimate_welfare(sample: BidSample, x: AllocationRule, y: AllocationRule) -> EstimateReport:
    """Per-agent social welfare of target rule y from all-pay bids under
    source x."""
    return EstimateReport(float(estimate(sample, x, [y], "welfare")[0]))
