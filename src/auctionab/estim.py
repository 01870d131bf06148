"""Counterfactual estimators: revenue, expected value, and welfare of a
target auction from bids observed in equilibrium of a different auction.

The all-pay revenue estimator is a weighted order statistic of the sorted
bids: with source rule x, target rule y, and weight kernel
Z(q) = (1-q) y'(q)/x'(q), the estimate is

    P_hat = sum_i [Z((i-1)/N) - Z(i/N)] * b_i

which is exact summation by parts of E_q[-Z'(q) b_hat(q)].  The first-price
variant evaluates E_q[-x(q) Z'(q) b_hat(q)] exactly too: -x Z' is the
derivative of F(q) = (1-q) y(q) + int_0^q y - x(q) Z(q).
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
    """A source rule x evaluated once on the N+1 cell edges q = i/N of N
    sorted bids.  Every estimator divides by the slope x' at the edges
    clamped into [1/(2N), 1 - 1/(2N)], where the rules' slopes may both
    vanish; first-price weights also need x(q).  Targets then build their
    weights from these one at a time, so no (targets x N) matrix is held.
    """

    def __init__(self, fmt: str, x: AllocationRule, N: int):
        self.fmt = fmt
        self.q = np.arange(N + 1) / N
        self.qe = np.clip(self.q, 0.5 / N, 1.0 - 0.5 / N)
        self.xp = x.xprime(self.qe)
        self.flat = np.abs(self.xp) <= TINY_SLOPE
        self.xq = x.x(self.q) if fmt == FIRST_PRICE else None

    def weights(self, y: AllocationRule) -> np.ndarray:
        """The N weights whose dot product with the sorted bids estimates
        y's revenue.  All-pay: the summation-by-parts increments of
        Z = (1-q) y'/x'.  First-price: the integral of -x Z' over each bid's
        cell, the increment of F over it."""
        # y'/x', 0 where both slopes vanish; exactly 1 when y is x (exact self-estimation)
        yp = y.xprime(self.qe)
        bad = self.flat & (np.abs(yp) > TINY_SLOPE)
        if np.any(bad):
            raise DegenerateSourceError(float(self.qe[np.argmax(bad)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(self.flat, 0.0, yp / np.where(self.flat, 1.0, self.xp))
        q = self.q
        if self.fmt == ALL_PAY:
            Z = (1.0 - q) * r
            return Z[:-1] - Z[1:]
        return np.diff((1.0 - q) * (y.x(q) - self.xq * r) + y.xint(q))

    def revenues(self, bids: np.ndarray, ys) -> np.ndarray:
        """Each target's revenue estimate from the same sorted bids."""
        return np.array([float(self.weights(y) @ bids) for y in ys])

    def expected_value(self, bids: np.ndarray) -> float:
        """Mean agent value from sorted all-pay bids: summation by parts of
        E_q[b'(q)/x'(q)] with kernel 1/x'(q), boundary terms retained."""
        if self.fmt != ALL_PAY:
            raise ValueError("expected-value estimation needs an all-pay sample")
        if np.any(self.flat):
            raise DegenerateSourceError(float(self.qe[np.argmax(self.flat)]))
        zbar = 1.0 / self.xp
        w = zbar[:-1] - zbar[1:]
        return float(w @ bids + zbar[-1] * bids[-1] - zbar[0] * bids[0])


def revenue_weights(x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The N summation-by-parts weights applied to the sorted bids."""
    return SourceGrid(ALL_PAY, x, N).weights(y)


def firstprice_weights(x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The N weights applied to the sorted first-price bids: the integral of
    -x(q) Z'(q) over each bid's cell, the increment of F over it."""
    return SourceGrid(FIRST_PRICE, x, N).weights(y)


def estimator_weights(fmt: str, x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The revenue weights of the payment format's estimator: y's revenue
    is their dot product with N sorted bids from source x."""
    return (revenue_weights if fmt == ALL_PAY else firstprice_weights)(x, y, N)


def _revenue_report(sample: BidSample, x: AllocationRule, y: AllocationRule,
                    w: np.ndarray, meta: dict) -> EstimateReport:
    return EstimateReport(
        float(w @ sample.bids),
        meta={"format": sample.format, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": y.describe(), **meta},
    )


def estimate_revenue_allpay(
    sample: BidSample, x: AllocationRule, y: AllocationRule, **meta
) -> EstimateReport:
    """Per-agent revenue of target rule y from all-pay bids under source x."""
    if sample.format != ALL_PAY:
        raise ValueError("sample is not from an all-pay auction")
    return _revenue_report(sample, x, y, revenue_weights(x, y, sample.size), meta)


def estimate_revenue_firstprice(
    sample: BidSample, x: AllocationRule, y: AllocationRule, **meta
) -> EstimateReport:
    """Per-agent revenue of y from first-price bids under x, by integrating
    -x(q) Z'(q) against the empirical bid step function (see
    firstprice_weights)."""
    if sample.format != FIRST_PRICE:
        raise ValueError("sample is not from a first-price auction")
    return _revenue_report(sample, x, y, firstprice_weights(x, y, sample.size), meta)


def estimate_revenue(sample: BidSample, x: AllocationRule, y: AllocationRule, **meta) -> EstimateReport:
    fn = estimate_revenue_allpay if sample.format == ALL_PAY else estimate_revenue_firstprice
    return fn(sample, x, y, **meta)


def estimate_revenues(sample: BidSample, x: AllocationRule, ys) -> np.ndarray:
    """The revenue of each target in ys from one sample under source x: the
    points of estimate_revenue, bit for bit, with x evaluated once."""
    return SourceGrid(sample.format, x, sample.size).revenues(sample.bids, ys)


def estimate_multiunit_revenues(sample: BidSample, x: AllocationRule) -> np.ndarray:
    """P_hat_k for k = 1..n-1, each from the format-appropriate estimator
    with the highest-k-bids-win rule as target."""
    return estimate_revenues(sample, x, [MultiUnit(k, x.n) for k in range(1, x.n)])


def estimate_expected_value(sample: BidSample, x: AllocationRule, **meta) -> EstimateReport:
    """Mean agent value from all-pay bids (SourceGrid.expected_value)."""
    return EstimateReport(
        SourceGrid(sample.format, x, sample.size).expected_value(sample.bids),
        meta={"format": ALL_PAY, "n": x.n, "N": sample.size, "source": x.describe(), **meta},
    )


def estimate_welfare(sample: BidSample, x: AllocationRule, w: PositionWeights, **meta) -> EstimateReport:
    """Per-agent social welfare of the position auction with weights w:

        SW = w_1 vbar - sum_{k=1}^{n-1} (w_1 - w_{k+1}) P_k / k

    composed from the expected-value and multi-unit revenue estimators,
    which share one evaluation of x'.
    """
    src = SourceGrid(sample.format, x, sample.size)
    vbar = src.expected_value(sample.bids)
    pk = src.revenues(sample.bids, [MultiUnit(k, x.n) for k in range(1, x.n)])
    k = np.arange(1, w.n)
    point = float(w.w[0] * vbar - np.sum((w.w[0] - w.w[1:]) * pk / k))
    return EstimateReport(
        point,
        meta={"format": sample.format, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": Position(w).describe(), **meta},
    )
