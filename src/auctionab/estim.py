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


def _ratio(y: AllocationRule, x: AllocationRule, q: np.ndarray, N: int) -> np.ndarray:
    """y'(q)/x'(q) with the two endpoint evaluations clamped into
    [1/(2N), 1 - 1/(2N)], where the rules' slopes may both vanish.

    When y and x are the same rule the ratio is exactly 1 everywhere, which
    keeps the self-estimation identity exact.
    """
    qe = np.clip(q, 0.5 / N, 1.0 - 0.5 / N)
    yp = y.xprime(qe)
    xp = x.xprime(qe)
    bad = (np.abs(xp) <= TINY_SLOPE) & (np.abs(yp) > TINY_SLOPE)
    if np.any(bad):
        raise DegenerateSourceError(float(qe[np.argmax(bad)]))
    both_zero = np.abs(xp) <= TINY_SLOPE
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(both_zero, 0.0, yp / np.where(both_zero, 1.0, xp))
    return r


def revenue_weights(x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The N summation-by-parts weights applied to the sorted bids."""
    q = np.arange(N + 1) / N
    Z = (1.0 - q) * _ratio(y, x, q, N)
    return Z[:-1] - Z[1:]


def firstprice_weights(x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The N weights applied to the sorted first-price bids: the integral of
    -x(q) Z'(q) over each bid's cell, the increment of F over it."""
    q = np.arange(N + 1) / N
    return np.diff((1.0 - q) * (y.x(q) - x.x(q) * _ratio(y, x, q, N)) + y.xint(q))


def estimator_weights(fmt: str, x: AllocationRule, y: AllocationRule, N: int) -> np.ndarray:
    """The revenue weights of the payment format's estimator: y's revenue
    is their dot product with N sorted bids from source x."""
    return (revenue_weights if fmt == ALL_PAY else firstprice_weights)(x, y, N)


def estimate_revenue_allpay(
    sample: BidSample, x: AllocationRule, y: AllocationRule, **meta
) -> EstimateReport:
    """Per-agent revenue of target rule y from all-pay bids under source x."""
    if sample.format != ALL_PAY:
        raise ValueError("sample is not from an all-pay auction")
    w = revenue_weights(x, y, sample.size)
    return EstimateReport(
        float(w @ sample.bids),
        meta={"format": ALL_PAY, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": y.describe(), **meta},
    )


def estimate_revenue_firstprice(
    sample: BidSample, x: AllocationRule, y: AllocationRule, **meta
) -> EstimateReport:
    """Per-agent revenue of y from first-price bids under x, by integrating
    -x(q) Z'(q) against the empirical bid step function (see
    firstprice_weights)."""
    if sample.format != FIRST_PRICE:
        raise ValueError("sample is not from a first-price auction")
    w = firstprice_weights(x, y, sample.size)
    return EstimateReport(
        float(w @ sample.bids),
        meta={"format": FIRST_PRICE, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": y.describe(), **meta},
    )


def estimate_revenue(sample: BidSample, x: AllocationRule, y: AllocationRule, **meta) -> EstimateReport:
    if sample.format == ALL_PAY:
        return estimate_revenue_allpay(sample, x, y, **meta)
    return estimate_revenue_firstprice(sample, x, y, **meta)


def estimate_multiunit_revenues(sample: BidSample, x: AllocationRule) -> np.ndarray:
    """P_hat_k for k = 1..n-1, each from the format-appropriate estimator
    with the highest-k-bids-win rule as target."""
    return np.array(
        [estimate_revenue(sample, x, MultiUnit(k, x.n)).point for k in range(1, x.n)]
    )


def estimate_expected_value(sample: BidSample, x: AllocationRule, **meta) -> EstimateReport:
    """Mean agent value from all-pay bids: summation by parts of
    E_q[b'(q)/x'(q)] with kernel 1/x'(q), boundary terms retained."""
    if sample.format != ALL_PAY:
        raise ValueError("expected-value estimation needs an all-pay sample")
    N = sample.size
    q = np.arange(N + 1) / N
    qe = np.clip(q, 0.5 / N, 1.0 - 0.5 / N)
    xp = x.xprime(qe)
    if np.any(np.abs(xp) <= TINY_SLOPE):
        raise DegenerateSourceError(float(qe[np.argmax(np.abs(xp) <= TINY_SLOPE)]))
    zbar = 1.0 / xp
    w = zbar[:-1] - zbar[1:]
    point = float(w @ sample.bids + zbar[-1] * sample.bids[-1] - zbar[0] * sample.bids[0])
    return EstimateReport(
        point,
        meta={"format": ALL_PAY, "n": x.n, "N": N, "source": x.describe(), **meta},
    )


def estimate_welfare(sample: BidSample, x: AllocationRule, w: PositionWeights, **meta) -> EstimateReport:
    """Per-agent social welfare of the position auction with weights w:

        SW = w_1 vbar - sum_{k=1}^{n-1} (w_1 - w_{k+1}) P_k / k

    composed from the expected-value and multi-unit revenue estimators.
    """
    vbar = estimate_expected_value(sample, x).point
    pk = estimate_multiunit_revenues(sample, x)
    k = np.arange(1, w.n)
    point = float(w.w[0] * vbar - np.sum((w.w[0] - w.w[1:]) * pk / k))
    return EstimateReport(
        point,
        meta={"format": sample.format, "n": x.n, "N": sample.size,
              "source": x.describe(), "target": Position(w).describe(), **meta},
    )
