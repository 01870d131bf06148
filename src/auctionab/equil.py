"""Symmetric equilibrium bid curves, bid sampling, and value inversion.

For a rank-by-bid auction with allocation rule x in quantile space, the
symmetric equilibrium bid function satisfies

    all-pay:      b'(q) = v(q) x'(q)            so  b(q) = int_0^q v x' dt
    first-price:  v(q) = b(q) + x(q) b'(q)/x'(q) so  b(q) = int_0^q v x' dt / x(q)

Curves are tabulated on a uniform quantile grid; bid samples are draws with
replacement from the grid bids, which makes the sampling model exactly the
discrete one the estimators assume.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .alloc import AllocationRule, DegenerateRuleError
from .dist import DEFAULT_GRID, QuantileGrid, ValueDistribution

ALL_PAY = "allpay"
FIRST_PRICE = "firstprice"

#: below this slope the inversion reports a gap instead of dividing
EPS_SLOPE = 1e-9

#: below this allocation probability the first-price bid is set by continuity
EPS_ALLOC = 1e-12


@dataclass(frozen=True)
class BidCurve:
    """Equilibrium bid at each grid quantile for one payment format."""

    format: str
    rule: AllocationRule
    grid: QuantileGrid
    b: np.ndarray

    def __post_init__(self):
        if self.format not in (ALL_PAY, FIRST_PRICE):
            raise ValueError(f"unknown payment format {self.format!r}")
        b = np.asarray(self.b, dtype=float)
        if len(b) != self.grid.m + 1:
            raise ValueError("bid vector does not match grid")
        object.__setattr__(self, "b", b)
        self.b.setflags(write=False)

    def draw(self, N: int, seed) -> np.ndarray:
        """N bids drawn with replacement from the grid bids (uniform quantile
        indices mapped through the curve), sorted ascending.

        Deterministic given the seed.  The generator is numpy's default_rng
        (PCG64); `seed` may be an int or a numpy SeedSequence, which is how
        the Monte Carlo harness derives independent per-trial streams.
        """
        if N < 1:
            raise ValueError("sample size must be positive")
        idx = np.random.default_rng(seed).integers(0, len(self.b), size=N)
        return np.sort(self.b[idx])


@dataclass(frozen=True)
class BidSample:
    """Sorted i.i.d. sample of bids from the auction that generated them."""

    format: str
    n: int
    rule: AllocationRule
    bids: np.ndarray

    def __post_init__(self):
        bids = np.asarray(self.bids, dtype=float)
        if bids.ndim != 1 or len(bids) == 0:
            raise ValueError("need a nonempty 1-d bid vector")
        if not np.all(np.isfinite(bids)):
            raise ValueError("bids must be finite (found nan or inf)")
        if np.any(np.diff(bids) < 0):
            bids = np.sort(bids)
        if bids[0] < 0:
            raise ValueError("bids must be nonnegative")
        object.__setattr__(self, "bids", bids)
        self.bids.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.bids)


def allpay_bid_curve(
    dist: ValueDistribution, rule: AllocationRule, grid: QuantileGrid = DEFAULT_GRID
) -> BidCurve:
    q = grid.q
    b = cumulative_trapezoid(dist.v(q) * rule.xprime(q), q, initial=0.0)
    return BidCurve(ALL_PAY, rule, grid, b)


def firstprice_bid_curve(
    dist: ValueDistribution, rule: AllocationRule, grid: QuantileGrid = DEFAULT_GRID
) -> BidCurve:
    q = grid.q
    num = cumulative_trapezoid(dist.v(q) * rule.xprime(q), q, initial=0.0)
    xq = rule.x(q)
    dead = xq < EPS_ALLOC
    if np.any(dead & (q > 0.5)):
        raise DegenerateRuleError("allocation rule vanishes away from q=0; no first-price bid curve")
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(dead, float(dist.v(0.0)), num / np.where(dead, 1.0, xq))
    return BidCurve(FIRST_PRICE, rule, grid, b)


def bid_curve(
    fmt: str, dist: ValueDistribution, rule: AllocationRule, grid: QuantileGrid = DEFAULT_GRID
) -> BidCurve:
    if fmt == ALL_PAY:
        return allpay_bid_curve(dist, rule, grid)
    if fmt == FIRST_PRICE:
        return firstprice_bid_curve(dist, rule, grid)
    raise ValueError(f"unknown payment format {fmt!r}")


def _bprime(curve: BidCurve) -> np.ndarray:
    # central differences inside, second-order one-sided at the endpoints
    return np.gradient(curve.b, curve.grid.q, edge_order=2)


def invert_allpay(curve: BidCurve, rule: AllocationRule | None = None) -> np.ndarray:
    """Recover v(q) = b'(q)/x'(q) on the curve's grid.  Quantiles where the
    rule's slope is below EPS_SLOPE are reported as NaN gaps, never
    interpolated silently."""
    if curve.format != ALL_PAY:
        raise ValueError("curve is not from an all-pay auction")
    rule = rule or curve.rule
    xp = rule.xprime(curve.grid.q)
    ok = xp > EPS_SLOPE
    out = np.full_like(curve.b, np.nan)
    out[ok] = _bprime(curve)[ok] / xp[ok]
    return out


def invert_firstprice(curve: BidCurve, rule: AllocationRule | None = None) -> np.ndarray:
    """Recover v(q) = b(q) + x(q) b'(q)/x'(q), with NaN gaps as above."""
    if curve.format != FIRST_PRICE:
        raise ValueError("curve is not from a first-price auction")
    rule = rule or curve.rule
    q = curve.grid.q
    xp = rule.xprime(q)
    ok = xp > EPS_SLOPE
    out = np.full_like(curve.b, np.nan)
    out[ok] = curve.b[ok] + rule.x(q)[ok] * _bprime(curve)[ok] / xp[ok]
    return out


def invert(curve: BidCurve, rule: AllocationRule | None = None) -> np.ndarray:
    return (invert_allpay if curve.format == ALL_PAY else invert_firstprice)(curve, rule)


def sample_bids(curve: BidCurve, N: int, seed) -> BidSample:
    """The sample of `curve.draw(N, seed)`: N bids drawn with replacement
    from the grid bids, sorted ascending, deterministic given the seed."""
    return BidSample(curve.format, curve.rule.n, curve.rule, curve.draw(N, seed))


def empirical_bid_function(sample: BidSample, q):
    """Step function equal to the i-th smallest bid on [(i-1)/N, i/N); the
    largest bid at q = 1."""
    q = np.asarray(q, dtype=float)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("quantile outside [0, 1]")
    N = sample.size
    idx = np.minimum((q * N).astype(int), N - 1)
    return sample.bids[idx]


def write_bid_csv(sample: BidSample, csv_path, sidecar_path=None) -> None:
    """One-column CSV with header 'bid' plus a JSON sidecar recording the
    payment format, agent count, and generating rule."""
    csv_path = Path(csv_path)
    np.savetxt(csv_path, sample.bids, header="bid", comments="", fmt="%.17g")
    sidecar = Path(sidecar_path) if sidecar_path else csv_path.with_suffix(".json")
    sidecar.write_text(
        json.dumps({"format": sample.format, "n": sample.n, "rule": sample.rule.describe()}, indent=2)
    )


def read_bid_csv(csv_path, fmt: str, rule: AllocationRule) -> BidSample:
    bids = np.loadtxt(csv_path, skiprows=1, ndmin=1)
    return BidSample(fmt, rule.n, rule, bids)
