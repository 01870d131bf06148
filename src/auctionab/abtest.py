"""Split-test orchestration: build composite test mechanisms, estimate
candidate revenues from the composite's bids, and decide revenue
comparisons."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alloc import AllocationRule, Mixture
from .dist import ValueDistribution
from .equil import ALL_PAY, BidSample
from .estim import estimate


@dataclass(frozen=True)
class ABDesign:
    """Incumbent rule a, candidate rules bs with their mixture weights
    (summing to the total test fraction eps), and the market model."""

    a: AllocationRule
    bs: tuple[tuple[float, AllocationRule], ...]
    dist: ValueDistribution
    format: str = ALL_PAY
    n: int = field(init=False)

    def __post_init__(self):
        bs = tuple((float(w), r) for w, r in self.bs)
        if not bs:
            raise ValueError("need at least one candidate rule")
        if any(r.n != self.a.n for _, r in bs):
            raise ValueError("candidate rules must share the incumbent's agent count")
        eps = sum(w for w, _ in bs)
        if not (0.0 < eps <= 1.0):
            raise ValueError("total test fraction must lie in (0, 1]")
        object.__setattr__(self, "bs", bs)
        object.__setattr__(self, "n", self.a.n)

    @property
    def eps(self) -> float:
        return sum(w for w, _ in self.bs)


def build_test_mechanism(design: ABDesign) -> AllocationRule:
    """The composite mechanism bidders actually face:
    (1 - eps) * incumbent + sum of weighted candidates."""
    return Mixture(((1.0 - design.eps, design.a),) + design.bs)


def revenue_verdict(p1: float, p2: float, alpha: float = 1.0) -> tuple[int, float]:
    """(verdict, margin) with margin = p1 - alpha * p2; verdict 1 iff
    margin > 0 (an exact tie keeps the incumbent answer 0)."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    margin = p1 - alpha * p2
    return (1 if margin > 0 else 0), margin


def compare_revenues(
    sample: BidSample,
    x: AllocationRule,
    b1: AllocationRule,
    b2: AllocationRule,
    alpha: float = 1.0,
) -> tuple[int, float]:
    """Classify whether b1's revenue exceeds alpha times b2's: the
    revenue_verdict of the two estimates from the same sample."""
    p1, p2 = estimate(sample, x, (b1, b2)).tolist()
    return revenue_verdict(p1, p2, alpha)


def best_of_r(
    sample: BidSample, x: AllocationRule, candidates, alpha: float = 1.0
) -> tuple[int, np.ndarray]:
    """Index of the candidate with the highest estimated revenue (alpha
    rescales all but the first as in compare_revenues); all candidates are
    estimated from the same sample.  Ties break toward the lowest index.
    """
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError("need at least two candidates")
    estimates = estimate(sample, x, candidates)
    scaled = estimates.copy()
    scaled[1:] *= alpha
    return int(np.argmax(scaled)), estimates
