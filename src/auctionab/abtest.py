"""Split-test decisions: estimate candidate revenues from the bids of a
composite test mechanism and decide revenue comparisons."""
from __future__ import annotations

import numpy as np

from .alloc import AllocationRule, check
from .equil import BidSample
from .estim import estimate


def revenue_verdict(p1: float, p2: float, alpha: float = 1.0) -> tuple[int, float]:
    """(verdict, margin) with margin = p1 - alpha * p2; verdict 1 iff
    margin > 0 (an exact tie keeps the incumbent answer 0)."""
    check("alpha", alpha)
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
    check("alpha", alpha)
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError("need at least two candidates")
    estimates = estimate(sample, x, candidates)
    scaled = estimates.copy()
    scaled[1:] *= alpha
    return int(np.argmax(scaled)), estimates
