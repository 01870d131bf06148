"""Evaluators for the theoretical error-bound formulas, so every estimate
can be reported next to its guarantee.

Every asymptotic O(1) constant is 1 and the headline multiplicative
constant is 40, as in the paper's bounds.  Logarithm arguments are floored
at e so a bound never goes negative when source and target nearly coincide.
Logs of n/eps and 1/eps are taken as differences of logs, which stay finite
where the quotients overflow (subnormal eps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alloc import AllocationRule, check, slope_scan

HEADLINE_CONSTANT = 40.0


def _floored_log(v: float) -> float:
    return math.log(max(v, math.e))


@dataclass(frozen=True)
class BoundInputs:
    """Grid suprema and sample parameters the bound formulas consume."""

    N: int
    n: int
    sup_yprime: float
    sup_xprime: float
    sup_inv_xprime: float  # sup over the grid of 1/x'(q)
    ratio_up: float    # sup over {q: y'(q) >= 1} of x'(q)/y'(q)
    ratio_down: float  # sup over q of y'(q)/x'(q)

    @classmethod
    def from_rules(cls, x: AllocationRule, y: AllocationRule, N: int) -> "BoundInputs":
        """Suprema over SLOPE_GRID uniform quantiles clamped into
        [1/(2N), 1 - 1/(2N)], the interval where the estimator evaluates
        slopes (at its N+1 clamped cell edges); the slope suprema come from
        max_slope over all of [0, 1], in the same scan of each rule."""
        check("N", N)
        sup_yprime, yp = slope_scan(y, 0.5 / N, 1.0 - 0.5 / N)
        sup_xprime, xp = slope_scan(x, 0.5 / N, 1.0 - 0.5 / N)
        # a tiny positive slope overflows the ratio to inf, which the bound carries
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            down = np.where(xp > 0, yp / np.where(xp > 0, xp, 1.0), np.inf)
            up_mask = yp >= 1.0
            up = float(np.max(xp[up_mask] / yp[up_mask])) if np.any(up_mask) else 0.0
        return cls(
            N=N,
            n=x.n,
            sup_yprime=sup_yprime,
            sup_xprime=sup_xprime,
            sup_inv_xprime=float(np.max(1.0 / np.maximum(xp, 1e-300))),
            ratio_up=up,
            ratio_down=float(np.max(down)),
        )


def bound_allpay_k(inputs: BoundInputs) -> float:
    """Expected absolute error of the multi-unit revenue estimate:
    (40/sqrt(N)) sup y' log max{ratio_up, ratio_down}."""
    log_term = _floored_log(max(inputs.ratio_up, inputs.ratio_down))
    return HEADLINE_CONSTANT / math.sqrt(inputs.N) * inputs.sup_yprime * log_term


def bound_bias(inputs: BoundInputs) -> float:
    """The O(1)/N systematic (non-sampling) part of the estimation error:
    (1/N) sup x' sup(y'/x')."""
    return 1.0 / inputs.N * inputs.sup_xprime * inputs.ratio_down


def bound_general_y(inputs: BoundInputs) -> float:
    """Expected absolute error for an arbitrary position-auction target:
    the multi-unit bound times sqrt(n log n), plus the O(1)/N bias term."""
    log_term = _floored_log(max(inputs.ratio_up, inputs.ratio_down))
    lead = (
        HEADLINE_CONSTANT
        / math.sqrt(inputs.N)
        * math.sqrt(inputs.n * math.log(inputs.n))
        * inputs.sup_yprime
        * log_term
    )
    return lead + bound_bias(inputs)


def bound_expected_value(N: int, n: int, sup_xprime: float, sup_inv_xprime: float) -> float:
    """Expected absolute error of the mean-value estimate from all-pay bids:
    (40/sqrt(N)) sqrt(n log n) log max{sup x', sup 1/x'}
    + (1/N) sup x' sup 1/x'."""
    check("N", N)
    check("n", n)
    lead = (
        HEADLINE_CONSTANT
        / math.sqrt(N)
        * math.sqrt(n * math.log(n))
        * _floored_log(max(sup_xprime, sup_inv_xprime))
    )
    return lead + 1.0 / N * sup_xprime * sup_inv_xprime


def bound_ideal_ab(eps: float, N: int, sup_yprime: float) -> float:
    """Error of the ideal split test that sees only eps*N treatment bids:
    (1/sqrt(eps)) sup y'/sqrt(N)."""
    check("eps", eps)
    check("N", N)
    return 1.0 / math.sqrt(eps) * sup_yprime / math.sqrt(N)


def bound_mixture(eps: float, N: int, n: int, sup_yprime: float, multi_unit: bool = False) -> float:
    """Error of estimating the treatment rule's revenue from bids of the
    (1-eps)/eps mixture.  General targets pay an extra sqrt(n log n) factor;
    multi-unit targets get the 40 log(n/eps) form."""
    check("eps", eps)
    check("N", N)
    check("n", n)
    if multi_unit:
        return HEADLINE_CONSTANT * (math.log(n) - math.log(eps)) * sup_yprime / math.sqrt(N)
    return math.sqrt(n * math.log(n)) * (math.log(n) - math.log(eps)) * sup_yprime / math.sqrt(N)


def bound_universal(eps: float, N: int, n: int) -> float:
    """Simultaneous error over all multi-unit revenues when the universal
    treatment mechanism is mixed in: 40 n (n + log(1/eps))/sqrt(N)."""
    check("eps", eps)
    check("N", N)
    check("n", n)
    return HEADLINE_CONSTANT * n * (n - math.log(eps)) / math.sqrt(N)


def bound_classifier(N: int, n: int, eps: float, alpha: float, a: float) -> float:
    """Upper bound on the misclassification probability of the revenue
    comparator: exp(-N a^2 / (alpha^2 n^3 log(n/eps)))."""
    check("eps", eps)
    check("N", N)
    check("n", n)
    check("alpha", alpha)
    if a < 0:
        raise ValueError("revenue gap must be nonnegative")
    # float * and / saturate to inf or 0 at extreme alpha where ** would raise
    r = a / alpha
    return math.exp(-(N * (r * r) / (n**3 * (math.log(n) - math.log(eps)))))


def bound_welfare(eps: float, N: int, n: int) -> float:
    """Per-agent social-welfare error with the universal treatment mix:
    40 n log n (n + log(1/eps))/sqrt(N) + 40 sqrt(n log n) log(n/eps)/sqrt(N)
    + n/(eps N)."""
    check("eps", eps)
    check("N", N)
    check("n", n)
    ln_n = math.log(n)
    lead = HEADLINE_CONSTANT * n * ln_n * (n - math.log(eps)) / math.sqrt(N)
    mid = HEADLINE_CONSTANT * math.sqrt(n * ln_n) * (ln_n - math.log(eps)) / math.sqrt(N)
    return lead + mid + n / (eps * N)


def normalized_table_bound(design: int, n: int, eps: float) -> float:
    """Headline bound value in the normalized units of the simulation
    summary tables (one value per design row, independent of N).

    The published tables report the design bounds scaled by 1/30 of the
    headline constant; design 1 additionally carries the log max{n^3, 1/eps}
    term its slope ratios produce.  This reproduces those printed values for
    the cross-checks in the test suite.
    """
    check("n", n)
    c = HEADLINE_CONSTANT / 30.0
    if design == 1:
        return c * math.sqrt(n * math.log(n)) / n * max(3.0 * math.log(n), -math.log(eps))
    if design in (2, 3):
        return c * (0.0 - math.log(eps))  # not -0.0 at eps = 1
    raise ValueError(f"unknown design {design}")
