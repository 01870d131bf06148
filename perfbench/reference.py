"""Independent oracles and checkers for the benchmark's outputs.

Nothing here calls `auctionab`: rules are evaluated from their closed forms
(a k-unit rule is the Beta(n-k, k) CDF in quantile space) and Beta(2, 2)
values from the trigonometric root of the cubic CDF, so a defect in the
library cannot hide in its own reference.
"""
from __future__ import annotations

import math

import numpy as np

#: quadrature grid of the revenue oracles: 10x the library's default 10 000 cells
FINE_M = 100_000


class CheckFailed(Exception):
    """An op returned a value that disagrees with its reference."""


def beta22_v(q):
    """Quantile function of Beta(2, 2): the root in [0, 1] of 3v^2 - 2v^3 = q."""
    q = np.asarray(q, dtype=float)
    return 0.5 + np.cos(np.arccos(1.0 - 2.0 * q) / 3.0 - 2.0 * math.pi / 3.0)


def marginals(w) -> np.ndarray:
    """Marginal weights over 0..n of position weights w_1 >= ... >= w_n."""
    w = np.asarray(w, dtype=float)
    return np.concatenate(([1.0 - w[0]], w[:-1] - w[1:], [w[-1]]))


def slope(wbar: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x'(q) of the position rule with marginal weights wbar (k-unit slope is
    the Beta(n-k, k) density; the n-unit rule is constant)."""
    from scipy import stats  # imported here to keep it out of the measured set-up time

    n = len(wbar) - 1
    out = np.zeros_like(q)
    for k in np.flatnonzero(wbar[1:n]) + 1:
        out += wbar[k] * stats.beta.pdf(q, n - k, k)
    return out


def k_unit(k: int, n: int) -> np.ndarray:
    wbar = np.zeros(n + 1)
    wbar[k] = 1.0
    return wbar


def stair(n: int) -> np.ndarray:
    """Uniform stair w_k = (n-k)/(n-1): its rule is x(q) = q."""
    return marginals((n - np.arange(1, n + 1)) / (n - 1))


def universal_b(n: int) -> np.ndarray:
    w = np.full(n, 0.5)
    w[0], w[-1] = 1.0, 0.0
    return marginals(w)


class Oracle:
    """True per-agent revenue of Beta(2, 2) bidders on a fine grid."""

    def __init__(self, m: int = FINE_M):
        self.q = np.linspace(0.0, 1.0, m + 1)
        self.r = beta22_v(self.q) * (1.0 - self.q)

    def revenue(self, wbar: np.ndarray) -> float:
        """E_q[R(q) x'(q)]; the stair's slope is exactly 1."""
        n = len(wbar) - 1
        if np.allclose(wbar, stair(n), rtol=0, atol=1e-12):
            return float(np.trapezoid(self.r, self.q))
        return float(np.trapezoid(self.r * slope(wbar, self.q), self.q))


def clamped(N: int) -> np.ndarray:
    """The estimator's evaluation points i/N, i = 0..N, with both ends
    clamped into [1/(2N), 1 - 1/(2N)]."""
    return np.clip(np.arange(N + 1) / N, 0.5 / N, 1.0 - 0.5 / N)


class SampleEstimator:
    """All-pay estimators from one sorted bid sample under source rule `src`.

    Each method returns (estimate, scale): scale is the sum of |weight * bid|,
    the size of the rounding a correct implementation may differ by.
    """

    def __init__(self, src: np.ndarray, bids: np.ndarray):
        self.n, self.N = len(src) - 1, len(bids)
        self.bids = np.asarray(bids, dtype=float)
        self.xp = slope(src, clamped(self.N))

    def revenue(self, tgt: np.ndarray) -> tuple[float, float]:
        """Summation by parts of Z(q) = (1-q) y'(q)/x'(q)."""
        yp = slope(tgt, clamped(self.N))
        ok = self.xp > 0
        ratio = np.where(ok, yp / np.where(ok, self.xp, 1.0), 0.0)
        z = (1.0 - np.arange(self.N + 1) / self.N) * ratio
        w = z[:-1] - z[1:]
        return float(w @ self.bids), float(np.abs(w) @ self.bids)

    def expected_value(self) -> tuple[float, float]:
        """Kernel 1/x'(q), boundary terms kept."""
        zbar = 1.0 / self.xp
        w = zbar[:-1] - zbar[1:]
        ends = zbar[-1] * self.bids[-1] - zbar[0] * self.bids[0]
        return float(w @ self.bids + ends), float(np.abs(w) @ self.bids + abs(ends))

    def welfare(self, w) -> tuple[float, float]:
        """w_1 vbar - sum_k (w_1 - w_{k+1}) P_k / k."""
        w = np.asarray(w, dtype=float)
        vbar, scale = self.expected_value()
        value, scale = w[0] * vbar, w[0] * scale
        for k in range(1, self.n):
            pk, sk = self.revenue(k_unit(k, self.n))
            c = (w[0] - w[k]) / k
            value -= c * pk
            scale += abs(c) * sk
        return float(value), float(scale)


def agree(got: float, ref: float, scale: float, what: str) -> None:
    """got must equal ref to 1e-7 relative, allowing rounding of order 1e-9
    of `scale` (the sum of |weight * bid|) when the estimate cancels."""
    if not math.isfinite(got):
        raise CheckFailed(f"{what}: non-finite value {got!r}")
    if abs(got - ref) > 1e-7 * abs(ref) + 1e-9 * scale:
        raise CheckFailed(f"{what}: {got:.12g} differs from reference {ref:.12g}")


def mc_cell_ok(mean_est: float, truth: float, sd: float, trials: int, allowance: float,
               what: str) -> None:
    """Mean of `trials` estimates within 6 standard errors plus a fixed
    finite-sample allowance of the fine-grid truth."""
    if not (math.isfinite(mean_est) and math.isfinite(sd)):
        raise CheckFailed(f"{what}: non-finite mean {mean_est!r} or spread {sd!r}")
    tol = 6.0 * sd / math.sqrt(trials) + allowance
    if abs(mean_est - truth) > tol:
        raise CheckFailed(
            f"{what}: mean estimate {mean_est:.6g} is {abs(mean_est - truth):.3g} from "
            f"truth {truth:.6g} (tolerance {tol:.3g})")
