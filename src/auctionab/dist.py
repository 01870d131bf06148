"""Value distributions in quantile space, revenue curves, and ground-truth
revenue/welfare oracles.

The quantile q of a value v is F(v); the value function v(q) = F^{-1}(q) and
the revenue curve R(q) = v(q) (1 - q) carry everything the estimators need.
Ground truths are computed by trapezoidal quadrature on a uniform grid and,
independently, by brute-force Monte Carlo over order statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alloc import AllocationRule


@dataclass(frozen=True)
class QuantileGrid:
    """Uniform partition of [0, 1] with m cells (m+1 points)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("grid needs at least one cell")

    @property
    def q(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.m + 1)


DEFAULT_GRID = QuantileGrid(10_000)


class ValueDistribution:
    """Value distribution on [0, 1] presented through its quantile function."""

    name: str

    def v(self, q):
        raise NotImplementedError

    def vprime(self, q):
        raise NotImplementedError

    def revenue(self, q):
        """R(q) = v(q)(1-q); R(0) = R(1) = 0 by convention."""
        q = np.asarray(q, dtype=float)
        r = self.v(q) * (1.0 - q)
        return np.where((q == 0.0) | (q == 1.0), 0.0, r)

    def rprime(self, q):
        q = np.asarray(q, dtype=float)
        return self.vprime(q) * (1.0 - q) - self.v(q)


class Uniform01(ValueDistribution):
    name = "uniform"

    def v(self, q):
        return np.asarray(q, dtype=float)

    def vprime(self, q):
        return np.ones_like(np.asarray(q, dtype=float))


class Beta22(ValueDistribution):
    """Beta(2, 2) values: density f(v) = 6v(1-v), CDF F(v) = 3v^2 - 2v^3.

    The quantile function is the trigonometric root of the cubic,
    1/2 + sin(arcsin(2q-1)/3) = 2 sin(t) cos(pi/6 - t) with t = arcsin(sqrt q)/3
    (exact at q = 0 and relatively precise for small q), plus one Newton step.
    The derivative v'(q) = 1/f(v(q)) clamps q away from the endpoints where
    the density vanishes.
    """

    name = "beta22"
    _endpoint_delta = 1e-5  # 1/(10 m) at the default grid size

    @staticmethod
    def cdf(v):
        v = np.asarray(v, dtype=float)
        return 3.0 * v**2 - 2.0 * v**3

    def v(self, q):
        q = np.asarray(q, dtype=float)
        t = np.arcsin(np.sqrt(q)) / 3.0
        v = 2.0 * np.sin(t) * np.cos(np.pi / 6.0 - t)
        f = 6.0 * v * (1.0 - v)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f > 0.0, (self.cdf(v) - q) / f, 0.0)
        return np.clip(v - step, 0.0, 1.0)

    def vprime(self, q):
        q = np.clip(np.asarray(q, dtype=float), self._endpoint_delta, 1.0 - self._endpoint_delta)
        val = self.v(q)
        return 1.0 / (6.0 * val * (1.0 - val))


class TabulatedQuantile(ValueDistribution):
    """Quantile function given as monotone (q, v) pairs, linearly
    interpolated; the derivative is numeric."""

    name = "tabulated"

    def __init__(self, qs, vs):
        qs = np.asarray(qs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if qs.ndim != 1 or qs.shape != vs.shape or len(qs) < 2:
            raise ValueError("need matching 1-d arrays of at least 2 points")
        if np.any(np.diff(qs) <= 0):
            raise ValueError("quantile grid must be strictly increasing")
        if np.any(np.diff(vs) < 0):
            raise ValueError("values must be nondecreasing in quantile")
        self._qs = qs
        self._vs = vs
        self._dv = np.gradient(vs, qs)

    def v(self, q):
        return np.interp(np.asarray(q, dtype=float), self._qs, self._vs)

    def vprime(self, q):
        return np.interp(np.asarray(q, dtype=float), self._qs, self._dv)

    @classmethod
    def from_csv(cls, path) -> "TabulatedQuantile":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1])


def make_distribution(name: str) -> ValueDistribution:
    name = name.strip().lower()
    if name in ("uniform", "uniform01"):
        return Uniform01()
    if name == "beta22":
        return Beta22()
    raise ValueError(f"unknown distribution {name!r} (expected 'uniform' or 'beta22')")


def true_revenue(dist: ValueDistribution, rule: AllocationRule, grid: QuantileGrid = DEFAULT_GRID) -> float:
    """Per-agent equilibrium revenue E_q[R(q) x'(q)] by trapezoidal
    quadrature; this is the oracle every estimator is judged against."""
    q = grid.q
    return float(np.trapezoid(dist.revenue(q) * rule.xprime(q), q))


def true_revenue_alt(dist: ValueDistribution, rule: AllocationRule, grid: QuantileGrid = DEFAULT_GRID) -> float:
    """The equivalent form -E_q[R'(q) x(q)]; agreement with true_revenue is a
    quadrature self-check."""
    q = grid.q
    return float(-np.trapezoid(dist.rprime(q) * rule.x(q), q))


def expected_value(dist: ValueDistribution, grid: QuantileGrid = DEFAULT_GRID) -> float:
    q = grid.q
    return float(np.trapezoid(dist.v(q), q))


def order_statistic_stats(
    dist: ValueDistribution, n: int, trials: int = 100_000, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo means and standard errors of the k-th highest of n values,
    k = 1..n.  Deterministic given (seed, trials)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    means = np.zeros(n)
    m2 = np.zeros(n)
    count = 0
    chunk = max(1, min(trials, 20_000_000 // max(n, 1)))
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        vals = dist.v(rng.random((take, n)))
        vals = -np.sort(-vals, axis=1)  # descending: column k-1 is k-th highest
        means += take * vals.mean(axis=0)
        m2 += take * (vals**2).mean(axis=0)
        count += take
        done += take
    means /= count
    var = np.maximum(m2 / count - means**2, 0.0)
    return means, np.sqrt(var / count)


def order_statistic_means(
    dist: ValueDistribution, n: int, trials: int = 100_000, seed: int = 0
) -> np.ndarray:
    """E[v_(k)] for k = 1..n (1 = highest), by Monte Carlo."""
    return order_statistic_stats(dist, n, trials, seed)[0]


def true_welfare(dist: ValueDistribution, w, trials: int = 200_000, seed: int = 0) -> tuple[float, float]:
    """Per-agent social welfare (1/n) sum_k w_k E[v_(k)] of the position
    auction with weights w, with its Monte Carlo standard error."""
    means, ses = order_statistic_stats(dist, w.n, trials, seed)
    sw = float(np.dot(w.w, means) / w.n)
    se = float(np.sqrt(np.dot(w.w**2, ses**2)) / w.n)
    return sw, se
