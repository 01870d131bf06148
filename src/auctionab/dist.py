"""Value distributions in quantile space, revenue curves, and ground-truth
revenue/welfare oracles.

The quantile q of a value v is F(v); the value function v(q) = F^{-1}(q) and
the revenue curve R(q) = v(q) (1 - q) carry everything the estimators need.
Ground truths, revenue and welfare alike, are computed by trapezoidal
quadrature on a uniform grid.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .alloc import AllocationRule, Position, PositionWeights


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


def _revenue(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R(q) = v(q)(1-q) from the values v at q; R(0) = R(1) = 0 by convention."""
    return np.where((q == 0.0) | (q == 1.0), 0.0, v * (1.0 - q))


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
        return _revenue(q, self.v(q))

    def rprime(self, q):
        q = np.asarray(q, dtype=float)
        return self.vprime(q) * (1.0 - q) - self.v(q)


class _Unparametrized(ValueDistribution):
    """A distribution without parameters: all instances of a class are equal."""

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))


class Uniform01(_Unparametrized):
    name = "uniform"

    def v(self, q):
        return np.asarray(q, dtype=float)

    def vprime(self, q):
        return np.ones_like(np.asarray(q, dtype=float))


class Beta22(_Unparametrized):
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
    """Quantile function given as monotone (q, v) pairs from q = 0 to q = 1,
    linearly interpolated; the derivative is numeric."""

    name = "tabulated"

    def __init__(self, qs, vs):
        qs = np.asarray(qs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if qs.ndim != 1 or qs.shape != vs.shape or len(qs) < 2:
            raise ValueError("need matching 1-d arrays of at least 2 points")
        if np.any(np.diff(qs) <= 0):
            raise ValueError("quantile grid must be strictly increasing")
        if qs[0] != 0.0 or qs[-1] != 1.0:
            raise ValueError("quantile grid must start at q = 0 and end at q = 1")
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
        """The table in a CSV file: a 'q,v' header line, then one q,v pair a line."""
        with open(path) as f:
            header = f.readline()
        if header.strip() != "q,v":
            raise ValueError(f"quantile file {path} must start with the header line 'q,v'")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(f"quantile file {path} must hold q,v pairs under its header")
        return cls(data[:, 0], data[:, 1])


@functools.lru_cache(maxsize=8)
def grid_values(dist: ValueDistribution, grid: QuantileGrid) -> np.ndarray:
    """v on the grid's points, read-only.  Each distribution and grid is
    evaluated once: all instances of Uniform01, and of Beta22, compare
    equal, so the Monte Carlo cells share one evaluation, for the bid curve
    and the oracle alike."""
    v = dist.v(grid.q)
    v.setflags(write=False)
    return v


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
    return float(np.trapezoid(_revenue(q, grid_values(dist, grid)) * rule.xprime(q), q))


def true_revenue_alt(dist: ValueDistribution, rule: AllocationRule, grid: QuantileGrid = DEFAULT_GRID) -> float:
    """The equivalent form -E_q[R'(q) x(q)]; agreement with true_revenue is a
    quadrature self-check."""
    q = grid.q
    return float(-np.trapezoid(dist.rprime(q) * rule.x(q), q))


def expected_value(dist: ValueDistribution, grid: QuantileGrid = DEFAULT_GRID) -> float:
    q = grid.q
    return float(np.trapezoid(grid_values(dist, grid), q))


def true_welfare(dist: ValueDistribution, w: PositionWeights, grid: QuantileGrid = DEFAULT_GRID) -> float:
    """Per-agent social welfare (1/n) sum_k w_k E[v_(k)] of the position
    auction with weights w: E_q[v(q) x_w(q)], x_w the rule that serves the
    agent at quantile q, by trapezoidal quadrature."""
    q = grid.q
    return float(np.trapezoid(grid_values(dist, grid) * Position(w).x(q), q))
