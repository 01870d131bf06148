"""Value distributions in quantile space and ground-truth revenue/welfare
oracles.

The quantile q of a value v is F(v); a distribution is given by its value
function v(q) = F^{-1}(q): uniform on [0, 1] or Beta(2, 2).  Ground truths
are trapezoidal quadratures on a uniform grid, of the revenue curve
R(q) = v(q) (1 - q) against x'(q) for revenue and of v(q) x(q) for welfare.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .alloc import AllocationRule, check


@dataclass(frozen=True)
class QuantileGrid:
    """Uniform partition of [0, 1] with m cells (m+1 points)."""

    m: int

    def __post_init__(self):
        check("grid_m", self.m)

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


# frozen dataclasses without fields: all instances of a class are equal and
# hash alike, so grid_values evaluates each distribution once
@dataclass(frozen=True)
class Uniform01(ValueDistribution):
    name = "uniform"

    def v(self, q):
        return np.asarray(q, dtype=float)


@dataclass(frozen=True)
class Beta22(ValueDistribution):
    """Beta(2, 2) values: density f(v) = 6v(1-v), CDF F(v) = 3v^2 - 2v^3.

    The quantile function is the trigonometric root of the cubic,
    1/2 + sin(arcsin(2q-1)/3) = 2 sin(t) cos(pi/6 - t) with t = arcsin(sqrt q)/3
    (exact at q = 0 and relatively precise for small q), plus one Newton step.
    """

    name = "beta22"

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


def expected_value(dist: ValueDistribution, grid: QuantileGrid = DEFAULT_GRID) -> float:
    q = grid.q
    return float(np.trapezoid(grid_values(dist, grid), q))


def true_welfare(dist: ValueDistribution, y: AllocationRule, grid: QuantileGrid = DEFAULT_GRID) -> float:
    """Per-agent social welfare (1/n) sum_k w_k E[v_(k)] of the position
    auction y with weights w: E_q[v(q) y(q)] by trapezoidal quadrature."""
    q = grid.q
    return float(np.trapezoid(grid_values(dist, grid) * y.x(q), q))
