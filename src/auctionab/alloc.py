"""Position environments and their allocation rules in quantile space.

A rank-by-bid position auction with weights w_1 >= ... >= w_n serves the
agent in position i with probability w_i.  Every such auction is a convex
combination of highest-k-bids-win multi-unit auctions, so all allocation
rules here reduce to weighted sums of the multi-unit rules

    x_k(q) = P(at most k-1 of the n-1 rivals have quantile above q),

which are known in closed form and do not depend on the value distribution.
Marginal weights come in runs of equal value (the uniform stair is a single
run), and a run of multi-unit terms sums to a binomial interval probability,
so each rule is evaluated in O(runs) calls instead of O(n).  All evaluators
accept scalars or numpy arrays and are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special


class DegenerateRuleError(ValueError):
    """Raised when an allocation rule is unusable for the requested operation
    (e.g. its derivative vanishes where an estimator must divide by it)."""


def _as_array(q):
    q = np.asarray(q, dtype=float)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("quantile outside [0, 1]")
    return q


def multi_unit_alloc(k: int, n: int, q):
    """Probability that an agent at quantile q is served by the
    highest-k-bids-win auction with n agents.

    x_k(q) = sum_{i=0}^{k-1} C(n-1, i) q^{n-1-i} (1-q)^i, evaluated through
    the regularized incomplete beta function for numerical stability at
    large n.
    """
    if not (1 <= k <= n):
        raise ValueError(f"unit count k={k} outside 1..{n}")
    q = _as_array(q)
    if k == n:
        return np.ones_like(q)
    # sum equals P(Binom(n-1, 1-q) <= k-1) = I_q(n-k, k)
    return special.betainc(n - k, k, q)


def multi_unit_alloc_deriv(k: int, n: int, q):
    """Derivative of multi_unit_alloc with respect to q:
    x_k'(q) = (n-1) C(n-2, k-1) q^{n-1-k} (1-q)^{k-1}, with 0**0 = 1 at the
    endpoints so the derivative is defined on the closed interval.
    """
    if not (1 <= k <= n):
        raise ValueError(f"unit count k={k} outside 1..{n}")
    return _binom_pmf(n - 2, k - 1, _as_array(q), n - 1)


def _binom_pmf(m: int, j: int, q: np.ndarray, scale: int = 1) -> np.ndarray:
    """scale * P(Bin(m, 1-q) = j), the chance that exactly j of m rivals
    have quantile above q (zero for j outside 0..m), in log space so the
    huge coefficient and the vanishing powers cancel before exponentiation.
    log(scale * C(m, j)) is rounded once: math.log takes the exact integer
    beyond the float range.  A power with exponent 0 is never formed, so
    0**0 counts as 1 at the endpoints; log(0) = -inf gives exact zeros.
    """
    if not (0 <= j <= m):
        return np.zeros_like(q)
    e = math.log(scale * math.comb(m, j))
    with np.errstate(divide="ignore", under="ignore"):
        if m - j:
            e = e + (m - j) * np.log(q)
        if j:
            e = e + j * np.log1p(-q)
        return np.exp(e, out=np.empty_like(q))


def _between(m: int, a: int, b: int, q: np.ndarray) -> np.ndarray:
    """P(a <= Bin(m, 1-q) <= b).

    A single point is the pmf.  Otherwise the tails come from the
    regularized incomplete beta function, P(Bin(m, 1-q) <= j) = I_q(m-j, j+1)
    and P(Bin(m, 1-q) >= j) = I_{1-q}(j, m-j+1).  Lower tails are
    differenced where the interval lies below the mean m(1-q), upper tails
    elsewhere, so two values near 1 never cancel.  The upper tails take
    p = 1-q, exact for q >= 1/2 and within half an ulp below; a tail of
    order j <= m amplifies that to at most about m ulps.  (scipy's betaincc
    would stay in q but costs about ten times as much as betainc.)
    """
    a, b = max(a, 0), min(b, m)
    if a > b:
        return np.zeros_like(q)
    if a == 0 and b == m:
        return np.ones_like(q)
    if a == b:
        return _binom_pmf(m, a, q)
    if a == 0:
        return special.betainc(m - b, b + 1, q)
    if b == m:
        return special.betainc(a, m - a + 1, 1.0 - q)
    flat = q.reshape(-1)
    low = b < m * (1.0 - flat)
    ql, pu = flat[low], 1.0 - flat[~low]
    out = np.empty_like(flat)
    out[low] = special.betainc(m - b, b + 1, ql) - special.betainc(m - a + 1, a, ql)
    out[~low] = special.betainc(a, m - a + 1, pu) - special.betainc(b + 1, m - b, pu)
    return out.reshape(q.shape)


@dataclass(frozen=True)
class PositionWeights:
    """Decreasing service probabilities w_1 >= ... >= w_n for n positions."""

    n: int
    w: np.ndarray

    def __init__(self, w):
        w = np.asarray(w, dtype=float)
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("need a vector of at least 2 position weights")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("position weights must lie in [0, 1]")
        if np.any(np.diff(w) > 1e-12):
            raise ValueError("position weights must be nonincreasing")
        object.__setattr__(self, "n", len(w))
        object.__setattr__(self, "w", w)
        self.w.setflags(write=False)


@dataclass(frozen=True)
class MarginalWeights:
    """Increments of the position weights: a probability distribution over
    the number of units served, indexed 0..n."""

    n: int
    wbar: np.ndarray

    def __post_init__(self):
        wbar = np.asarray(self.wbar, dtype=float)
        if len(wbar) != self.n + 1:
            raise ValueError("marginal weights must have n+1 entries")
        if np.any(wbar < -1e-12):
            raise ValueError("marginal weights must be nonnegative")
        if abs(wbar.sum() - 1.0) > 1e-12:
            raise ValueError("marginal weights must sum to 1")
        object.__setattr__(self, "wbar", wbar)
        self.wbar.setflags(write=False)


def marginal_weights(w: PositionWeights) -> MarginalWeights:
    """wbar[0] = 1 - w[1], wbar[k] = w[k] - w[k+1] for k < n, wbar[n] = w[n]."""
    wbar = np.empty(w.n + 1)
    wbar[0] = 1.0 - w.w[0]
    wbar[1:-1] = w.w[:-1] - w.w[1:]
    wbar[-1] = w.w[-1]
    return MarginalWeights(w.n, wbar)


def weights_from_marginals(m: MarginalWeights) -> PositionWeights:
    """Left inverse of marginal_weights: w[k] = sum_{j>=k} wbar[j]."""
    w = np.empty(m.n)
    acc = m.wbar[m.n]
    w[m.n - 1] = acc
    for k in range(m.n - 1, 0, -1):
        acc = m.wbar[k] + acc
        w[k - 1] = acc
    return PositionWeights(w)


#: neighbouring marginal weights this close (relative) belong to one run;
#: the uniform stair's increments are not bit-equal floats
RUN_RTOL = 1e-12


@dataclass(frozen=True)
class AllocationRule:
    """Evaluable allocation rule on [0, 1] with its exact derivative and
    antiderivative.  Immutable; evaluators are pure and thread-safe.

    Every rule is a position rule.  A subclass hands its position weights
    to `_set_weights` at construction, which finds once the runs [k0, k1]
    (k1 <= n-1) of equal nonzero marginal weight and the mass
    w_k0 - w_{k1+1} of each.  The evaluators here sum closed forms over
    those runs; the n-unit term wbar_n = w_n only adds w_n to x and w_n q
    to its integral.
    """

    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _runs: tuple[tuple[int, int, float], ...] = field(init=False, repr=False, compare=False)

    def _set_weights(self, w) -> None:
        w = np.asarray(w, dtype=float)
        wbar = w[:-1] - w[1:]  # wbar[i] is the marginal weight of k = i+1 units
        runs: list[list[int]] = []
        for i in np.flatnonzero(wbar):
            if runs and runs[-1][1] == i - 1 and \
                    abs(wbar[i] - wbar[runs[-1][0]]) <= RUN_RTOL * abs(wbar[runs[-1][0]]):
                runs[-1][1] = i
            else:
                runs.append([i, i])
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_runs", tuple(
            (int(i0) + 1, int(i1) + 1, float(w[i0] - w[i1 + 1])) for i0, i1 in runs))

    def x(self, q):
        q = _as_array(q)
        n = self.n
        out = np.full(q.shape, self._w[-1])
        for k0, k1, mass in self._runs:
            # sum_{k=k0}^{k1} P(C <= k-1) with C ~ Bin(n-1, 1-q) rivals above q
            s = (k1 - k0 + 1) * _between(n - 1, 0, k0 - 1, q)
            if k1 > k0:
                s += (k1 * _between(n - 1, k0, k1 - 1, q)
                      - (n - 1) * (1.0 - q) * _between(n - 2, k0 - 1, k1 - 2, q))
            out += mass / (k1 - k0 + 1) * s
        return out

    def xprime(self, q):
        q = _as_array(q)
        n = self.n
        out = np.zeros_like(q)
        for k0, k1, mass in self._runs:
            # sum_{k=k0}^{k1} x_k' = (n-1) P(k0-1 <= B <= k1-1), B ~ Bin(n-2, 1-q)
            out += mass * (n - 1) / (k1 - k0 + 1) * _between(n - 2, k0 - 1, k1 - 1, q)
        return out

    def xint(self, q):
        """The integral of x over [0, q]."""
        q = _as_array(q)
        n, p = self.n, 1.0 - q
        out = self._w[-1] * q
        for k0, k1, mass in self._runs:
            # n int_0^q x_k = E[(k-D)^+] with D ~ Bin(n, 1-q); over the run that
            # is L E[kbar - D; D < k0] + E[T(k1 - D); k0 <= D < k1], T(e) = e(e+1)/2,
            # with T in factorial moments of D for a low run and of n - D for a
            # high one, which keeps the terms small where k1 - D is
            L, a = k1 - k0 + 1, n - k1
            s = L * ((k0 + k1) / 2 * _between(n, 0, k0 - 1, q)
                     - n * p * _between(n - 1, 0, k0 - 2, q))
            if k0 + k1 >= n:
                s += (a * (a - 1) * _between(n, k0, k1 - 1, q)
                      - 2 * (a - 1) * n * q * _between(n - 1, k0, k1 - 1, q)
                      + n * (n - 1) * q * q * _between(n - 2, k0, k1 - 1, q)) / 2
            else:
                s += (k1 * (k1 + 1) * _between(n, k0, k1 - 1, q)
                      - 2 * k1 * n * p * _between(n - 1, k0 - 1, k1 - 2, q)
                      + n * (n - 1) * p * p * _between(n - 2, k0 - 2, k1 - 3, q)) / 2
            out = out + mass / (L * n) * s
        return out

    def describe(self) -> str:
        raise NotImplementedError

    def _slope_candidates(self) -> list[float]:
        """Quantiles where xprime may attain its supremum, in addition to a
        uniform grid: the endpoints and, for each multi-unit term, the point
        (n-k)/(n-1) and the maximizer (n-1-k)/(n-2) of q^(n-1-k) (1-q)^(k-1)."""
        n = self.n
        cands = {0.0, 1.0}
        for k0, k1, _ in self._runs:
            for k in range(k0, k1 + 1):
                cands.add((n - k) / (n - 1))
                if n > 2:
                    cands.add((n - 1 - k) / (n - 2))
        return sorted(cands)


@dataclass(frozen=True)
class MultiUnit(AllocationRule):
    """Highest-k-bids-win auction with n agents."""

    k: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 agents")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"unit count k={self.k} outside 1..{self.n}")
        self._set_weights(np.arange(self.n) < self.k)

    def describe(self) -> str:
        return f"{self.k}-unit(n={self.n})"


@dataclass(frozen=True)
class Position(AllocationRule):
    """Rank-by-bid position auction: mixture over multi-unit auctions with
    the marginal weights of the position environment."""

    weights: PositionWeights
    marginals: MarginalWeights = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "marginals", marginal_weights(self.weights))
        self._set_weights(self.weights.w)

    @property
    def n(self) -> int:
        return self.weights.n

    def describe(self) -> str:
        return "position(" + ",".join(f"{v:g}" for v in self.weights.w) + ")"


@dataclass(frozen=True)
class Mixture(AllocationRule):
    """Convex combination of allocation rules: the rule of the same convex
    combination of their position weights."""

    components: tuple[tuple[float, AllocationRule], ...]

    def __post_init__(self):
        comps = tuple((float(w), r) for w, r in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        ns = {r.n for _, r in comps}
        if len(ns) != 1:
            raise ValueError(f"mixture components disagree on agent count: {sorted(ns)}")
        if any(w < 0.0 for w, _ in comps):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(w for w, _ in comps) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "components", comps)
        self._set_weights(sum(w * r._w for w, r in comps))

    @property
    def n(self) -> int:
        return self.components[0][1].n

    def describe(self) -> str:
        return "+".join(f"{w:g}*{r.describe()}" for w, r in self.components)


def mixture(a: AllocationRule, b: AllocationRule, eps: float) -> AllocationRule:
    """The test mechanism (1-eps)*a + eps*b."""
    if a.n != b.n:
        raise ValueError(f"agent counts differ: {a.n} vs {b.n}")
    if not (0.0 <= eps <= 1.0):
        raise ValueError("mixture weight must lie in [0, 1]")
    return Mixture(((1.0 - eps, a), (eps, b)))


def uniform_stair_weights(n: int) -> PositionWeights:
    """w_k = (n-k)/(n-1); the induced allocation rule is x(q) = q."""
    if n < 2:
        raise ValueError("need at least 2 agents")
    k = np.arange(1, n + 1)
    return PositionWeights((n - k) / (n - 1))


def uniform_stair(n: int) -> Position:
    return Position(uniform_stair_weights(n))


def universal_b(n: int) -> PositionWeights:
    """Treatment mechanism whose marginal weights put mass 1/2 on the 1-unit
    auction and 1/2 on the (n-1)-unit auction; mixing it into any incumbent
    makes every multi-unit revenue estimable at once.

    Weights are w_1 = 1, w_k = 1/2 for 1 < k <= n-1, w_n = 0.  For n = 3 the
    intermediate range is empty and the vector degenerates to (1, 1/2, 0).
    """
    if n < 3:
        raise ValueError("universal B test needs n >= 3")
    w = np.full(n, 0.5)
    w[0] = 1.0
    w[-1] = 0.0
    return PositionWeights(w)


def max_slope(rule: AllocationRule, grid_size: int = 10_001) -> float:
    """sup_q xprime(q), over a uniform grid plus the analytic maximizers of
    the rule's multi-unit components (the grid alone can miss sharp peaks)."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    qs = np.linspace(0.0, 1.0, grid_size)
    cands = np.asarray(sorted(set(rule._slope_candidates())))
    return float(max(rule.xprime(qs).max(), rule.xprime(cands).max()))


def parse_rule(text: str, n: int) -> AllocationRule:
    """Build an allocation rule from a config entry.

    Recognized: "one-unit", "k-unit:K", "uniform-stair", "universal-b", or a
    comma-separated decreasing list of position weights.
    """
    text = text.strip().lower()
    if text == "one-unit":
        return MultiUnit(1, n)
    if text.startswith("k-unit:"):
        return MultiUnit(int(text.split(":", 1)[1]), n)
    if text == "uniform-stair":
        return uniform_stair(n)
    if text == "universal-b":
        return Position(universal_b(n))
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"unrecognized rule spec: {text!r}") from None
    if len(values) != n:
        raise ValueError(f"expected {n} position weights, got {len(values)}")
    return Position(PositionWeights(values))
