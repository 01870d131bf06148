"""Position environments and their allocation rules in quantile space.

A rank-by-bid position auction with weights w_1 >= ... >= w_n serves the
agent in position i with probability w_i.  Every such auction is a convex
combination of highest-k-bids-win multi-unit auctions, so all allocation
rules here reduce to weighted sums of the multi-unit rules

    x_k(q) = P(at most k-1 of the n-1 rivals have quantile above q),

which are known in closed form and do not depend on the value distribution.
Marginal weights come in runs of equal value (the uniform stair is a single
run), and a run of multi-unit terms sums to a binomial interval probability,
so each rule is evaluated in O(runs) calls instead of O(n).  Binomial tails
come from _ibeta, the regularized incomplete beta function at integer
parameters, in numpy alone: closed forms where a parameter is at most 2, and
otherwise the finite sum of the binomial pmf terms, each point stopping once
its terms no longer move its sum.  All evaluators accept scalars or numpy arrays
and are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DegenerateRuleError(ValueError):
    """Raised when an allocation rule is unusable for the requested operation
    (e.g. its derivative vanishes where an estimator must divide by it)."""


#: the numeric inputs the library and the CLI accept: name -> (test, message);
#: NaN fails every test
LIMITS = {
    "n": (lambda v: v >= 2, "need at least 2 agents (n >= 2)"),
    "N": (lambda v: v >= 1, "sample size N must be at least 1"),
    "trials": (lambda v: v >= 1, "trials must be at least 1"),
    "grid_m": (lambda v: v >= 1, "grid_m must be at least 1"),
    "eps": (lambda v: 0.0 < v <= 1.0, "eps must lie in (0, 1]"),
    "alpha": (lambda v: 0.0 < v < math.inf, "alpha must be positive and finite"),
}


def check(name: str, value):
    """value, if it passes LIMITS[name]; otherwise ValueError with its message."""
    test, message = LIMITS[name]
    if not test(value):
        raise ValueError(message)
    return value


def _as_array(q):
    q = np.asarray(q, dtype=float)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("quantile outside [0, 1]")
    return q


def _binom_pmf(m: int, j: int, q: np.ndarray) -> np.ndarray:
    """P(Bin(m, 1-q) = j), the chance that exactly j of m rivals
    have quantile above q (zero for j outside 0..m), in log space so the
    huge coefficient and the vanishing powers cancel before exponentiation.
    log C(m, j) is rounded once: math.log takes the exact integer beyond
    the float range.  A power with exponent 0 is never formed, so
    0**0 counts as 1 at the endpoints; log(0) = -inf gives exact zeros.
    """
    if not (0 <= j <= m):
        return np.zeros_like(q)
    e = math.log(math.comb(m, j))
    with np.errstate(divide="ignore", under="ignore"):
        if m - j:
            e = e + (m - j) * np.log(q)
        if j:
            e = e + j * np.log1p(-q)
        return np.exp(e, out=np.empty_like(q))


#: I_x(2, b) sums its pmf terms where b x < _FAR_ODDS (1 - x), the far tail
#: in which 1 - (1-x)^b (1 + b x) would cancel
_FAR_ODDS = 0.125
#: _tail_sum stops a point once a term, tested every _TAIL_STRIDE terms, is
#: at most _TAIL_RTOL of its sum
_TAIL_RTOL, _TAIL_STRIDE = 1e-17, 4


def _ibeta(a: int, b: int, x: np.ndarray) -> np.ndarray:
    """The regularized incomplete beta function at integer a, b >= 1,
    I_x(a, b) = P(Bin(a+b-1, x) >= a), for x in [0, 1], with exact 0 and 1
    at the ends.

    min(a, b) <= 2 has closed forms whose terms are all positive, so a small
    tail keeps its relative accuracy: I_x(a, 1) = x^a, I_x(1, b) = 1 - (1-x)^b
    through expm1, I_x(a, 2) = x^a (1 + a(1-x)), and I_x(2, b) =
    1 - (1-x)^b (1 + b x) away from the far tail.  That far tail and every
    tail with a, b > 2 go to the finite pmf sum _tail_sum: I_x(a, b) below
    the swap point (a+1)/(a+b+2), 1 - I_{1-x}(b, a) above it.
    """
    with np.errstate(divide="ignore", under="ignore"):
        if b == 1:
            return x ** a
        if a == 1:
            return 0.0 - np.expm1(b * np.log1p(-x))
        if b == 2:
            return x ** a * (1.0 + a * (1.0 - x))
        flat = x.reshape(-1)
        if a == 2:
            out = 1.0 - np.exp(b * np.log1p(-flat)) * (1.0 + b * flat)
            far = np.flatnonzero(b * flat < _FAR_ODDS * (1.0 - flat))
            if far.size:
                out[far] = _tail_sum(2, b, flat[far])
        else:
            out = np.empty_like(flat)
            swap = flat >= (a + 1.0) / (a + b + 2.0)
            out[~swap] = _tail_sum(a, b, flat[~swap])
            out[swap] = 1.0 - _tail_sum(b, a, 1.0 - flat[swap])
    return out.reshape(x.shape)[()]


def _tail_sum(a: int, b: int, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) = sum_{j=a}^{m} P(Bin(m, x) = j), m = a+b-1, for 1-d x below
    (a+1)/(a+b), where the terms fall from j = a: the first is the log-space
    pmf, 0 where it underflows, and each next one is the last times
    (m-j)/(j+1) x/(1-x).  Finished points leave the arrays once they are
    half of them; until then their terms, below half an ulp of their sums,
    leave the sums unchanged, so no point depends on the others."""
    m = a + b - 1
    out = _binom_pmf(m, b - 1, x)
    live = np.flatnonzero(out)
    total = out[live]
    term, r = total.copy(), x[live] / (1.0 - x[live])
    for j in range(a, m):
        term *= r
        term *= (m - j) / (j + 1)
        total += term
        if (j - a) % _TAIL_STRIDE == _TAIL_STRIDE - 1:
            done = term <= _TAIL_RTOL * total
            finished = np.count_nonzero(done)
            if finished == done.size:
                break
            if 2 * finished >= done.size:
                out[live[done]] = total[done]
                live, total, term, r = (v[~done] for v in (live, total, term, r))
    out[live] = total
    return out


def _between(m: int, a: int, b: int, q: np.ndarray) -> np.ndarray:
    """P(a <= Bin(m, 1-q) <= b).

    A single point is the pmf.  Otherwise the tails come from the
    regularized incomplete beta function, P(Bin(m, 1-q) <= j) = I_q(m-j, j+1)
    and P(Bin(m, 1-q) >= j) = I_{1-q}(j, m-j+1).  Lower tails are
    differenced where the interval lies below the mean m(1-q), upper tails
    elsewhere, so two values near 1 never cancel.  The upper tails take
    p = 1-q, exact for q >= 1/2 and within half an ulp below; a tail of
    order j <= m amplifies that to at most about m ulps.  Each tail comes from
    _ibeta with its relative accuracy, so a difference of two small tails is
    as accurate as the two are.
    """
    a, b = max(a, 0), min(b, m)
    if a > b:
        return np.zeros_like(q)
    if a == 0 and b == m:
        return np.ones_like(q)
    if a == b:
        return _binom_pmf(m, a, q)
    if a == 0:
        return _ibeta(m - b, b + 1, q)
    if b == m:
        return _ibeta(a, m - a + 1, 1.0 - q)
    flat = q.reshape(-1)
    low = b < m * (1.0 - flat)
    ql, pu = flat[low], 1.0 - flat[~low]
    out = np.empty_like(flat)
    out[low] = _ibeta(m - b, b + 1, ql) - _ibeta(m - a + 1, a, ql)
    out[~low] = _ibeta(a, m - a + 1, pu) - _ibeta(b + 1, m - b, pu)
    return out.reshape(q.shape)


def read_only(a: np.ndarray, given) -> np.ndarray:
    """a with writes disabled.  When a shares memory with given, the caller's
    writable array, a copy is frozen instead, so the caller keeps a writable
    array and its later writes do not reach the stored one; a read-only
    input is kept as it is."""
    if isinstance(given, np.ndarray) and given.flags.writeable and np.may_share_memory(a, given):
        a = a.copy()
    a.setflags(write=False)
    return a


#: neighbouring marginal weights this close (relative) belong to one run;
#: the uniform stair's increments are not bit-equal floats
RUN_RTOL = 1e-12
#: two members of one run differ by at most 2 RUN_RTOL / (1 - RUN_RTOL) of
#: either, so a step larger than this (relative to the entry before it) ends
#: every run; the factor 2 to spare covers rounding
_RUN_STEP = 4 * RUN_RTOL


def _run_bounds(wbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts i0 and ends i1 (exclusive) of the runs of wbar: the maximal
    stretches of nonzero entries in which each entry lies within RUN_RTOL
    (relative) of the stretch's first, a new run starting at the first entry
    that does not.

    wbar is cut where a step exceeds _RUN_STEP, which no run crosses, and so
    at every step to or from zero.  A piece whose largest and smallest
    entries lie within RUN_RTOL of its first is one run (a difference is
    exact wherever it is near the tolerance, so the extremes stand for every
    entry); the rare piece that drifts further is walked entry by entry.
    Pieces of zeros are dropped.
    """
    a = np.abs(wbar)
    cut = np.empty(len(wbar) + 1, dtype=bool)  # cut[i]: a piece starts at i
    cut[0] = cut[-1] = True
    np.greater(np.abs(wbar[1:] - wbar[:-1]), _RUN_STEP * a[:-1], out=cut[1:-1])
    edges = cut.nonzero()[0]
    i0 = edges[:-1]
    first, tol = wbar[i0], RUN_RTOL * a[i0]
    drift = (np.maximum.reduceat(wbar, i0) - first > tol) | \
        (first - np.minimum.reduceat(wbar, i0) > tol)
    walk = drift.nonzero()[0].tolist()
    for k in walk:
        piece = wbar[edges[k]:edges[k + 1]].tolist()
        head = piece[0]
        for j, v in enumerate(piece):
            if abs(v - head) > RUN_RTOL * abs(head):
                cut[edges[k] + j] = True
                head = v
    if walk:
        edges = cut.nonzero()[0]
        i0 = edges[:-1]
        first = wbar[i0]
    live = first.nonzero()[0]
    return i0[live], edges[1:][live]


@dataclass(frozen=True, eq=False)
class AllocationRule:
    """Evaluable allocation rule on [0, 1] with its exact derivative and
    antiderivative.  Immutable; evaluators are pure and thread-safe.

    Every rule is a position rule, i.e. its vector w of position weights
    w_1 >= ... >= w_n (read-only); two rules are equal when their weight
    vectors are.  The weights number at least 2, each in [0, 1] (so no
    NaN), none above its predecessor by more than rounding.  Build rules
    from their weights, or with MultiUnit, Mixture or parse_rule.
    Construction finds once the runs [k0, k1] (k1 <= n-1) of equal
    nonzero marginal weight and the mass w_k0 - w_{k1+1} of each.  A run
    takes each next weight within RUN_RTOL (relative) of its first; the runs
    are found in a fixed number of numpy calls (_run_bounds), with a Python
    step per weight only where weights drift across RUN_RTOL.  The
    evaluators here sum closed forms over those runs; the n-unit term
    wbar_n = w_n only adds w_n to x and w_n q to its integral.
    """

    w: np.ndarray
    #: what describe() names: k for a multi-unit rule, the (weight, rule)
    #: components of a mixture, None for a rule named by its weights
    _label: object = None
    _runs: tuple[tuple[int, int, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        w = read_only(np.asarray(self.w, dtype=float), self.w)
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("need a vector of at least 2 position weights")
        if not ((w >= 0.0) & (w <= 1.0)).all():
            raise ValueError("position weights must lie in [0, 1]")
        # entry i of the steps is the marginal weight of k = i+1 units, so the
        # run [i0, i1) of steps is the run k0 = i0+1 .. k1 = i1 of terms
        wbar = w[:-1] - w[1:]
        if (wbar < -1e-12).any():
            raise ValueError("position weights must be nonincreasing")
        i0, i1 = _run_bounds(wbar)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "_runs", tuple(zip(
            (i0 + 1).tolist(), i1.tolist(), (w[i0] - w[i1]).tolist())))

    def __eq__(self, other):
        if not isinstance(other, AllocationRule):
            return NotImplemented
        return np.array_equal(self.w, other.w)

    def __hash__(self):
        # hash(-0.0) == hash(0.0), as == needs; the bytes of the two differ
        return hash(tuple(self.w.tolist()))

    def __reduce__(self):
        # rebuilt through the constructor, so the weights come back read-only
        return AllocationRule, (self.w, self._label)

    @property
    def n(self) -> int:
        return len(self.w)

    def x(self, q):
        q = _as_array(q)
        n = self.n
        out = np.full(q.shape, self.w[-1])
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
        out = self.w[-1] * q
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
        label = self._label
        if label is None:
            return "position(" + ",".join(f"{v:g}" for v in self.w) + ")"
        if isinstance(label, int):
            return f"{label}-unit(n={self.n})"
        return "+".join(f"{c:g}*{r.describe()}" for c, r in label)


def MultiUnit(k: int, n: int) -> AllocationRule:
    """Highest-k-bids-win auction with n agents."""
    check("n", n)
    if not (1 <= k <= n):
        raise ValueError(f"unit count k={k} outside 1..{n}")
    return AllocationRule(np.arange(n) < k, int(k))


def Mixture(components) -> AllocationRule:
    """Convex combination of allocation rules: the rule of the same convex
    combination of their position weights.  The combined weights are divided
    by the coefficient sum (within 1e-9 of 1), so no rule serves above 1."""
    comps = tuple((float(w), r) for w, r in components)
    if not comps:
        raise ValueError("mixture needs at least one component")
    ns = {r.n for _, r in comps}
    if len(ns) != 1:
        raise ValueError(f"mixture components disagree on agent count: {sorted(ns)}")
    if any(w < 0.0 for w, _ in comps):
        raise ValueError("mixture weights must be nonnegative")
    total = sum(w for w, _ in comps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError("mixture weights must sum to 1")
    return AllocationRule(sum(w * r.w for w, r in comps) / total, comps)


def mixture(a: AllocationRule, b: AllocationRule, eps: float) -> AllocationRule:
    """The test mechanism (1-eps)*a + eps*b."""
    return Mixture(((1.0 - eps, a), (eps, b)))


def uniform_stair(n: int) -> AllocationRule:
    """The rule with weights w_k = (n-k)/(n-1), which is x(q) = q."""
    check("n", n)
    k = np.arange(1, n + 1)
    return AllocationRule((n - k) / (n - 1))


#: the stair's older name, which the benchmark workloads call
uniform_stair_weights = uniform_stair


def universal_b(n: int) -> AllocationRule:
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
    return AllocationRule(w)


#: points of the uniform quantile grid that slope suprema are taken over
SLOPE_GRID = 10_001


def slope_scan(rule: AllocationRule, lo: float = 0.0, hi: float = 1.0) -> tuple[float, np.ndarray]:
    """(max_slope(rule), xprime at the SLOPE_GRID uniform quantiles clipped
    into [lo, hi]) from one evaluation of xprime.  xprime is elementwise, so
    the clipped values are those at lo, at hi and at the grid points."""
    n = rule.n
    k = np.concatenate([np.arange(k0, k1 + 1) for k0, k1, _ in rule._runs] or [[]])
    peaks = [(n - k) / (n - 1)] + ([(n - 1 - k) / (n - 2)] if n > 2 else [])
    q = np.linspace(0.0, 1.0, SLOPE_GRID)
    v = rule.xprime(np.concatenate([q, *peaks, [lo, hi]]))
    clipped = np.where(q < lo, v[-2], np.where(q > hi, v[-1], v[:SLOPE_GRID]))
    return float(v[:-2].max()), clipped


def max_slope(rule: AllocationRule) -> float:
    """sup_q xprime(q), over SLOPE_GRID uniform quantiles plus, for each
    multi-unit term k of the rule's runs, the point (n-k)/(n-1) and the
    maximizer (n-1-k)/(n-2) of q^(n-1-k) (1-q)^(k-1) (the grid alone can
    miss sharp peaks)."""
    return slope_scan(rule)[0]


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
        return universal_b(n)
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"unrecognized rule spec: {text!r}") from None
    if len(values) != n:
        raise ValueError(f"expected {n} position weights, got {len(values)}")
    return AllocationRule(values)
