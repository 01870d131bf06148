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
import re
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alloc import AllocationRule, DegenerateRuleError, check, read_only
from .dist import DEFAULT_GRID, QuantileGrid, ValueDistribution, grid_values

ALL_PAY = "allpay"
FIRST_PRICE = "firstprice"

#: below this slope the inversion reports a gap instead of dividing
EPS_SLOPE = 1e-9

#: below this allocation probability the first-price bid is set by continuity
EPS_ALLOC = 1e-12

#: rows write_bid_csv formats per write: a few hundred kB of text at a time
CSV_CHUNK = 2**14


@dataclass(frozen=True)
class BidCurve:
    """Equilibrium bid at each grid quantile for one payment format: a
    finite, nonnegative and nondecreasing vector, as the equilibrium bid
    function is in both formats (b' = v x' >= 0 all-pay, and
    b' = (v - b) x'/x >= 0 first-price).  Any other vector raises
    ValueError."""

    format: str
    rule: AllocationRule
    grid: QuantileGrid
    b: np.ndarray

    def __post_init__(self):
        if self.format not in (ALL_PAY, FIRST_PRICE):
            raise ValueError(f"unknown payment format {self.format!r}")
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or len(b) != self.grid.m + 1:
            raise ValueError("bid vector does not match grid")
        if not np.all(np.isfinite(b)):
            raise ValueError("bid curve must be finite (found nan or inf)")
        if b[0] < 0:
            raise ValueError("bid curve must be nonnegative")
        if np.any(b[1:] < b[:-1]):
            raise ValueError("bid curve must be nondecreasing")
        object.__setattr__(self, "b", read_only(b, self.b))

    def counts(self, N: int, seed) -> np.ndarray:
        """How often each grid index is drawn among N uniform draws with
        replacement: the bincount, of length m + 1 and sum N, of the default
        int64 index draw of numpy's default_rng(seed), whose indices `draw`
        sorts, so np.repeat(b, counts(N, seed)) is draw(N, seed)."""
        check("N", N)
        rng = np.random.default_rng(seed)
        # bincount wants intp indices
        return np.bincount(rng.integers(0, len(self.b), size=N), minlength=len(self.b))

    def draw(self, N: int, seed) -> np.ndarray:
        """N bids drawn with replacement from the grid bids (uniform quantile
        indices mapped through the curve), sorted ascending: the grid bids
        at the sorted drawn indices, `b.take(np.sort(idx))`, where idx is
        the default int64 draw.

        Deterministic given the seed.  The generator is numpy's default_rng
        (PCG64); `seed` may be an int or a numpy SeedSequence, which is how
        the Monte Carlo harness derives independent per-trial streams.

        The indices are drawn as int32, sorted, then gathered; numpy draws
        both widths with the same 32-bit Lemire step, so idx is unchanged.
        Monte Carlo trials with many more draws than grid bids estimate
        from `counts` instead (harness.trial_estimates).
        """
        check("N", N)
        b = self.b
        idx = np.random.default_rng(seed).integers(0, len(b), size=N, dtype=np.int32)
        idx.sort()
        return b.take(idx)


@dataclass(frozen=True)
class BidSample:
    """Sorted i.i.d. sample of bids from the auction that generated them."""

    format: str
    rule: AllocationRule
    bids: np.ndarray

    def __post_init__(self):
        if self.format not in (ALL_PAY, FIRST_PRICE):
            raise ValueError(f"unknown payment format {self.format!r}")
        bids = np.asarray(self.bids, dtype=float)
        if bids.ndim != 1 or len(bids) == 0:
            raise ValueError("need a nonempty 1-d bid vector")
        if not np.all(np.isfinite(bids)):
            raise ValueError("bids must be finite (found nan or inf)")
        if np.any(np.diff(bids) < 0):
            bids = np.sort(bids)
        if bids[0] < 0:
            raise ValueError("bids must be nonnegative")
        object.__setattr__(self, "bids", read_only(bids, self.bids))

    @property
    def n(self) -> int:
        return self.rule.n

    @property
    def size(self) -> int:
        return len(self.bids)


def _cumulative_trapezoid(y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over q, starting at 0: the same
    floating-point expression as scipy's cumulative_trapezoid(initial=0)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(q) * (y[1:] + y[:-1]) / 2.0)))


def bid_curve(
    fmt: str, dist: ValueDistribution, rule: AllocationRule, grid: QuantileGrid = DEFAULT_GRID
) -> BidCurve:
    """The equilibrium bids of format fmt on the grid: the all-pay integral
    int_0^q v x' dt, which for first-price is divided by x(q).  Where x is
    below EPS_ALLOC (near q = 0 alone) the first-price bid is v(0)."""
    q = grid.q
    b = _cumulative_trapezoid(grid_values(dist, grid) * rule.xprime(q), q)
    if fmt == FIRST_PRICE:
        xq = rule.x(q)
        dead = xq < EPS_ALLOC
        if np.any(dead & (q > 0.5)):
            raise DegenerateRuleError("allocation rule vanishes away from q=0; no first-price bid curve")
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.where(dead, float(dist.v(0.0)), b / np.where(dead, 1.0, xq))
        # on a flat stretch S/x can round down an ulp at a time; BidCurve
        # takes only nondecreasing bids, so lift those to the running maximum
        if np.any(b[1:] < b[:-1]):
            np.maximum.accumulate(b, out=b)
    b.setflags(write=False)  # no one else holds it, so BidCurve need not copy it
    return BidCurve(fmt, rule, grid, b)


def invert(curve: BidCurve) -> np.ndarray:
    """Recover v(q) on the curve's grid: b'(q)/x'(q) for all-pay and
    b(q) + x(q) b'(q)/x'(q) for first-price.  Quantiles where the rule's
    slope is below EPS_SLOPE are reported as NaN gaps, never interpolated
    silently."""
    if curve.grid.m < 2:
        raise ValueError("inverting a bid curve needs a grid of at least 2 cells, "
                         f"got {curve.grid.m}")
    rule, q = curve.rule, curve.grid.q
    xp = rule.xprime(q)
    ok = xp > EPS_SLOPE
    # central differences inside, second-order one-sided at the endpoints
    bp = np.gradient(curve.b, q, edge_order=2)[ok]
    out = np.full_like(curve.b, np.nan)
    if curve.format == ALL_PAY:
        out[ok] = bp / xp[ok]
    else:
        out[ok] = curve.b[ok] + rule.x(q)[ok] * bp / xp[ok]
    return out


def sample_bids(curve: BidCurve, N: int, seed) -> BidSample:
    """The sample of `curve.draw(N, seed)`: N bids drawn with replacement
    from the grid bids, sorted ascending, deterministic given the seed."""
    return BidSample(curve.format, curve.rule, curve.draw(N, seed))


def _weights_text(rule: AllocationRule) -> str:
    """The rule's position weights as a sidecar records them: %.17g, comma
    separated, so equal text means equal bits (and --source accepts it)."""
    return ",".join("%.17g" % v for v in rule.w)


def write_bid_csv(sample: BidSample, csv_path) -> None:
    """One-column CSV with header 'bid', plus two files beside it under the
    same name: a .npy copy of the float64 bids, and a JSON sidecar (suffix
    .json) recording the payment format, agent count, generating rule and
    its position weights, the sample size N, the CSV's byte length and
    CRC-32, and the CRC-32 of the copy's payload.  read_bid_csv loads the
    copy only while the sidecar vouches for both files."""
    csv_path = Path(csv_path)
    side, npy = csv_path.with_suffix(".json"), csv_path.with_suffix(".npy")
    if csv_path in (side, npy):
        raise ValueError(f"bid file {csv_path} would overwrite its sidecar or its .npy copy")
    bids = np.ascontiguousarray(sample.bids)
    # np.savetxt's bytes, formatted a chunk at a time instead of a row at a time
    size, crc = 4, zlib.crc32(b"bid\n")
    with open(csv_path, "wb") as f:
        f.write(b"bid\n")
        for i in range(0, len(bids), CSV_CHUNK):
            part = bids[i:i + CSV_CHUNK]
            # runs of equal bits in the sorted chunk (-0.0 and 0.0 differ):
            # where they number at most two thirds of its rows, each run's bid
            # is formatted once and its line repeated; splitting and joining
            # the lines costs more than formatting the rows it saves otherwise
            bits = part.view(np.uint64)
            starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
            if 3 * (len(starts) + 1) > 2 * len(part):
                text = "%.17g\n" * len(part) % tuple(part.tolist())
            else:
                starts = np.concatenate(([0], starts))
                heads = part[starts].tolist()
                lines = ("%.17g\n" * len(heads) % tuple(heads)).splitlines(keepends=True)
                text = "".join(map(str.__mul__, lines, np.diff(starts, append=len(part)).tolist()))
            data = text.encode()
            f.write(data)
            size, crc = size + len(data), zlib.crc32(data, crc)
    with open(npy, "wb") as f:
        np.save(f, bids)
    # written last: until it is, no sidecar vouches for the new files
    side.write_text(json.dumps({
        "format": sample.format, "n": sample.n, "rule": sample.rule.describe(),
        "weights": _weights_text(sample.rule), "N": len(bids),
        "csv_bytes": size, "csv_crc32": crc, "npy_crc32": zlib.crc32(bids),
    }, indent=2))


def _saved_bids(csv_path: Path, data: bytes, meta: dict) -> np.ndarray | None:
    """The bids of the .npy copy beside csv_path, or None unless the sidecar
    meta records data's length and CRC-32 and the copy holds N float64 bids
    whose CRC-32 it records too."""
    try:
        shape, crc = (meta["N"],), meta["npy_crc32"]
        with open(csv_path.with_suffix(".npy"), "rb") as f:
            if meta["csv_bytes"] != len(data) or meta["csv_crc32"] != zlib.crc32(data):
                return None
            # the .npy reader np.load uses, without np.load's turn to pickles and zips
            bids = np.lib.format.read_array(f, allow_pickle=False)
    except (KeyError, OSError, ValueError, EOFError):
        return None
    if bids.dtype != np.float64 or bids.shape != shape or zlib.crc32(bids) != crc:
        return None
    return bids


def read_bid_csv(csv_path, fmt: str, rule: AllocationRule) -> BidSample:
    """The sample in a file written by write_bid_csv: a 'bid' header line,
    then one bid a line, read as bids of format fmt from the source rule.

    The JSON sidecar beside the file is checked first: one that records
    another format or agent count raises ValueError, and one that records
    other position weights issues a UserWarning.  A missing sidecar, or one
    without the field, checks nothing.  The header is checked on the file's
    bytes; the bids come from its .npy copy when the sidecar's lengths and
    CRC-32s match the file and the copy, and from parsing the text
    otherwise, so an edited CSV always wins over a stale copy.  Both give
    the same bits, and the sample makes the same checks on either."""
    path = Path(csv_path)
    try:
        meta = json.loads(path.with_suffix(".json").read_bytes())
    except (OSError, ValueError):
        meta = None
    meta = meta if isinstance(meta, dict) else {}
    for key, given in (("format", fmt), ("n", rule.n)):
        if key in meta and meta[key] != given:
            raise ValueError(f"bid file {csv_path} records {key} {meta[key]!r} in its sidecar, "
                             f"but {key} {given!r} was given")
    if "weights" in meta and meta["weights"] != _weights_text(rule):
        warnings.warn(f"bid file {csv_path} records source {meta.get('rule')!r} in its sidecar, "
                      f"but {rule.describe()!r} was given", stacklevel=2)
    data = path.read_bytes()
    # the first line ends at \n, \r or \r\n, as a text-mode readline sees it
    if re.match(rb"[^\r\n]*", data).group().strip() != b"bid":
        raise ValueError(f"bid file {csv_path} must start with the header line 'bid'")
    bids = _saved_bids(path, data, meta)
    if bids is None:
        with warnings.catch_warnings():
            # numpy warns before returning no rows; the error below says it instead
            warnings.simplefilter("ignore", UserWarning)
            # given the path, loadtxt reads a quarter faster than from an open text file
            bids = np.loadtxt(csv_path, skiprows=1, ndmin=1)
    if bids.size == 0:
        raise ValueError(f"bid file {csv_path} holds no bids")
    bids.setflags(write=False)  # no one else holds it, so BidSample need not copy it
    return BidSample(fmt, rule, bids)
