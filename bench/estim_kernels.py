"""Time each target's revenue estimate in the weight form against the
increment form, and the welfare estimate, and write the figures to
BENCH_estim.json.

    python bench/estim_kernels.py [--baseline DIR] [--repeats 11] [--seed 0]
                                  [--out BENCH_estim.json]

The weight form evaluates the target on all N+1 cell edges and dots
K_{i-1} - K_i with the N sorted bids (SourceGrid.weights, as the Monte Carlo
trials do); the increment form evaluates it only on the edges where the
sorted bids change and dots K with those increments (estimate).
Every case is one payment format, one n in {8, 32, 1024}, one N in
{1e4, 1e5} and one sample:

- ties: N bids drawn from the equilibrium bid curve on its 10^4-point grid,
  as bid files are, so at N = 1e5 at most 10 001 of them are distinct;
- distinct: the same curve interpolated at N sorted uniform quantiles.

The source is the uniform stair mixed with 10% one-unit, whose slope never
vanishes, so both forms estimate every target.  A case reports, as medians
over the repeats, the time to evaluate the source (the full grid, or the
bid increments plus the grid on their edges) and the time per target over
four targets, with the largest relative gap between the two forms' values.

Every welfare case is one n in {8, 32, 256, 1024} at N = 1e4: the same
source and an all-pay ties sample, and the uniform stair's position weights
as the welfare target (whose truth under Beta(2, 2) is 11/35).  It reports
the median time of estimate_welfare and its value.  With --baseline DIR,
the package under DIR/src (another checkout of this repo) is loaded beside
this one and times the same calls, the two taking turns, and the case
records both values and their relative difference.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import auctionab as ab  # noqa: E402
from auctionab.estim import SourceGrid, _bid_steps  # noqa: E402

NS = (8, 32, 1024)
SAMPLE_SIZES = (10_000, 100_000)
WELFARE_NS = (8, 32, 256, 1024)
WELFARE_N = 10_000
GRID = ab.QuantileGrid(10_000)


def load_package(src: Path):
    """The auctionab package under src, imported as auctionab_baseline."""
    init = src / "auctionab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "auctionab_baseline", init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def medians(calls, repeats: int, scale: float) -> list[float]:
    """Median time of each call, the calls taking turns, in 1/scale s.
    Each repeat takes them in a new order (seeded): a call pays for what the
    call before it left behind, so in a fixed order one package's 1e3-bid
    read always followed a file write and read 0.39 ms, against 0.30 ms for
    the same code in the next slot."""
    times = [[] for _ in calls]
    order, rng = list(zip(times, calls)), random.Random(0)
    for _ in range(repeats):
        rng.shuffle(order)
        for t, call in order:
            start = time.perf_counter()
            call()
            t.append(time.perf_counter() - start)
    return [scale * statistics.median(t) for t in times]


def median_ms(fn, repeats: int) -> tuple[float, object]:
    times, value = [], None
    for _ in range(repeats):
        t = time.perf_counter()
        value = fn()
        times.append(1e3 * (time.perf_counter() - t))
    return statistics.median(times), value


def bids_for(curve, N: int, ties: bool, seed: int) -> np.ndarray:
    if ties:
        return curve.draw(N, seed)
    q = np.sort(np.random.default_rng(seed).random(N))
    return np.interp(q, GRID.q, curve.b)


def run_case(fmt: str, n: int, N: int, ties: bool, seed: int, repeats: int) -> dict:
    x = ab.mixture(ab.uniform_stair(n), ab.MultiUnit(1, n), 0.1)
    ys = [ab.MultiUnit(1, n), ab.MultiUnit(n // 2, n), ab.uniform_stair(n), ab.MultiUnit(n - 1, n)]
    bids = bids_for(ab.bid_curve(fmt, ab.Beta22(), x, GRID), N, ties, seed)
    sample = ab.BidSample(fmt, x, bids)

    full_ms, full = median_ms(lambda: SourceGrid(fmt, x, N), repeats)
    steps_ms, (grid, steps) = median_ms(lambda: _bid_steps(sample, x), repeats)
    weight_ms, inc_ms, gap = [], [], 0.0
    for y in ys:
        t_w, w_est = median_ms(lambda: float(full.weights(y) @ bids), repeats)
        t_k, k_est = median_ms(lambda: float(grid.kernel(y) @ steps), repeats)
        weight_ms.append(t_w)
        inc_ms.append(t_k)
        scale = float(np.sum(np.abs(full.weights(y) * bids)))
        gap = max(gap, abs(k_est - w_est) / scale if scale else 0.0)
    return {
        "format": fmt, "n": n, "N": N, "ties": ties, "edges_used": int(len(steps)),
        "source_ms": {"weight": full_ms, "increment": steps_ms},
        "per_target_ms": {"weight": statistics.median(weight_ms),
                          "increment": statistics.median(inc_ms)},
        "max_rel_gap": gap,
    }


def welfare_case(pkgs: dict, n: int, seed: int, repeats: int) -> dict:
    """Time estimate_welfare of each package on one sample at n."""
    x = ab.mixture(ab.uniform_stair(n), ab.MultiUnit(1, n), 0.1)
    bids = bids_for(ab.bid_curve(ab.ALL_PAY, ab.Beta22(), x, GRID), WELFARE_N, True, seed)
    calls = []
    for pkg in pkgs.values():
        px = pkg.mixture(pkg.uniform_stair(n), pkg.MultiUnit(1, n), 0.1)
        sample, w = pkg.BidSample(pkg.ALL_PAY, px, bids), pkg.uniform_stair_weights(n)
        calls.append(lambda pkg=pkg, s=sample, px=px, w=w: pkg.estimate_welfare(s, px, w).point)
    values = [call() for call in calls]
    steps = np.diff(bids, prepend=0.0, append=0.0)
    case = {"n": n, "N": WELFARE_N, "edges_used": int(np.count_nonzero(steps)),
            "ms": dict(zip(pkgs, medians(calls, repeats, 1e3))), "estimate": dict(zip(pkgs, values))}
    if len(values) > 1:
        case["rel_diff"] = abs(values[0] - values[1]) / abs(values[1])
    return case


def describe(repo: Path) -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=repo,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "auctionab": ab.__version__, "numpy": np.__version__, "python": platform.python_version(),
        "machine": platform.machine(), "processor": platform.processor(), "cpus": cpus,
        "commit": commit, "argv": sys.argv, "seed": args.seed, "repeats": args.repeats,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="another checkout whose src/auctionab is timed beside this one")
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(ROOT / "BENCH_estim.json"))
    args = p.parse_args()
    pkgs = {"this": ab}
    if args.baseline:
        pkgs["baseline"] = load_package(Path(args.baseline).resolve() / "src")
    cases = []
    for fmt in (ab.ALL_PAY, ab.FIRST_PRICE):
        for n in NS:
            for N in SAMPLE_SIZES:
                for ties in (True, False):
                    c = run_case(fmt, n, N, ties, args.seed, args.repeats)
                    cases.append(c)
                    print(f"{fmt:10s} n={n:<5d} N={N:<6d} ties={ties!s:5s} edges={c['edges_used']:<6d} "
                          f"target ms {c['per_target_ms']['weight']:8.3f} -> "
                          f"{c['per_target_ms']['increment']:8.3f}  source ms "
                          f"{c['source_ms']['weight']:8.3f} -> {c['source_ms']['increment']:8.3f}  "
                          f"gap {c['max_rel_gap']:.1e}", flush=True)
    welfare = []
    for n in WELFARE_NS:
        c = welfare_case(pkgs, n, args.seed, args.repeats)
        welfare.append(c)
        print(f"welfare    n={n:<5d} N={c['N']:<6d} edges={c['edges_used']:<6d} ms "
              + " ".join(f"{k} {v:8.3f}" for k, v in c["ms"].items())
              + (f"  rel_diff {c['rel_diff']:.1e}" if "rel_diff" in c else ""), flush=True)
    out = {"bench": "estim_kernels", "provenance": provenance(args), "this": describe(ROOT),
           "cases": cases, "welfare": welfare}
    if args.baseline:
        out["baseline"] = describe(Path(args.baseline))
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
