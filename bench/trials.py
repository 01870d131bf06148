"""Time one Monte Carlo trial in the sort form against the count form, on
both sides of the counting boundary, and write the figures to
BENCH_trials.json.

    python bench/trials.py [--baseline DIR] [--repeats 11] [--trials 10]
                           [--seed 0] [--out BENCH_trials.json]

Every case is design 2 at n = 32 (source: the uniform stair mixed with 0.1%
one-unit; target: one-unit) on the 10^4-cell Beta(2, 2) grid, in one payment
format, with N = r (m + 1) bids a trial for r in {0.5, 1, 2, 4, 10}.  Trial t
draws from SeedSequence((seed, t)), and each form estimates it as follows:

- sort: the weights K_{i-1} - K_i on the N cell edges dotted with the N
  sorted bids of curve.draw (whichever path draw takes at that N);
- count: K_0 b_0 + K[C] @ db, with C the cumulative curve.counts of the
  trial's grid indices and db the grid bids' increments, so no bid vector is
  built.

Both forms have their kernel built beforehand, so a case reports, as medians
over the repeats, each form's time per trial in microseconds, and the
largest relative gap between their values.  It also times the whole
trial_estimates call of --trials trials (kernel build included), which takes
the count form exactly where curve.counting(N) holds, from N = 4 (m + 1) on.
With --baseline DIR, the package under DIR/src (another checkout of this
repo) is loaded beside this one and its trial_estimates is timed on the same
cell, the two taking turns, and the case records the largest relative
difference of the two packages' rows.  BLAS runs on one thread, as in
perfbench, unless the environment sets its thread count.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# a dot of more than 10^4 elements, as both forms take at m = 10^4, is
# threaded by OpenBLAS, and on a busy 2-CPU host waking its threads took
# milliseconds per call; so pin them before numpy loads BLAS
BLAS_THREADS = {k: os.environ.setdefault(k, "1")
                for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import auctionab as ab  # noqa: E402
from auctionab.estim import SourceGrid  # noqa: E402
from estim_kernels import describe, load_package, medians, provenance  # noqa: E402

RATIOS = (0.5, 1, 2, 4, 10)
DESIGN, N_AGENTS, GRID_M = 2, 32, 10_000


def cell(pkg, fmt: str):
    """The design's source, target and bid curve under package pkg."""
    a, b = pkg.design_rules(DESIGN, N_AGENTS)
    c = pkg.mixture(a, b, pkg.harness.DEFAULT_EPS)
    return c, b, pkg.bid_curve(fmt, pkg.Beta22(), c, pkg.QuantileGrid(GRID_M))


def run_case(pkgs: dict, fmt: str, ratio: float, seed: int, trials: int, repeats: int) -> dict:
    N = round(ratio * (GRID_M + 1))
    x, y, curve = cell(ab, fmt)
    grid = SourceGrid(fmt, x, N)
    K, w = grid.kernel(y), grid.weights(y)
    head, db = K[0] * curve.b[0], np.diff(curve.b, append=0.0)
    streams = [np.random.SeedSequence((seed, t)) for t in range(trials)]

    def sort_form():
        return [w @ curve.draw(N, s) for s in streams]

    def count_form():
        return [head + K.take(curve.counts(N, s).cumsum()) @ db for s in streams]

    rows, calls = {}, [sort_form, count_form]
    for name, pkg in pkgs.items():
        px, py, pcurve = cell(pkg, fmt)
        rows[name] = pkg.harness.trial_estimates(pcurve, px, (py,), N, seed, trials)[:, 0]
        calls.append(lambda pkg=pkg, c=pcurve, px=px, py=py:
                     pkg.harness.trial_estimates(c, px, (py,), N, seed, trials))
    sort_vals, count_vals = np.array(sort_form()), np.array(count_form())
    times = medians(calls, repeats, 1.0)
    case = {
        "format": fmt, "N_over_m_plus_1": ratio, "N": N, "counting": curve.counting(N),
        "per_trial_us": {"sort": 1e6 * times[0] / trials, "count": 1e6 * times[1] / trials},
        "max_rel_gap": float(np.max(np.abs(count_vals - sort_vals) / np.abs(sort_vals))),
        "trial_estimates_ms": {name: 1e3 * t for name, t in zip(pkgs, times[2:])},
    }
    if len(pkgs) > 1:
        case["rel_diff_from_baseline"] = float(
            np.max(np.abs(rows["this"] - rows["baseline"]) / np.abs(rows["baseline"])))
    return case


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="another checkout whose src/auctionab is timed beside this one")
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(ROOT / "BENCH_trials.json"))
    args = p.parse_args()
    pkgs = {"this": ab}
    if args.baseline:
        pkgs["baseline"] = load_package(Path(args.baseline).resolve() / "src")
    cases = []
    for fmt in (ab.ALL_PAY, ab.FIRST_PRICE):
        for ratio in RATIOS:
            c = run_case(pkgs, fmt, ratio, args.seed, args.trials, args.repeats)
            cases.append(c)
            print(f"{fmt:10s} N={c['N']:<6d} ({ratio:>4} (m+1)) counting={c['counting']!s:5s} "
                  f"us/trial sort {c['per_trial_us']['sort']:7.1f} count {c['per_trial_us']['count']:7.1f}"
                  f"  gap {c['max_rel_gap']:.1e}  trial_estimates ms "
                  + " ".join(f"{k} {v:7.2f}" for k, v in c["trial_estimates_ms"].items()), flush=True)
    out = {"bench": "trials",
           "provenance": {**provenance(args), "trials": args.trials, "blas_threads": BLAS_THREADS},
           "this": describe(ROOT), "cases": cases}
    if args.baseline:
        out["baseline"] = describe(Path(args.baseline))
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
