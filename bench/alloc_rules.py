"""Time allocation-rule construction and evaluation, and write the figures
to BENCH_alloc.json.

    python bench/alloc_rules.py [--baseline DIR] [--repeats 201] [--eval-repeats 3]
                                [--seed 0] [--out BENCH_alloc.json]

Every case is one rule at one n in {32, 256, 1024}:

- one-unit: MultiUnit(1, n);
- uniform-stair: uniform_stair(n), one run of n-1 equal marginal weights;
- design1, design2, design3: the benchmark designs' composites
  mixture(A, B, DEFAULT_EPS), with A and B built beforehand;
- universal-b: Position(universal_b(n));
- distinct: n sorted uniform weights drawn from --seed, whose n-1
  marginal weights all differ, so each is a run of its own.

A case reports the rule's run count, the median time to build it through
its public constructor (over --repeats builds) and the median time of x,
xprime and xint on the SLOPE_GRID uniform quantiles (over --eval-repeats
calls).  With --baseline DIR, the package under DIR/src (another checkout
of this repo) is loaded beside this one and timed on the same cases, the
two taking turns; each case then also records whether both give the same
runs and bit-identical x, xprime and xint, and the largest relative
difference of those values from the baseline's, over values >= 1e-270.

The binomial-tail kernel _ibeta, I_x(a, b), is timed on its own too:

- far-tail: (a, b) = (2, 6), (2, 7), (2, 30) and (2, 31), the pairs the
  first-price benchmark cells take through the far tail of I_x(2, b), on
  the SLOPE_GRID points where b x < 0.125 (1 - x) (median over --repeats
  calls, in microseconds);
- mid-range: (a, b) with both parameters above 2, on 10^5 + 1 points of
  [0, 1] (median over --eval-repeats calls, in milliseconds);

each beside the baseline with the same two comparisons.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import auctionab as ab  # noqa: E402
from estim_kernels import describe, load_package, medians, provenance  # noqa: E402

NS = (32, 256, 1024)
EVALUATORS = ("x", "xprime", "xint")
FAR_TAIL_PAIRS = ((2, 6), (2, 7), (2, 30), (2, 31))
MID_RANGE_PAIRS = ((16, 16), (500, 523), (3, 30), (30, 3), (100, 156), (511, 512), (2048, 2048))
#: values below this are compared with the baseline's in absolute terms only
REL_FLOOR = 1e-270


def builders(pkg, n: int, distinct: np.ndarray) -> dict:
    """Rule name -> a call that builds the rule with pkg."""
    designs = {f"design{d}": pkg.design_rules(d, n) for d in (1, 2, 3)}
    cases = {"one-unit": lambda: pkg.MultiUnit(1, n),
             "uniform-stair": lambda: pkg.uniform_stair(n)}
    cases.update({name: lambda a=a, b=b: pkg.mixture(a, b, pkg.harness.DEFAULT_EPS)
                  for name, (a, b) in designs.items()})
    cases["universal-b"] = lambda: pkg.Position(pkg.universal_b(n))
    cases["distinct"] = lambda: pkg.Position(pkg.PositionWeights(distinct))
    return cases


def compare(this: list, base: list) -> dict:
    """Whether the arrays in this and base are bit-identical, and the largest
    relative difference between them where the baseline value is >= REL_FLOOR."""
    rel = max((float(np.max(np.abs(t - b)[b >= REL_FLOOR] / b[b >= REL_FLOOR], initial=0.0))
               for t, b in zip(this, base)), default=0.0)
    return {"same": all(t.tobytes() == b.tobytes() for t, b in zip(this, base)),
            "max_rel_diff": rel}


def ibeta_cases(pkgs: dict, q: np.ndarray, args) -> list[dict]:
    """Time _ibeta of each package on the far-tail and mid-range pairs."""
    cases = []
    mid = np.linspace(0.0, 1.0, 100_001)
    sets = [("far-tail", a, b, q[b * q < 0.125 * (1.0 - q)], args.repeats, 1e6)
            for a, b in FAR_TAIL_PAIRS]
    sets += [("mid-range", a, b, mid, args.eval_repeats, 1e3) for a, b in MID_RANGE_PAIRS]
    for name, a, b, x, repeats, scale in sets:
        fns = [lambda pkg=pkg: pkg.alloc._ibeta(a, b, x) for pkg in pkgs.values()]
        unit = "us" if scale == 1e6 else "ms"
        case = {"set": name, "a": a, "b": b, "points": len(x),
                unit: dict(zip(pkgs, medians(fns, repeats, scale)))}
        if len(fns) > 1:
            case.update(compare([fns[0]()], [fns[1]()]))
        cases.append(case)
        print(f"_ibeta {name:9s} ({a}, {b}) on {len(x)} points, {unit} "
              + " ".join(f"{k} {v:9.2f}" for k, v in case[unit].items())
              + (f"  same={case['same']} max_rel_diff={case['max_rel_diff']:.1e}"
                 if "same" in case else ""), flush=True)
    return cases


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="another checkout whose src/auctionab is timed beside this one")
    p.add_argument("--repeats", type=int, default=201, help="builds per case")
    p.add_argument("--eval-repeats", type=int, default=3, help="calls per evaluator per case")
    p.add_argument("--seed", type=int, default=0, help="seed of the distinct weights")
    p.add_argument("--out", default=str(ROOT / "BENCH_alloc.json"))
    args = p.parse_args()
    pkgs = {"this": ab}
    if args.baseline:
        pkgs["baseline"] = load_package(Path(args.baseline).resolve() / "src")
    q = np.linspace(0.0, 1.0, ab.alloc.SLOPE_GRID)
    cases = []
    for n in NS:
        distinct = np.sort(np.random.default_rng(args.seed).random(n))[::-1]
        calls = {label: builders(pkg, n, distinct) for label, pkg in pkgs.items()}
        for name in calls["this"]:
            build = [calls[label][name] for label in pkgs]
            rules = [fn() for fn in build]
            case = {"rule": name, "n": n, "runs": len(rules[0]._runs),
                    "build_us": dict(zip(pkgs, medians(build, args.repeats, 1e6)))}
            for ev in EVALUATORS:
                fns = [lambda r=r, ev=ev: getattr(r, ev)(q) for r in rules]
                case[f"{ev}_ms"] = dict(zip(pkgs, medians(fns, args.eval_repeats, 1e3)))
            if len(rules) > 1:
                case.update(compare(*([getattr(r, ev)(q) for ev in EVALUATORS] for r in rules)))
                case["same"] &= rules[0]._runs == rules[1]._runs
            cases.append(case)
            print(f"n={n:<5d} {name:14s} runs={case['runs']:<5d} build us "
                  + " ".join(f"{k} {v:9.1f}" for k, v in case["build_us"].items())
                  + "  x ms " + " ".join(f"{v:8.2f}" for v in case["x_ms"].values())
                  + (f"  same={case['same']} max_rel_diff={case['max_rel_diff']:.1e}"
                     if "same" in case else ""), flush=True)
    out = {"bench": "alloc_rules", "provenance": provenance(args),
           "this": describe(ROOT), "cases": cases, "ibeta": ibeta_cases(pkgs, q, args)}
    if args.baseline:
        out["baseline"] = describe(Path(args.baseline))
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
