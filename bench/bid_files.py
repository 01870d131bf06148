"""Time writing and reading bid files, and a whole CLI estimate on them,
and write the figures to BENCH_io.json.

    python bench/bid_files.py [--baseline DIR] [--repeats 11] [--seed 0]
                              [--out BENCH_io.json]

Every case is one sample of all-pay bids under the uniform stair at n = 32:

- "grid", N in {1e3, 1e4, 1e5}: N bids drawn from the curve on the
  10^4-point Beta(2, 2) grid, as the bid files of the ab_decide benchmark
  are, so they hold at most 10^4 + 1 distinct bids;
- "distinct", N = 1e5: N uniform random bids, sorted, with no two equal,
  as bids collected in the field are.

A case reports, as medians over the repeats, every call of the case taking
its turn in each repeat:

- write_ms: write_bid_csv of the sample;
- read_ms: read_bid_csv of the file as write_bid_csv left it, which loads
  the .npy copy where the sidecar vouches for it;
- parse_ms: read_bid_csv with the .npy copy removed, so it parses the text;
- estimate_ms: an in-process `estimate --source uniform-stair --target
  k-unit:1` on the file as written, printing to a buffer.

It also records whether every read gave the bits of the sample.  With
--baseline DIR, the package under DIR/src (another checkout of this repo)
is loaded beside this one and times the same calls on its own files; the
case then records whether both packages read the same bits and print the
same estimate.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import auctionab as ab  # noqa: E402
from estim_kernels import describe, load_package, medians, provenance  # noqa: E402

CASES = (("grid", 1_000), ("grid", 10_000), ("grid", 100_000), ("distinct", 100_000))
N_AGENTS = 32
SOURCE, TARGET = "uniform-stair", "k-unit:1"
METRICS = ("write_ms", "read_ms", "parse_ms", "estimate_ms")


def estimate(pkg, path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli_main(["estimate", "--bids", str(path), "--source", SOURCE, "--target", TARGET,
                             "--n", str(N_AGENTS), "--seed", "0"])
    if code != 0:
        raise RuntimeError(f"estimate on {path} exited {code}")
    return out.getvalue()


def draw_sample(pkg, kind: str, N: int, seed: int):
    rule = pkg.parse_rule(SOURCE, N_AGENTS)
    if kind == "grid":
        return pkg.sample_bids(pkg.bid_curve(pkg.ALL_PAY, pkg.Beta22(), rule), N, seed)
    return pkg.BidSample(pkg.ALL_PAY, rule, np.sort(np.random.default_rng(seed).random(N)))


def run_case(pkgs: dict, kind: str, N: int, seed: int, repeats: int, workdir: Path) -> dict:
    calls, reads, printed = {}, {}, {}
    for name, pkg in pkgs.items():
        sample = draw_sample(pkg, kind, N, seed)
        rule, stem = sample.rule, f"{name}_{kind}_{N}"
        written, parsed = workdir / f"{stem}.csv", workdir / f"{stem}_parse.csv"
        pkg.write_bid_csv(sample, written)
        pkg.write_bid_csv(sample, parsed)
        parsed.with_suffix(".npy").unlink(missing_ok=True)
        reads[name] = [pkg.read_bid_csv(p, pkg.ALL_PAY, rule).bids.tobytes() for p in (written, parsed)]
        reads[name].append(sample.bids.tobytes())
        printed[name] = estimate(pkg, written)
        calls[name] = {
            "write_ms": lambda pkg=pkg, s=sample, p=workdir / f"{stem}_w.csv": pkg.write_bid_csv(s, p),
            "read_ms": lambda pkg=pkg, r=rule, p=written: pkg.read_bid_csv(p, pkg.ALL_PAY, r),
            "parse_ms": lambda pkg=pkg, r=rule, p=parsed: pkg.read_bid_csv(p, pkg.ALL_PAY, r),
            "estimate_ms": lambda pkg=pkg, p=written: estimate(pkg, p),
        }
    case = {"sample": kind, "N": N, "n": N_AGENTS,
            "distinct_bids": int(np.unique(sample.bids).size)}
    # one loop over every call, so a change in the host's speed hits them all alike
    keys = [(metric, name) for metric in METRICS for name in pkgs]
    times = medians([calls[name][metric] for metric, name in keys], repeats, 1e3)
    for (metric, name), t in zip(keys, times):
        case.setdefault(metric, {})[name] = t
    case["same_bits"] = all(len(set(r)) == 1 for r in reads.values())
    if len(pkgs) > 1:
        case["same_bits_as_baseline"] = reads["this"][0] == reads["baseline"][0]
        case["same_estimate_as_baseline"] = printed["this"] == printed["baseline"]
    return case


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="another checkout whose src/auctionab is timed beside this one")
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(ROOT / "BENCH_io.json"))
    args = p.parse_args()
    pkgs = {"this": ab}
    if args.baseline:
        pkgs["baseline"] = load_package(Path(args.baseline).resolve() / "src")
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for kind, N in CASES:
            c = run_case(pkgs, kind, N, args.seed, args.repeats, Path(tmp))
            cases.append(c)
            print(f"{kind:8s} N={N:<6d} " + "  ".join(
                f"{m} " + " ".join(f"{k} {v:8.3f}" for k, v in c[m].items())
                for m in METRICS)
                + f"  same_bits {c['same_bits']}", flush=True)
    out = {"bench": "bid_files", "provenance": provenance(args), "this": describe(ROOT), "cases": cases}
    if args.baseline:
        out["baseline"] = describe(Path(args.baseline))
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
