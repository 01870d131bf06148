"""One benchmark workload in its own process: set up, run timed passes of
operations in a closed loop with a single client, check every output, and
print a JSON report on stdout for `run.py`.

    python3 perfbench/workload.py --workload mc_trials --seed 1 --seconds 25 --trace 0 \
        --workdir .perfbench/work/manual
    python3 perfbench/workload.py ... --probe   # set up, print the ready time, exit

An op is one user-facing call: a `harness.run_design` cell (what
`auctionab simulate` runs), an in-process `cli.cli_main([...])`, or one
`abtest` / `estim` call.  A pass is the workload's fixed list of ops; passes
repeat until `--seconds` have gone, and every pass after the first must
reproduce the first pass's outputs byte for byte.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import auctionab as ab  # noqa: E402
from auctionab import cli  # noqa: E402
from auctionab.harness import ExperimentSpec  # noqa: E402

import reference as ref  # noqa: E402
from reference import CheckFailed  # noqa: E402


def mc_allowance(trials: int) -> float:
    """Slack, as a share of the truth, beyond 6 standard errors of the mean.

    It covers the finite-sample bias of a correct cell (measured with 200 to
    3000 trials: at most 1.4%, except 12% for design 2 at n=1024, N=1e3,
    where 6 standard errors are about 50%) and, below 100 trials, a standard
    deviation estimated from as few as 4 trials.
    """
    return 0.02 if trials >= 100 else 0.08


class OpFailed(Exception):
    """The CLI exited non-zero."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fingerprint: Callable[[object], bytes]


# -- Monte Carlo cells --------------------------------------------------------

def estimate_sd(r, trials: int, n: int) -> float:
    """Standard deviation of the per-trial estimates, recovered from the
    cell's mean |error|, its standard error and the signed bias."""
    raw = r.raw_mad
    se = r.mc_rel_error_estimate * raw
    mean_sq = ((trials - 1) * se**2 + raw**2) / n**2
    var = mean_sq - (r.mean_estimate - r.truth) ** 2
    return math.sqrt(max(var, 0.0) * trials / (trials - 1))


def mad_fingerprint(r) -> bytes:
    return repr((r.raw_mad, r.mean_estimate, r.truth, r.mc_rel_error_estimate)).encode()


class Truths:
    """Fine-grid true revenues, computed once per rule when first checked."""

    def __init__(self):
        self._oracle = None
        self._cache: dict[bytes, float] = {}

    def revenue(self, wbar: np.ndarray) -> float:
        key = wbar.tobytes()
        if key not in self._cache:
            if self._oracle is None:
                self._oracle = ref.Oracle()
            self._cache[key] = self._oracle.revenue(wbar)
        return self._cache[key]

    def of_design(self, design: int, n: int) -> float:
        return self.revenue(ref.stair(n) if design == 1 else ref.k_unit(1, n))


def mc_cell(spec: ExperimentSpec, truths: Truths) -> Op:
    name = f"d{spec.design}_n{spec.n}_N{spec.N}_{spec.format}"

    def check(r):
        truth = truths.of_design(spec.design, spec.n)
        sd = estimate_sd(r, spec.trials, spec.n)
        ref.mc_cell_ok(r.mean_estimate, truth, sd, spec.trials,
                       mc_allowance(spec.trials) * truth, name)

    return Op(name, lambda: ab.run_design(spec), check, mad_fingerprint)


def mc_cells(seed: int, cells, fmt: str = ab.ALL_PAY) -> list[Op]:
    truths = Truths()
    return [mc_cell(ExperimentSpec(design=d, n=n, N=N, trials=t, format=fmt,
                                   seed=seed * 1000 + i), truths)
            for i, (d, n, N, t) in enumerate(cells)]


# -- CLI ops --------------------------------------------------------------------

def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_op(name: str, argv: list[str], check: Callable[[str], None]) -> Op:
    return Op(name, lambda: run_cli(argv), check, lambda s: s.encode())


def check_bounds_csv(text: str) -> None:
    rows = text.strip().splitlines()[2:]
    if len(rows) != 9:
        raise CheckFailed(f"bounds: expected 9 rows, got {len(rows)}")
    for row in rows:
        v = float(row.rsplit(",", 1)[1])
        if not (math.isfinite(v) and v > 0):
            raise CheckFailed(f"bounds: bad value in {row!r}")


def bounds_op(design: int, n: int, N: int, seed: int) -> Op:
    return cli_op(f"bounds_d{design}_n{n}_N{N}",
                  ["bounds", "--design", str(design), "--n", str(n), "--N", str(N),
                   "--seed", str(seed)], check_bounds_csv)


# -- workloads ------------------------------------------------------------------

def mc_trials(seed: int, workdir: Path) -> list[Op]:
    """All-pay cells dominated by the per-trial sample+sort+dot."""
    cells = [(d, n, N, t) for d in (1, 2, 3) for n in (4, 32)
             for N, t in ((10_000, 1000), (100_000, 100))]
    return mc_cells(seed, cells)


def mc_large_n(seed: int, workdir: Path) -> list[Op]:
    """All-pay cells dominated by evaluating position rules at large n.
    Design 3 at n=1024 raises DegenerateSourceError (the source slope
    underflows near q=0.5); those ops count as failed, so a fix shows as a
    higher success_rate.  At n=1024 the sample is N=1e4, not 1e5: the
    weights cost O(n N), and at 1e5 one pass took 13 s, too few passes in a
    run for a steady per-op latency."""
    cells = [(d, n, N, 20) for d in (1, 2, 3)
             for n, N in ((256, 100_000), (1024, 1000), (1024, 10_000))]
    return mc_cells(seed, cells) + [bounds_op(1, 1024, 100_000, seed)]


def mc_firstprice(seed: int, workdir: Path) -> list[Op]:
    """First-price cells: the weights are rebuilt on every trial."""
    cells = [(d, n, N, t) for d in (1, 2, 3)
             for n, N, t in ((8, 1000, 20), (32, 1000, 10), (32, 10_000, 4))]
    return mc_cells(seed, cells, ab.FIRST_PRICE)


#: ab_decide bid files: (n, N, source as the CLI names it, estimate targets)
AB_FILES = (
    (8, 10_000, "mix", [f"k-unit:{k}" for k in range(1, 8)] + ["uniform-stair", "mix"]),
    (8, 100_000, "mix", ["k-unit:1", "k-unit:4", "k-unit:7", "uniform-stair"]),
    (32, 10_000, "uniform-stair",
     [f"k-unit:{k}" for k in (1, 4, 8, 16, 24, 31)] + ["universal-b", "uniform-stair"]),
    (32, 100_000, "uniform-stair", ["k-unit:1", "k-unit:16", "uniform-stair"]),
)
#: mixture weight of the universal treatment in the n=8 source
AB_EPS = 0.1


def rule_text(text: str, n: int) -> str:
    """'mix' is the A/B test mechanism (1-eps)*one-unit + eps*universal-b,
    written as the position-weight list the CLI accepts."""
    if text != "mix":
        return text
    w = [1.0] + [AB_EPS * 0.5] * (n - 2) + [0.0]
    return ",".join(f"{v:g}" for v in w)


def rule_wbar(text: str, n: int) -> np.ndarray:
    if text.startswith("k-unit:"):
        return ref.k_unit(int(text.split(":")[1]), n)
    if text == "uniform-stair":
        return ref.stair(n)
    if text == "universal-b":
        return ref.universal_b(n)
    return ref.marginals([float(v) for v in rule_text(text, n).split(",")])


class ABFile:
    """One bid file and the references its ops are checked against."""

    def __init__(self, n, N, source, seed, workdir: Path, truths: Truths):
        self.n, self.N = n, N
        self.source = rule_text(source, n)
        self.src_wbar = rule_wbar(source, n)
        self.rule = ab.parse_rule(self.source, n)
        curve = ab.bid_curve(ab.ALL_PAY, ab.Beta22(), self.rule)
        sample = ab.sample_bids(curve, N, np.random.SeedSequence((seed, n, N)))
        self.path = workdir / f"bids_n{n}_N{N}.csv"
        ab.write_bid_csv(sample, self.path)
        self.sample = ab.read_bid_csv(self.path, ab.ALL_PAY, self.rule)
        self.truths = truths
        self._est = None

    @property
    def est(self) -> ref.SampleEstimator:
        if self._est is None:
            self._est = ref.SampleEstimator(self.src_wbar, np.asarray(self.sample.bids))
        return self._est

    def truth(self, wbar) -> float:
        return self.truths.revenue(wbar)

    def tag(self) -> str:
        return f"n{self.n}_N{self.N}"


def estimate_argv(f: ABFile, source: str, target: str, seed: int) -> list[str]:
    return ["estimate", "--bids", str(f.path), "--source", source, "--target", target,
            "--n", str(f.n), "--seed", str(seed)]


def check_estimate(f: ABFile, target: str, text: str) -> None:
    """Estimate agrees with the independent estimator on the same bids and
    lies within the printed bound of the true revenue."""
    row = text.strip().splitlines()[-1].split(",")
    est, bound = float(row[6]), float(row[9])
    wbar = rule_wbar(target, f.n)
    want, scale = f.est.revenue(wbar)
    ref.agree(est, want, scale, f"estimate {target} on {f.tag()}")
    truth = f.truth(wbar)
    if not abs(est - truth) <= bound:
        raise CheckFailed(f"estimate {target} on {f.tag()}: error {abs(est - truth):.3g} "
                          f"exceeds the printed bound {bound:.3g}")


def check_best_of_r(f: ABFile, cands, result) -> None:
    idx, estimates = result
    wants = [f.est.revenue(w) for w in cands]
    for w, (want, scale), got in zip(cands, wants, estimates):
        ref.agree(float(got), want, scale, f"best_of_r candidate on {f.tag()}")
    if idx != int(np.argmax([w for w, _ in wants])):
        raise CheckFailed(f"best_of_r on {f.tag()}: picked {idx}")
    truths = np.array([f.truth(w) for w in cands])
    top2 = np.sort(truths)[-2:]
    if top2[1] - top2[0] > 2 * np.max(np.abs(np.asarray(estimates) - truths)) \
            and idx != int(np.argmax(truths)):
        raise CheckFailed(f"best_of_r on {f.tag()}: picked {idx}, truth {int(np.argmax(truths))}")


def check_compare_revenues(f: ABFile, w1, w2, result) -> None:
    verdict, margin = result
    (p1, s1), (p2, s2) = f.est.revenue(w1), f.est.revenue(w2)
    ref.agree(margin, p1 - p2, s1 + s2, f"compare_revenues on {f.tag()}")
    true_margin = f.truth(w1) - f.truth(w2)
    if verdict != int(margin > 0):
        raise CheckFailed(f"compare_revenues on {f.tag()}: verdict {verdict} vs margin {margin}")
    if abs(true_margin) > 2 * abs(margin - true_margin) and verdict != int(true_margin > 0):
        raise CheckFailed(f"compare_revenues on {f.tag()}: wrong verdict on a wide gap")


def check_welfare(f: ABFile, w, report) -> None:
    want, scale = f.est.welfare(w)
    ref.agree(report.point, want, scale, f"estimate_welfare on {f.tag()}")


def check_compare_csv(text: str, truth_b1: float, truth_b2: float) -> None:
    """Every trial's verdict follows its margin, and on this wide gap every
    verdict matches the true ordering."""
    lines = text.strip().splitlines()
    rows = [ln.split(",") for ln in lines[2:] if not ln.startswith("#")]
    true_verdict = int(truth_b1 > truth_b2)
    wrong = 0
    for t, verdict, margin, tv, _bound in rows:
        m = float(margin)
        if not math.isfinite(m) or int(verdict) != int(m > 0) or int(tv) != true_verdict:
            raise CheckFailed(f"compare trial {t}: inconsistent row")
        wrong += int(verdict) != true_verdict
    if wrong:
        raise CheckFailed(f"compare: {wrong} of {len(rows)} verdicts wrong on a wide gap")


def ab_decide(seed: int, workdir: Path) -> list[Op]:
    """One sample, many targets: CLI estimates read the bid file every call."""
    truths = Truths()
    files = [ABFile(n, N, src, seed, workdir, truths) for n, N, src, _ in AB_FILES]
    ops: list[Op] = []
    for f, (_, _, src, targets) in zip(files, AB_FILES):
        for target in targets:
            argv = estimate_argv(f, f.source, rule_text(target, f.n), seed)
            ops.append(cli_op(f"estimate_{f.tag()}_{target}", argv,
                              lambda s, f=f, t=target: check_estimate(f, t, s)))
    ops.append(ops[0])  # the same CLI call again: must print the same bytes
    for design, f in zip((1, 2, 3, 1), files):
        ops.append(bounds_op(design, f.n, f.N, seed))
    b1, b2 = "k-unit:1", "uniform-stair"
    ops.append(cli_op("compare_n8_N1000",
                      ["compare", "--incumbent", "one-unit", "--b1", b1, "--b2", b2,
                       "--n", "8", "--N", "1000", "--trials", "5", "--eps", str(AB_EPS),
                       "--seed", str(seed)],
                      lambda s: check_compare_csv(s, truths.revenue(rule_wbar(b1, 8)),
                                                  truths.revenue(rule_wbar(b2, 8)))))
    for f in files[:3]:
        w = ab.uniform_stair_weights(f.n)
        ops.append(Op(f"estimate_welfare_{f.tag()}",
                      lambda f=f, w=w: ab.estimate_welfare(f.sample, f.rule, w),
                      lambda r, f=f, w=w: check_welfare(f, w.w, r),
                      lambda r: repr(r.point).encode()))
        rules = [ab.MultiUnit(k, f.n) for k in range(1, f.n)] + [ab.uniform_stair(f.n)]
        wbars = [ref.k_unit(k, f.n) for k in range(1, f.n)] + [ref.stair(f.n)]
        ops.append(Op(f"best_of_r_{f.tag()}",
                      lambda f=f, rules=rules: ab.best_of_r(f.sample, f.rule, rules),
                      lambda r, f=f, wbars=wbars: check_best_of_r(f, wbars, r),
                      lambda r: repr((r[0], r[1].tobytes())).encode()))
    for f in files:
        x1, x2 = ab.MultiUnit(1, f.n), ab.uniform_stair(f.n)
        ops.append(Op(f"compare_revenues_{f.tag()}",
                      lambda f=f, x1=x1, x2=x2: ab.compare_revenues(f.sample, f.rule, x1, x2),
                      lambda r, f=f: check_compare_revenues(
                          f, ref.k_unit(1, f.n), ref.stair(f.n), r),
                      lambda r: repr(r).encode()))
    return ops


BUILDERS = {"mc_trials": mc_trials, "mc_large_n": mc_large_n,
            "mc_firstprice": mc_firstprice, "ab_decide": ab_decide}


# -- checker self-test ------------------------------------------------------------

def self_test(workload: str, seed: int, workdir: Path) -> list[str]:
    """Feed deliberately wrong results to the checkers; returns the cases a
    checker let through (empty when every wrong result counts as failed)."""
    missed = []

    def expect_fail(case: str, fn: Callable[[], None]) -> None:
        try:
            fn()
        except CheckFailed:
            return
        missed.append(case)

    if workload == "ab_decide":
        f = ABFile(*AB_FILES[0][:3], seed, workdir, Truths())
        good = run_cli(estimate_argv(f, f.source, "k-unit:2", seed))
        row = good.strip().splitlines()[-1].split(",")
        row[6] = repr(-float(row[6]))
        expect_fail("negated estimate", lambda: check_estimate(f, "k-unit:2", ",".join(row)))
        swapped = run_cli(estimate_argv(f, "k-unit:2", f.source, seed))
        expect_fail("source and target swapped", lambda: check_estimate(f, "k-unit:2", swapped))
        expect_fail("wrong best_of_r pick", lambda: check_best_of_r(
            f, [ref.k_unit(1, 8), ref.stair(8)],
            (0, np.array([f.est.revenue(ref.k_unit(1, 8))[0], f.est.revenue(ref.stair(8))[0]]))))
        return missed

    spec = ExperimentSpec(design=2, n=32, N=10_000, trials=50, seed=seed)
    truths = Truths()
    r = ab.run_design(spec)
    truth = truths.of_design(2, 32)
    sd = estimate_sd(r, spec.trials, spec.n)
    expect_fail("negated estimate", lambda: ref.mc_cell_ok(
        -r.mean_estimate, truth, sd, spec.trials, mc_allowance(spec.trials) * truth, "self-test"))
    a, b = spec.rules()
    c = ab.mixture(a, b, spec.eps)
    curve = ab.bid_curve(ab.ALL_PAY, ab.Beta22(), c)
    sample = ab.sample_bids(curve, spec.N, np.random.SeedSequence((seed, 0)))
    swapped = ab.estimate_revenue(sample, b, c).point
    expect_fail("source and target swapped", lambda: ref.mc_cell_ok(
        swapped, truth, sd, spec.trials, mc_allowance(spec.trials) * truth, "self-test"))
    return missed


# -- driver -------------------------------------------------------------------------

def check(op: Op, value) -> str | None:
    """None if the value passes the op's check, else the reason it failed."""
    try:
        op.check(value)
    except CheckFailed as e:
        return f"CheckFailed: {e}"
    except Exception as e:  # a crash while checking is a wrong output too
        return f"{type(e).__name__} while checking: {e}"
    return None


def run_passes(ops: list[Op], seconds: float, tracer) -> dict:
    failures: dict[str, str] = {}
    wrong: dict[str, str] = {}
    first_prints: dict[str, bytes] = {}
    verdicts: dict[str, str | None] = {}   # an output equal to the first one has its verdict
    passes = []   # (traced, wall_s, op latencies, op ids)
    attempted = failed = 0
    op_id = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        gc.collect()
        records = []
        for op in ops:
            if traced:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                value, err = op.run(), None
            except Exception as e:  # an op that raises is a failed op, named below
                value, err = None, e
            t1 = time.perf_counter()
            records.append((op, t0, t1, value, err, op_id))
            op_id += 1
        if tracer is not None:
            tracer.op = -1
            tracer.uninstall()
        wall = records[-1][2] - records[0][1]
        for op, t0, t1, value, err, _ in records:
            attempted += 1
            reason = None
            if err is not None:
                reason = f"{type(err).__name__}: {err}"
                failures.setdefault(op.name, reason)
            else:
                try:
                    fp = op.fingerprint(value)
                    if op.name not in verdicts:
                        first_prints[op.name] = fp
                        verdicts[op.name] = check(op, value)
                    reason = verdicts[op.name] if fp == first_prints[op.name] else \
                        f"CheckFailed: {op.name}: output differs from its first run"
                except Exception as e:  # a crash while fingerprinting is a wrong output too
                    reason = f"{type(e).__name__} while checking: {e}"
                if reason:
                    wrong.setdefault(op.name, reason)
            failed += reason is not None
        passes.append((traced, wall, [r[2] - r[1] for r in records], [r[5] for r in records]))
        # stop at the pass boundary nearest to `seconds`, so a run neither
        # overshoots by a whole long pass nor leaves one half measured
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * wall >= seconds and (tracer is None or len(passes) >= 2):
            break
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "failures": failures, "wrong": wrong}


def provenance() -> dict:
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name', '')} {deps[k].get('version', '')}"
                for k in ("blas", "lapack")}
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "auctionab": ab.__version__}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(BUILDERS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="set up, report, and exit")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="write the traced spans here (gzipped CSV)")
    args = p.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = BUILDERS[args.workload](args.seed, workdir)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    res = run_passes(ops, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    missed = self_test(args.workload, args.seed, workdir)

    report = {
        "ready": ready,
        "ops_per_pass": len(ops),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "wrong": res["wrong"],
        "self_test_missed": missed,
        "peak_rss_mb": rss_mb,
        "provenance": provenance(),
    }
    passes = res["passes"]
    plain = [p for p in passes if not p[0]]
    # An op's latency is its median over the run's passes, so it averages the
    # host's speed over the whole run; the percentiles are taken over the ops.
    # Pooling every sample instead put p50 in the gap between clusters of
    # ops, where it jumped from run to run.
    lat = np.median([p[2] for p in plain], axis=0)
    report["plain"] = {"passes": len(plain), "ops": len(lat),
                       "wall_s": float(np.median([p[1] for p in plain])),
                       "op_p50_ms": 1e3 * float(np.quantile(lat, 0.5)),
                       "op_p90_ms": 1e3 * float(np.quantile(lat, 0.9))}
    if tracer is not None:
        traced = [p for p in passes if p[0]]
        per_pass = [tracer.layer_metrics(set(p[3]), p[1]) for p in traced]
        layer = {k: float(np.median([m[k] for m in per_pass])) for k in per_pass[0]}
        traced_wall = float(np.median([p[1] for p in traced]))
        layer["trace.overhead"] = traced_wall / report["plain"]["wall_s"]
        report["layer"] = layer
        report["traced_passes"] = len(traced)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
