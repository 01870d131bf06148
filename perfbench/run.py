"""auctionab benchmark: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload mc_trials --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, so there is nothing to build.  Each workload runs in a fresh
process (`workload.py`) with AUCTIONAB_WORKERS=1 and the BLAS thread pools
pinned to one thread, so on a small shared machine the figures measure the
program rather than the scheduler.  Before it, the same set-up runs in
SETUP_PROBES further fresh processes; `setup_s` is the median time from
starting an interpreter to the moment the first op could start.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` the workload alternates untraced and
traced passes and the JSON holds the per-layer metrics and the tracing
overhead.  The lines before it give every metric with its unit and sample
count, name each failed op, and state the provenance.  Full reports and
spans are written under `.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
#: one workload's run must end within this; a child still running then is stopped
RUN_TIMEOUT_S = 170

PINS = {"AUCTIONAB_WORKERS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

def declared(section: str) -> list[dict]:
    """The workloads or metrics BENCHMARK.json declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(workload: str, seed: int, seconds: int, trace: int, tag: str, probe: bool,
          deadline: float) -> tuple[float, dict]:
    """Run workload.py in a fresh interpreter; returns (start time, report)."""
    workdir = OUT / "work" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir)]
    if probe:
        argv.append("--probe")
    if trace:
        argv += ["--spans", str(OUT / "spans" / f"{workload}-seed{seed}.csv.gz")]
    env = {**os.environ, **PINS}
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} ({tag}) exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for i in range(SETUP_PROBES):
        start, rep = child(workload, seed, seconds, trace, f"probe{i}", True, deadline)
        setups.append(rep["ready"] - start)
    start, rep = child(workload, seed, seconds, trace, "run", False, deadline)
    setups.append(rep["ready"] - start)

    plain = rep["plain"]
    samples = {"wall_s": f"median of {plain['passes']} passes of {rep['ops_per_pass']} ops",
               "setup_s": f"median of {len(setups)} fresh interpreters",
               "op_p50_ms": f"{plain['ops']} ops, each the median of {plain['passes']} passes",
               "op_p90_ms": f"{plain['ops']} ops, each the median of {plain['passes']} passes",
               "peak_rss_mb": "1 process", "success_rate": f"{rep['attempted']} ops"}
    values = {"wall_s": plain["wall_s"], "setup_s": statistics.median(setups),
              "op_p50_ms": plain["op_p50_ms"], "op_p90_ms": plain["op_p90_ms"],
              "peak_rss_mb": rep["peak_rss_mb"],
              "success_rate": 1.0 - rep["failed"] / rep["attempted"]}
    if trace:
        got = rep["layer"]
        samples = {k: f"median of {rep['traced_passes']} traced passes" for k in got}
    else:
        got = values
    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
               for m in declared("per_layer" if trace else "end_to_end")}
    correct = not rep["wrong"] and not rep["self_test_missed"]
    return {"workload": workload, "correct": correct, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics, "samples": samples,
            "untraced": values,
            "failures": rep["failures"], "wrong": rep["wrong"],
            "self_test_missed": rep["self_test_missed"], "setup_samples_s": setups,
            "provenance": {**rep["provenance"], "nproc": os.cpu_count(),
                           "cpus_usable": len(os.sched_getaffinity(0)),
                           "machine": platform.machine(), "git_commit": git_commit(),
                           "seed": seed, "argv": sys.argv, "pins": PINS}}


def print_report(res: dict, trace: int) -> None:
    w = res["workload"]
    print(f"# provenance {json.dumps(res['provenance'], sort_keys=True)}")
    for name, m in res["metrics"].items():
        print(f"{w:14s} {name:30s} {m['value']:14.6g} {m['unit']:6s} ({res['samples'][name]})")
    if trace:
        shares = {k[:-6]: m["value"] for k, m in res["metrics"].items() if k.endswith(".share")}
        print(f"{w:14s} layer self-time share of traced wall_s: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for op, why in sorted(res["failures"].items()):
        print(f"{w:14s} FAILED op {op}: {why}")
    for op, why in sorted(res["wrong"].items()):
        print(f"{w:14s} WRONG op {op}: {why}")
    for case in res["self_test_missed"]:
        print(f"{w:14s} CHECKER SELF-TEST MISSED: {case}")
    print(f"{w:14s} correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")


def main() -> int:
    workloads = tuple(w["name"] for w in declared("workloads"))
    p = argparse.ArgumentParser(description="auctionab benchmark")
    p.add_argument("--workload", required=True, choices=workloads + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "auctionab" / "__init__.py").is_file():
        print(f"error: no auctionab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    results = []
    for w in (workloads if args.workload == "all" else (args.workload,)):
        try:
            res = run_workload(w, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 1
        print_report(res, args.trace)
        results.append(res)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1, sort_keys=True))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
