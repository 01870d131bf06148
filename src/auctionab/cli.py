"""Command-line interface: simulate, sweep, estimate, compare, bounds, table.

All subcommands emit CSV to stdout or --out and require --seed so runs are
reproducible.  A flat key=value config file can supply any flag's value;
explicit flags win.  Usage errors exit 2; numeric failures exit 1 with a
diagnostic naming the module and, when known, the offending quantile.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

from .abtest import revenue_verdict
from .alloc import LIMITS, DegenerateRuleError, Mixture, check, max_slope, mixture, parse_rule
from .bounds import (
    BoundInputs,
    bound_allpay_k,
    bound_classifier,
    bound_expected_value,
    bound_general_y,
    bound_ideal_ab,
    bound_mixture,
    bound_universal,
    bound_welfare,
    normalized_table_bound,
)
from .dist import QuantileGrid, make_distribution, true_revenue
from .equil import ALL_PAY, FIRST_PRICE, bid_curve, read_bid_csv
from .estim import DegenerateSourceError, estimate
from .harness import (
    ExperimentSpec,
    MadResult,
    design_rules,
    epsilon_sweep,
    full_table,
    run_design,
    trial_estimates,
)

CSV_SCHEMA = "# auctionab-mad-v1"
CSV_HEADER = "design,n,N,eps,trials,seed,raw_mad,norm_sqrtN_over_n,norm_sqrt_N_over_n_alt,bound"


def _read_config(path: str) -> list[str]:
    """Flat key=value lines turned into leading flags (explicit flags,
    appearing later in argv, override them)."""
    flags: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        flags += [f"--{key.replace('_', '-')}", value]
    return flags


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--config", help="flat key=value file supplying flag defaults")


def _sim_flags(p: argparse.ArgumentParser) -> None:
    """The Monte Carlo cell flags that simulate and sweep share."""
    p.add_argument("--design", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--grid-m", type=int, default=10_000)
    p.add_argument("--dist", default="beta22")
    p.add_argument("--format", default=ALL_PAY, choices=(ALL_PAY, FIRST_PRICE))


def mad_csv_row(spec: ExperimentSpec, result: MadResult) -> str:
    """One simulate or table row: the cell, its MAD and its normalized bound."""
    bound = normalized_table_bound(spec.design, spec.n, spec.eps)
    return (
        f"{spec.design},{spec.n},{spec.N},{spec.eps:g},{spec.trials},{spec.seed},"
        f"{result.raw_mad:.10g},{result.normalized_mad:.10g},"
        f"{result.norm_sqrt_N_over_n_alt:.10g},{bound:.10g}"
    )


def cmd_simulate(args) -> list[str]:
    spec = ExperimentSpec(
        design=args.design, n=args.n, N=args.N, eps=args.eps, trials=args.trials,
        grid_m=args.grid_m, dist=args.dist, format=args.format, seed=args.seed,
    )
    return [CSV_SCHEMA, CSV_HEADER, mad_csv_row(spec, run_design(spec))]


def cmd_sweep(args) -> list[str]:
    spec = ExperimentSpec(
        design=args.design, n=args.n, N=args.N, trials=args.trials,
        grid_m=args.grid_m, dist=args.dist, format=args.format, seed=args.seed,
    )
    eps_list = [check("eps", float(v)) for v in args.eps_list.split(",")]
    rows = epsilon_sweep(spec, eps_list)
    out = ["# auctionab-sweep-v1", "design,n,N,trials,seed,eps,rel_median_abs_error"]
    for eps, err in rows:
        out.append(f"{spec.design},{spec.n},{spec.N},{spec.trials},{spec.seed},{eps:g},{err:.10g}")
    return out


def cmd_estimate(args) -> list[str]:
    source = parse_rule(args.source, args.n)
    target = parse_rule(args.target, args.n)
    # the reader's warnings (a sidecar naming other weights) print before any error it raises
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            sample = read_bid_csv(args.bids, args.format, source)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    (point,) = estimate(sample, source, [target])
    bound = bound_general_y(BoundInputs.from_rules(source, target, sample.size))
    if not (math.isfinite(point) and math.isfinite(bound)):
        raise ValueError(f"the estimate {point:.10g} or its bound {bound:.10g} is not finite")
    # no ground truth here, so the design, eps, truth and abs_error cells are empty
    return ["# auctionab-estimate-v1", "design,format,n,N,eps,seed,estimate,truth,abs_error,bound",
            f",{sample.format},{source.n},{sample.size},,{args.seed},{point:.10g},,,{bound:.10g}"]


def cmd_compare(args) -> list[str]:
    n, eps = args.n, args.eps
    incumbent = parse_rule(args.incumbent, n)
    b1 = parse_rule(args.b1, n)
    b2 = parse_rule(args.b2, n)
    grid = QuantileGrid(args.grid_m)
    dist = make_distribution(args.dist)
    # the test mechanism: the incumbent, with each candidate at weight eps/2
    test = Mixture(((1.0 - eps, incumbent), (eps / 2, b1), (eps / 2, b2)))
    curve = bid_curve(args.format, dist, test, grid)
    p1, p2 = true_revenue(dist, b1, grid), true_revenue(dist, b2, grid)
    true_verdict = 1 if p1 > args.alpha * p2 else 0
    gap = abs(p1 - args.alpha * p2)
    sup_y = max(max_slope(b1), max_slope(b2))
    cls_bound = bound_classifier(args.N, n, eps, args.alpha, gap)
    out = [
        "# auctionab-compare-v1",
        "trial,verdict,margin,true_verdict,classifier_bound",
    ]
    est = trial_estimates(curve, test, (b1, b2), args.N, args.seed, args.trials)
    wrong = 0
    for t, (e1, e2) in enumerate(est):
        verdict, margin = revenue_verdict(e1, e2, args.alpha)
        wrong += int(verdict != true_verdict)
        out.append(f"{t},{verdict},{margin:.10g},{true_verdict},{cls_bound:.10g}")
    out.append(f"# misclassification_rate,{wrong / args.trials:.10g}")
    out.append(f"# sup_target_slope,{sup_y:.10g}")
    return out


def cmd_bounds(args) -> list[str]:
    a, b = design_rules(args.design, args.n)
    c = mixture(a, b, args.eps)
    inputs = BoundInputs.from_rules(c, b, args.N)
    rows = [
        ("multi_unit_target", bound_allpay_k(inputs)),
        ("general_target", bound_general_y(inputs)),
        ("ideal_split", bound_ideal_ab(args.eps, args.N, inputs.sup_yprime)),
        ("mixture_general", bound_mixture(args.eps, args.N, args.n, inputs.sup_yprime)),
        ("mixture_multi_unit", bound_mixture(args.eps, args.N, args.n, inputs.sup_yprime, multi_unit=True)),
        ("universal_all_k", bound_universal(args.eps, args.N, args.n)),
        ("expected_value", bound_expected_value(args.N, args.n, inputs.sup_xprime, inputs.sup_inv_xprime)),
        ("welfare", bound_welfare(args.eps, args.N, args.n)),
        ("normalized_table", normalized_table_bound(args.design, args.n, args.eps)),
    ]
    for name, v in rows:
        if not math.isfinite(v):
            raise ValueError(f"the {name} bound {v:.10g} is not finite")
    out = ["# auctionab-bounds-v1", "design,n,N,eps,bound_name,value"]
    out += [f"{args.design},{args.n},{args.N},{args.eps:g},{name},{v:.10g}" for name, v in rows]
    return out


def cmd_table(args) -> list[str]:
    # every cell's n and N are checked before the first cell runs
    ns = [check("n", int(v)) for v in args.ns.split(",")] if args.ns else None
    sizes = [check("N", int(v)) for v in args.sample_sizes.split(",")] if args.sample_sizes else None
    cells = full_table(args.design, args.seed, eps=args.eps, trials=args.trials,
                       ns=ns, sample_sizes=sizes)
    return [CSV_SCHEMA, CSV_HEADER, *(mad_csv_row(spec, result) for spec, result in cells)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="auctionab",
        description="Counterfactual revenue and welfare estimation for rank-by-bid auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one Monte Carlo MAD cell")
    _sim_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.001)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="relative error versus mixture weight")
    _sim_flags(p)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--eps-list", required=True, help="comma-separated mixture weights")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate", help="one-shot estimate from a bid CSV")
    p.add_argument("--bids", required=True)
    p.add_argument("--source", required=True, help="rule generating the bids")
    p.add_argument("--target", required=True, help="rule whose revenue to estimate")
    p.add_argument("--format", default=ALL_PAY, choices=(ALL_PAY, FIRST_PRICE))
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", help="binary revenue comparison of two candidates")
    p.add_argument("--incumbent", default="one-unit")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.001)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--grid-m", type=int, default=10_000)
    p.add_argument("--dist", default="beta22")
    p.add_argument("--format", default=ALL_PAY, choices=(ALL_PAY, FIRST_PRICE))
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="all applicable error bounds for a design")
    p.add_argument("--design", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.001)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="full MAD grid for one design")
    p.add_argument("--design", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--eps", type=float, default=0.001)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--ns", help="comma-separated agent counts (default 4..1024)")
    p.add_argument("--sample-sizes", help="comma-separated N values")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    return parser


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """Finds --config as argparse does, so --config=FILE and an abbreviation
    such as --conf FILE count too; built once, like build_parser."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--config")
    return parser


def cli_main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a config file supplies defaults: splice its flags right after the
    # subcommand so explicit flags, which come later, take precedence
    try:
        config = _config_parser().parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        print("error: --config needs a path", file=sys.stderr)
        return 2
    if config is not None:
        try:
            argv = argv[:1] + _read_config(config) + argv[1:]
        except (OSError, ValueError) as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every numeric flag named in LIMITS, in namespace order
        for name, value in vars(args).items():
            if name in LIMITS:
                check(name, value)
        _emit(args.func(args), args.out)
    except DegenerateSourceError as exc:
        print(f"error [estim]: {exc}", file=sys.stderr)
        return 1
    except DegenerateRuleError as exc:
        print(f"error [alloc]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
