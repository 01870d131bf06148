import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import auctionab
from auctionab.alloc import LIMITS, parse_rule, universal_b
from auctionab.bounds import normalized_table_bound
from auctionab.cli import CSV_HEADER, build_parser, cli_main, mad_csv_row
from auctionab.dist import Beta22, QuantileGrid
from auctionab.equil import ALL_PAY, bid_curve, sample_bids, write_bid_csv
from auctionab.harness import ExperimentSpec, run_design


def run(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


class TestSimulate:
    def test_one_csv_row(self, capsys):
        code, lines = run(capsys, [
            "simulate", "--design", "2", "--n", "8", "--N", "500",
            "--trials", "20", "--seed", "7",
        ])
        assert code == 0
        assert lines[0].startswith("#")
        assert lines[1].startswith("design,n,N,")
        cells = lines[2].split(",")
        assert cells[:3] == ["2", "8", "500"]
        assert len(cells) == 10

    def test_seed_required(self, capsys):
        code = cli_main(["simulate", "--design", "2", "--n", "8", "--N", "500"])
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = cli_main([
            "simulate", "--design", "1", "--n", "4", "--N", "200",
            "--trials", "5", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_zero_sample_size_exits_one(self, capsys):
        code = cli_main(["simulate", "--design", "2", "--n", "8", "--N", "0",
                         "--trials", "5", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: sample size N must be at least 1" in captured.err

    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--design", "3", "--n", "8", "--N", "300",
                "--trials", "10", "--seed", "5"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


class TestEstimate:
    @pytest.fixture()
    def bids_csv(self, tmp_path):
        x = universal_b(8)
        curve = bid_curve(ALL_PAY, Beta22(), x, QuantileGrid(2000))
        sample = sample_bids(curve, 400, 3)
        path = tmp_path / "bids.csv"
        write_bid_csv(sample, path)
        return path

    def test_report_row(self, capsys, bids_csv):
        code, lines = run(capsys, [
            "estimate", "--bids", str(bids_csv), "--source", "universal-b",
            "--target", "uniform-stair", "--format", "allpay", "--n", "8",
            "--seed", "1",
        ])
        assert code == 0
        row = lines[2].split(",")
        assert len(row) == 10
        assert float(row[6]) > 0       # estimate
        assert float(row[9]) > 0       # bound

    def test_missing_file_exits_one(self, capsys):
        code = cli_main([
            "estimate", "--bids", "/nonexistent.csv", "--source", "one-unit",
            "--target", "uniform-stair", "--n", "8", "--seed", "1",
        ])
        assert code == 1

    def test_nan_bid_exits_one(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("bid\n0.1\nnan\n0.3\n")
        code = cli_main([
            "estimate", "--bids", str(path), "--source", "universal-b",
            "--target", "uniform-stair", "--n", "8", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "finite" in captured.err

    def test_headerless_file_exits_one(self, capsys, tmp_path):
        # without the header check the first bid was skipped and N came out as 1
        path = tmp_path / "nohdr.csv"
        path.write_text("0.1\n0.2\n")
        code = cli_main([
            "estimate", "--bids", str(path), "--source", "one-unit",
            "--target", "k-unit:2", "--n", "4", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: bid file {path} must start with the header line 'bid'\n"

    def test_header_only_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("bid\n")
        code = cli_main([
            "estimate", "--bids", str(path), "--source", "one-unit",
            "--target", "k-unit:2", "--n", "4", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: bid file {path} holds no bids\n"

    def test_bad_rule_exits_one(self, capsys, bids_csv):
        code = cli_main([
            "estimate", "--bids", str(bids_csv), "--source", "k-unit:99",
            "--target", "uniform-stair", "--n", "8", "--seed", "1",
        ])
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--format", "firstprice", "--n", "8"],
         "records format 'allpay' in its sidecar, but format 'firstprice' was given"),
        (["--n", "9"], "records n 8 in its sidecar, but n 9 was given"),
    ])
    def test_sidecar_format_or_n_mismatch_exits_one(self, capsys, bids_csv, flags, message):
        code = cli_main(["estimate", "--bids", str(bids_csv), "--source", "universal-b",
                         "--target", "uniform-stair", "--seed", "1", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: bid file {bids_csv} {message}\n"

    def test_sidecar_rule_mismatch_only_warns(self, capsys, bids_csv):
        """Another source rule than the sidecar's prints a warning and the
        bytes the same run prints without the sidecar's weights."""
        argv = ["estimate", "--bids", str(bids_csv), "--source", "k-unit:2",
                "--target", "uniform-stair", "--n", "8", "--seed", "1"]
        code = cli_main(argv)
        warned = capsys.readouterr()
        side = bids_csv.with_suffix(".json")
        side.write_text(json.dumps({k: v for k, v in json.loads(side.read_text()).items()
                                    if k != "weights"}))
        assert cli_main(argv) == code == 0
        plain = capsys.readouterr()
        assert warned.out == plain.out != ""
        assert plain.err == ""
        assert warned.err.startswith(f"warning: bid file {bids_csv} records source 'position(")
        assert warned.err.endswith(" but '2-unit(n=8)' was given\n")

    def test_sidecar_rule_warning_prints_before_a_read_error(self, capsys, bids_csv):
        bids_csv.write_text("0.5\n")  # the sidecar still vouches for the old bids
        code = cli_main(["estimate", "--bids", str(bids_csv), "--source", "k-unit:2",
                         "--target", "uniform-stair", "--n", "8", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        warning, error = captured.err.splitlines()
        assert warning.startswith(f"warning: bid file {bids_csv} records source 'position(")
        assert warning.endswith(" but '2-unit(n=8)' was given")
        assert error == f"error: bid file {bids_csv} must start with the header line 'bid'"

    def test_non_finite_bound_exits_one(self, capsys, tmp_path):
        """All-pay bids of the one-unit rule at n = 256: the source's slope is
        tiny but positive on the bound's grid, the bound overflows to inf, and
        the run exits 1 without a numpy warning."""
        curve = bid_curve(ALL_PAY, Beta22(), parse_rule("k-unit:1", 256), QuantileGrid(10_000))
        path = tmp_path / "bids.csv"
        write_bid_csv(sample_bids(curve, 100, 0), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["estimate", "--bids", str(path), "--source", "k-unit:1",
                             "--target", "uniform-stair", "--n", "256", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: the estimate 5.129774095e+28 or its bound inf is not finite\n"


class TestSweep:
    def test_rows_per_eps(self, capsys):
        code, lines = run(capsys, [
            "sweep", "--design", "1", "--n", "8", "--N", "300",
            "--eps-list", "0.01,0.1", "--trials", "10", "--seed", "2",
        ])
        assert code == 0
        assert len(lines) == 4
        assert lines[2].split(",")[5] == "0.01"


class TestCompare:
    def test_verdict_rows(self, capsys):
        code, lines = run(capsys, [
            "compare", "--incumbent", "uniform-stair", "--b1", "k-unit:5",
            "--b2", "one-unit", "--n", "8", "--N", "2000", "--trials", "5",
            "--eps", "0.2", "--grid-m", "2000", "--seed", "3",
        ])
        assert code == 0
        data = [l for l in lines if l and not l.startswith("#") and not l.startswith("trial")]
        assert len(data) == 5
        assert all(row.split(",")[1] in ("0", "1") for row in data)
        assert any("misclassification_rate" in l for l in lines)

    def test_zero_sample_size_exits_one(self, capsys):
        code = cli_main(["compare", "--b1", "one-unit", "--b2", "uniform-stair",
                         "--n", "8", "--N", "0", "--seed", "3"])
        assert code == 1
        assert "sample size N must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "0", "trials must be at least 1"),
        ("--trials", "-3", "trials must be at least 1"),
        ("--eps", "0", "eps must lie in (0, 1]"),
        ("--eps", "-0.1", "eps must lie in (0, 1]"),
        ("--eps", "1.5", "eps must lie in (0, 1]"),
    ])
    def test_bad_trials_or_eps_exits_one(self, capsys, flag, value, message):
        code = cli_main(["compare", "--b1", "one-unit", "--b2", "uniform-stair",
                         "--n", "8", "--N", "100", "--seed", "3", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-0.0"])
    def test_alpha_not_positive_and_finite_exits_one(self, capsys, alpha):
        """nan once printed nan margins and bound, and inf -inf margins, with exit 0."""
        code = cli_main(["compare", "--b1", "k-unit:2", "--b2", "k-unit:3", "--n", "4",
                         "--N", "100", "--trials", "2", "--grid-m", "100", "--seed", "0",
                         f"--alpha={alpha}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: alpha must be positive and finite\n"

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-200", "1e200", "1e300"])
    def test_extreme_alpha_prints_a_table(self, capsys, alpha):
        """alpha**2 would overflow at 1e200 and vanish at 1e-200: the run
        must still print its eight lines, with no traceback and no nan."""
        code = cli_main(["compare", "--b1", "k-unit:2", "--b2", "k-unit:3", "--n", "4",
                         "--N", "50", "--trials", "4", "--grid-m", "50", "--seed", "0",
                         f"--alpha={alpha}"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "nan" not in captured.out and len(captured.out.splitlines()) == 8

    def test_deterministic_output(self, capsys):
        argv = ["compare", "--b1", "k-unit:2", "--b2", "uniform-stair", "--n", "8",
                "--N", "300", "--trials", "12", "--eps", "0.1", "--grid-m", "2000",
                "--seed", "5"]
        _, first = run(capsys, argv)
        _, again = run(capsys, argv)
        assert len(first) == 2 + 12 + 2
        assert first == again


class TestCsvRow:
    def test_column_count_matches_header(self):
        spec = ExperimentSpec(design=2, n=8, N=200, trials=10, seed=1)
        row = mad_csv_row(spec, run_design(spec))
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_row_carries_its_normalized_bound(self):
        spec = ExperimentSpec(design=2, n=32, N=200, trials=10, seed=1)
        bound = mad_csv_row(spec, run_design(spec)).split(",")[-1]
        assert bound == f"{normalized_table_bound(2, 32, spec.eps):.10g}"

    def test_bit_identical_between_runs(self):
        spec = ExperimentSpec(design=3, n=8, N=200, trials=10, seed=2)
        a = mad_csv_row(spec, run_design(spec))
        b = mad_csv_row(spec, run_design(spec))
        assert a == b


class TestBounds:
    def test_table_of_bounds(self, capsys):
        code, lines = run(capsys, [
            "bounds", "--design", "2", "--n", "32", "--N", "10000", "--seed", "1",
        ])
        assert code == 0
        names = [l.split(",")[4] for l in lines[2:]]
        assert "multi_unit_target" in names
        assert "normalized_table" in names
        row = [l for l in lines if "normalized_table" in l][0]
        assert float(row.split(",")[5]) == pytest.approx(9.2103, abs=5e-4)

    def test_zero_sample_size_exits_one(self, capsys):
        assert cli_main(["bounds", "--design", "2", "--n", "8", "--N", "0", "--seed", "1"]) == 1
        assert "sample size N must be at least 1" in capsys.readouterr().err


class TestTable:
    def test_small_grid(self, capsys):
        code, lines = run(capsys, [
            "table", "--design", "2", "--trials", "5", "--ns", "4,8",
            "--sample-sizes", "100,300", "--seed", "4",
        ])
        assert code == 0
        assert len(lines) == 2 + 4


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("design = 2\nn = 8\nN = 300\ntrials = 5\n")
        code, lines = run(capsys, ["simulate", "--config", str(cfg), "--seed", "6"])
        assert code == 0
        assert lines[2].split(",")[:3] == ["2", "8", "300"]

    def test_explicit_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("design = 2\nn = 8\nN = 300\ntrials = 5\n")
        code, lines = run(capsys, ["simulate", "--config", str(cfg), "--n", "4", "--seed", "6"])
        assert code == 0
        assert lines[2].split(",")[1] == "4"

    @pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"], ["--conf={}"], ["--c", "{}"]],
                             ids=["config=", "conf", "conf=", "c"])
    def test_every_argparse_spelling_applies_the_file(self, tmp_path, capsys, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 3\n")
        base = ["simulate", "--design", "2", "--n", "4", "--N", "100", "--grid-m", "100", "--seed", "1"]
        want = run(capsys, base + ["--config", str(cfg)])
        assert want[0] == 0 and want[1][2].split(",")[4] == "3"
        assert run(capsys, base + [t.format(cfg) for t in spelling]) == want

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("design 2\n")
        assert cli_main(["simulate", "--config", str(cfg), "--seed", "1"]) == 2


#: each subcommand at a tiny size, and the flags of it that take numbers
NUMERIC_FLAGS = {
    "simulate --design 2 --n 4 --N 20 --trials 2 --grid-m 50 --seed 0":
        ("--design", "--n", "--N", "--eps", "--trials", "--grid-m", "--seed"),
    "sweep --design 2 --n 4 --N 20 --trials 2 --grid-m 50 --eps-list 0.1 --seed 0":
        ("--design", "--n", "--N", "--eps-list", "--trials", "--grid-m", "--seed"),
    "estimate --bids {bids} --source universal-b --target k-unit:2 --n 4 --seed 0":
        ("--n", "--seed"),
    "compare --b1 k-unit:2 --b2 k-unit:3 --n 4 --N 20 --trials 2 --grid-m 50 --seed 0":
        ("--n", "--N", "--eps", "--alpha", "--trials", "--grid-m", "--seed"),
    "bounds --design 2 --n 4 --N 20 --seed 0":
        ("--design", "--n", "--N", "--eps", "--seed"),
    "table --design 2 --trials 2 --ns 4 --sample-sizes 20 --seed 0":
        ("--design", "--eps", "--trials", "--ns", "--sample-sizes", "--seed"),
}
EDGE_VALUES = ("nan", "inf", "-inf", "-0.0", "0", "-1", "1", "1e308", "5e-324")


class TestNumericFlags:
    @pytest.fixture(scope="class")
    def bids(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bids") / "bids.csv"
        curve = bid_curve(ALL_PAY, Beta22(), universal_b(4), QuantileGrid(200))
        write_bid_csv(sample_bids(curve, 50, 0), path)
        return path

    @pytest.mark.parametrize("base,flag", [(b, f) for b, flags in NUMERIC_FLAGS.items()
                                           for f in flags])
    def test_edge_values_fail_cleanly_or_print_finite_numbers(self, capsys, bids, base, flag):
        """Every edge value of every numeric flag exits 0, 1 or 2 without a
        traceback; an exit 0 prints no nan or inf, and an exit 1 prints nothing."""
        for value in EDGE_VALUES:
            code = cli_main(base.format(bids=bids).split() + [f"{flag}={value}"])
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (flag, value)
            if code == 1:
                assert out == "", (flag, value)
            for field in out.replace("\n", ",").split(","):
                try:
                    number = float(field)
                except ValueError:
                    continue
                assert math.isfinite(number), (flag, value, out)

    def test_simulate_accepts_eps_one(self, capsys):
        """eps = 1 is the all-treatment cell: the bids are those of B alone."""
        code, lines = run(capsys, ["simulate", "--design", "2", "--n", "4", "--N", "20",
                                   "--trials", "2", "--grid-m", "50", "--seed", "0", "--eps", "1"])
        assert code == 0
        assert lines[2].split(",")[3] == "1"
        assert lines[2].split(",")[9] == "0"

    @pytest.mark.parametrize("argv", [
        "table --design 2 --trials 2 --ns 4,1 --sample-sizes 20 --seed 0",
        "table --design 2 --trials 2 --ns 4 --sample-sizes 20,0 --seed 0",
        "sweep --design 2 --n 4 --N 20 --trials 2 --grid-m 50 --eps-list 0.1,2 --seed 0",
    ])
    def test_list_elements_checked_before_the_first_cell(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("auctionab.harness.bid_curve", None)  # any cell would fail on it
        assert cli_main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err in {f"error: {message}\n" for _, message in LIMITS.values()}


#: runs each command line given after the mode, with scipy unimportable when
#: the mode is "blocked", and lists the scipy modules loaded at the end
RUN_ALL = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from auctionab.bounds import normalized_table_bound
from auctionab.cli import CSV_HEADER, build_parser, cli_main, mad_csv_row
for argv in sys.argv[2:]:
    print("$", argv, flush=True)
    print("exit", cli_main(argv.split()), flush=True)
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    """scipy is needed by the tests alone: with it unimportable every
    subcommand prints the bytes it prints with scipy installed, and neither
    run loads a scipy module."""
    bids = {}
    for fmt, source, n in (("allpay", "universal-b", 8), ("firstprice", "k-unit:16", 32)):
        curve = bid_curve(fmt, Beta22(), parse_rule(source, n), QuantileGrid(500))
        bids[fmt] = tmp_path / f"{fmt}.csv"
        write_bid_csv(sample_bids(curve, 300, seed=4), bids[fmt])
    commands = [
        "simulate --design 2 --n 8 --N 200 --trials 4 --grid-m 500 --seed 3 --format allpay",
        "simulate --design 3 --n 8 --N 200 --trials 4 --grid-m 500 --seed 3 --format firstprice",
        f"estimate --bids {bids['allpay']} --source universal-b --target k-unit:3 --n 8 "
        "--format allpay --seed 4",
        f"estimate --bids {bids['firstprice']} --source k-unit:16 --target k-unit:16 --n 32 "
        "--format firstprice --seed 4",
        "bounds --design 3 --n 32 --N 1000 --seed 0",
        "compare --b1 k-unit:2 --b2 uniform-stair --n 8 --N 300 --trials 3 --eps 0.1 "
        "--grid-m 500 --seed 5",
        "table --design 2 --trials 4 --ns 4,8 --sample-sizes 50 --seed 1",
        "sweep --design 2 --n 8 --N 200 --trials 4 --grid-m 500 --eps-list 0.01,0.1 --seed 2",
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(auctionab.__file__).parents[1])}
    out = {mode: subprocess.run([sys.executable, "-c", RUN_ALL, mode, *commands],
                                capture_output=True, text=True, check=True, env=env).stdout
           for mode in ("blocked", "installed")}
    assert out["blocked"] == out["installed"]
    lines = out["blocked"].splitlines()
    assert lines.count("exit 0") == len(commands)
    assert lines[-1] == "[]"


@pytest.mark.parametrize("workers", [None, "2"])
def test_trials_load_no_process_pool(workers):
    """Importing the package and running bounds, and the Monte Carlo trials
    of simulate and compare, load neither multiprocessing nor
    concurrent.futures, also when a stale AUCTIONAB_WORKERS (which the
    package no longer reads) asks for two workers."""
    commands = [
        "bounds --design 1 --n 32 --N 1000 --seed 0",
        "simulate --design 1 --n 4 --N 100 --trials 16 --grid-m 200 --seed 0",
        "compare --b1 k-unit:2 --b2 uniform-stair --n 8 --N 100 --trials 16 --eps 0.1 "
        "--grid-m 200 --seed 0",
    ]
    script = (
        "import sys, auctionab\n"
        "codes = [auctionab.cli_main(a.split()) for a in sys.argv[1:]]\n"
        "print('exit', codes)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))\n")
    env = {k: v for k, v in os.environ.items() if k != "AUCTIONAB_WORKERS"}
    if workers is not None:
        env["AUCTIONAB_WORKERS"] = workers
    env["PYTHONPATH"] = str(Path(auctionab.__file__).parents[1])
    lines = subprocess.run([sys.executable, "-c", script, *commands], capture_output=True,
                           text=True, check=True, env=env).stdout.splitlines()
    assert lines[-2:] == ["exit [0, 0, 0]", "[]"]


def test_one_parser_serves_every_call(tmp_path, capsys):
    """The parser is built once per process: an estimate, a usage error and
    bounds, run in turn in this process, print the bytes and exit codes
    that each prints in a fresh interpreter."""
    bids = tmp_path / "bids.csv"
    curve = bid_curve(ALL_PAY, Beta22(), universal_b(8), QuantileGrid(500))
    write_bid_csv(sample_bids(curve, 300, 4), bids)
    commands = [
        ["estimate", "--bids", str(bids), "--source", "universal-b", "--target", "k-unit:3",
         "--n", "8", "--seed", "4"],
        ["bounds", "--design", "2", "--n", "8", "--seed", "1"],
        ["bounds", "--design", "3", "--n", "32", "--N", "1000", "--seed", "0"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(auctionab.__file__).parents[1])}
    fresh = [subprocess.run([sys.executable, "-c", "from auctionab.cli import main; main()", *argv],
                            capture_output=True, text=True, env=env) for argv in commands]
    assert [r.returncode for r in fresh] == [0, 2, 0]
    for argv, r in zip(commands, fresh):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (r.returncode, r.stdout, r.stderr)
    assert build_parser() is build_parser()
