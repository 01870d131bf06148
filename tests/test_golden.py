"""Golden CLI output: all-pay `simulate` cells for designs 1-3 at n = 4 and
32 and one `compare` run, recorded before the first-price weights were
rebuilt from an antiderivative, and `estimate` rows in both formats,
recorded before the estimators shared one source-slope evaluation.  These
paths must keep printing the same bytes: same draws per trial, same
weights, same CSV formatting."""
import numpy as np
import pytest

from auctionab.alloc import parse_rule
from auctionab.cli import cli_main
from auctionab.dist import Beta22, QuantileGrid
from auctionab.equil import bid_curve, sample_bids

MAD_HEADER = ["# auctionab-mad-v1",
              "design,n,N,eps,trials,seed,raw_mad,norm_sqrtN_over_n,norm_sqrt_N_over_n_alt,bound"]

GOLDEN = {
    "simulate --design 1 --n 4 --N 200 --trials 8 --grid-m 2000 --seed 11":
        MAD_HEADER + ["1,4,200,0.001,8,11,0.07634670034,0.2699263476,0.5398526953,5.422173532"],
    "simulate --design 1 --n 32 --N 200 --trials 8 --grid-m 2000 --seed 11":
        MAD_HEADER + ["1,32,200,0.001,8,11,1.996680058,0.8824162554,4.991700144,4.56224076"],
    "simulate --design 2 --n 4 --N 200 --trials 8 --grid-m 2000 --seed 11":
        MAD_HEADER + ["2,4,200,0.001,8,11,0.02143747636,0.07579292451,0.151585849,9.210340372"],
    "simulate --design 2 --n 32 --N 200 --trials 8 --grid-m 2000 --seed 11":
        MAD_HEADER + ["2,32,200,0.001,8,11,0.1162605773,0.05138040162,0.2906514432,9.210340372"],
    "simulate --design 3 --n 4 --N 200 --trials 8 --grid-m 2000 --seed 11":
        MAD_HEADER + ["3,4,200,0.001,8,11,0.08016791456,0.2834363801,0.5668727602,9.210340372"],
    "simulate --design 3 --n 32 --N 200 --trials 8 --grid-m 2000 --seed 11":
        MAD_HEADER + ["3,32,200,0.001,8,11,0.2544509946,0.1124525149,0.6361274866,9.210340372"],
    "compare --incumbent one-unit --b1 k-unit:2 --b2 uniform-stair --n 8 --N 300 --trials 6 --eps 0.1 --grid-m 2000 --seed 5": [
        "# auctionab-compare-v1",
        "trial,verdict,margin,true_verdict,classifier_bound",
        "0,0,-0.02092297501,0,0.9998711983",
        "1,0,-0.05554777147,0,0.9998711983",
        "2,0,-0.05447920633,0,0.9998711983",
        "3,0,-0.02083859391,0,0.9998711983",
        "4,0,-0.0675464934,0,0.9998711983",
        "5,0,-0.02486163528,0,0.9998711983",
        "# misclassification_rate,0",
        "# sup_target_slope,2.813143004",
    ],
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_output_bytes_unchanged(argv, capsys):
    assert cli_main(argv.split()) == 0
    assert capsys.readouterr().out == "\n".join(GOLDEN[argv]) + "\n"


ESTIMATE_HEADER = ["# auctionab-estimate-v1",
                   "design,format,n,N,eps,seed,estimate,truth,abs_error,bound"]

GOLDEN_ESTIMATE = {
    "estimate --source universal-b --target k-unit:3 --n 8 --format allpay --seed 4":
        ESTIMATE_HEADER + [",allpay,8,400,,4,0.2213017625,,,52.11161822"],
    "estimate --source universal-b --target uniform-stair --n 8 --format firstprice --seed 4":
        ESTIMATE_HEADER + [",firstprice,8,400,,4,0.1924014563,,,18.13196361"],
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_ESTIMATE))
def test_estimate_bytes_unchanged(argv, tmp_path, capsys):
    """400 equilibrium bids under the source, written in shuffled order so
    the reader has to sort them."""
    args = argv.split()
    fmt = args[args.index("--format") + 1]
    source = parse_rule(args[args.index("--source") + 1], 8)
    bids = sample_bids(bid_curve(fmt, Beta22(), source, QuantileGrid(2000)), 400, seed=4).bids
    path = tmp_path / "bids.csv"
    np.savetxt(path, np.random.default_rng(0).permutation(bids), header="bid", comments="",
               fmt="%.17g")
    assert cli_main(args + ["--bids", str(path)]) == 0
    assert capsys.readouterr().out == "\n".join(GOLDEN_ESTIMATE[argv]) + "\n"
