"""Golden CLI output: all-pay `simulate` cells for designs 1-3 at n = 4 and
32 and one `compare` run, recorded before the first-price weights were
rebuilt from an antiderivative; `estimate` rows in both formats, recorded
before the estimators shared one source-slope evaluation; and `bounds`
tables, recorded before the bound inputs took over the sup 1/x' grid; and
`simulate` cells in both formats that draw far more bids than the grid has
points, recorded before such draws were built by counting; and more `bounds`
tables, recorded before the bound constants became fixed; and first-price
`simulate` cells at n = 256 and `estimate` rows whose rules need binomial
tails with both parameters above 2, recorded while those tails still came
from scipy.  These paths
must keep printing the same bytes: same draws per trial, same weights, same
CSV formatting."""
import numpy as np
import pytest

from auctionab.alloc import mixture, parse_rule
from auctionab.cli import cli_main
from auctionab.dist import Beta22, QuantileGrid
from auctionab.equil import bid_curve, sample_bids
from auctionab.harness import ExperimentSpec

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

BOUNDS_HEADER = ["# auctionab-bounds-v1", "design,n,N,eps,bound_name,value"]
BOUND_NAMES = ["multi_unit_target", "general_target", "ideal_split", "mixture_general",
               "mixture_multi_unit", "universal_all_k", "expected_value", "welfare",
               "normalized_table"]


def bounds_rows(cell: str, values: str) -> list[str]:
    return BOUNDS_HEADER + [f"{cell},{name},{v}" for name, v in zip(BOUND_NAMES, values.split())]


GOLDEN.update({
    "bounds --design 1 --n 8 --N 1000 --seed 0": bounds_rows(
        "1,8,1000,0.001", "8.73769608 42.63216105 1 1.159157913 11.36800469 150.8558767 "
                          "42.63216105 368.0622934 4.695740023"),
    "bounds --design 2 --n 8 --N 1000 --seed 0": bounds_rows(
        "2,8,1000,0.001", "17.15047025 69.95805269 7 8.114105391 79.57603285 150.8558767 "
                          "5.160159237 368.0622934 9.210340372"),
    "bounds --design 3 --n 8 --N 1000 --seed 0": bounds_rows(
        "3,8,1000,0.001", "61.16387256 256.4601274 7 8.114105391 79.57603285 150.8558767 "
                          "34.44447067 368.0622934 9.210340372"),
    # N = 2 clamps the grid to [1/4, 3/4], inside the interior minimum of x'
    "bounds --design 3 --n 4 --N 2 --seed 0": bounds_rows(
        "3,4,2,0.001", "185.7645662 450.8215884 67.08203932 41.43149564 703.7734493 1234.071636 "
                       "118.8920004 4263.206492 9.210340372"),
    "bounds --design 1 --n 1024 --N 10000 --seed 0": bounds_rows(
        "1,1024,10000,0.001", "2.763102112 334.9852932 0.316227766 11.6593555 5.535690834 "
                              "422259.8166 335.7179179 2927450.787 2.28112038"),
})

# multi-run mixture sources at larger n, small N and other eps, recorded
# before the bound formulas lost their constant parameters: these pin the
# order of each formula's operations
GOLDEN.update({
    "bounds --design 2 --n 256 --N 1000 --seed 0": bounds_rows(
        "2,256,1000,0.001", "1681.288117 63346.3255 255 3783.463329 4016.722357 85134.06169 "
                            "47.65946212 472932.9631 9.210340372"),
    "bounds --design 3 --n 32 --N 100000 --seed 0": bounds_rows(
        "3,32,100000,0.001", "27.08685785 285.5634321 3.1 10.70925742 40.67678568 157.4875204 "
                             "208351.2922 559.9485504 9.210340372"),
    "bounds --design 1 --n 32 --N 10 --seed 0": bounds_rows(
        "1,32,10,0.001", "87.3769608 4017.173362 10 34.54599167 131.2154377 15748.75204 "
                         "4017.173362 59162.85504 4.56224076"),
    "bounds --design 2 --n 64 --N 7 --eps 0.3 --seed 0": bounds_rows(
        "2,64,7,0.3", "952.470472 15541.24386 43.47413024 2083.368046 5107.961879 63090.65016 "
                      "737.9282151 263739.8872 1.605297072"),
    "bounds --design 3 --n 128 --N 50 --eps 0.05 --seed 0": bounds_rows(
        "3,128,50,0.05", "2152.195447 53683.2796 80.32185257 3512.621114 5637.993405 94851.04189 "
                         "3.740413387e+36 461377.6632 3.994309698"),
})

# N = 1000 draws from a 101-point grid: the counting path of BidCurve.draw
COUNTING = {
    "simulate --design 2 --n 32 --N 1000 --trials 8 --grid-m 100 --seed 11 --format allpay":
        MAD_HEADER + ["2,32,1000,0.001,8,11,0.04211943674,0.04162292308,0.2354548093,9.210340372"],
    "simulate --design 3 --n 32 --N 1000 --trials 8 --grid-m 100 --seed 11 --format allpay":
        MAD_HEADER + ["3,32,1000,0.001,8,11,0.1841651764,0.1819941947,1.029514634,9.210340372"],
    "simulate --design 2 --n 32 --N 1000 --trials 8 --grid-m 100 --seed 11 --format firstprice":
        MAD_HEADER + ["2,32,1000,0.001,8,11,0.01934309243,0.01911507158,0.1081311739,9.210340372"],
    "simulate --design 3 --n 32 --N 1000 --trials 8 --grid-m 100 --seed 11 --format firstprice":
        MAD_HEADER + ["3,32,1000,0.001,8,11,0.1674606997,0.1654866343,0.9361337704,9.210340372"],
}
GOLDEN.update(COUNTING)


def _simulate_cell(argv):
    """The spec of a `simulate` command line and its bid curve."""
    args = argv.split()
    flag = {k[2:]: v for k, v in zip(args[1::2], args[2::2])}
    spec = ExperimentSpec(design=int(flag["design"]), n=int(flag["n"]), N=int(flag["N"]),
                          grid_m=int(flag["grid-m"]), format=flag.get("format", "allpay"))
    a, b = spec.rules()
    curve = bid_curve(spec.format, Beta22(), mixture(a, b, spec.eps), QuantileGrid(spec.grid_m))
    return spec, curve


@pytest.mark.parametrize("argv", sorted(COUNTING))
def test_counting_cells_reach_the_counting_path(argv):
    spec, curve = _simulate_cell(argv)
    assert curve.counting(spec.N)


# N = 200 draws from a 2001-point all-pay grid: the index-sort path of BidCurve.draw
INDEX_SORT = sorted(k for k in GOLDEN if k.startswith("simulate") and "--grid-m 2000" in k)


@pytest.mark.parametrize("argv", INDEX_SORT)
def test_grid_2000_cells_reach_the_index_sort_path(argv):
    spec, curve = _simulate_cell(argv)
    assert spec.format == "allpay"
    assert not curve.counting(spec.N)


# first-price cells at n = 256, recorded before the binomial tails left scipy
GOLDEN.update({
    "simulate --design 2 --n 256 --N 200 --trials 8 --grid-m 2000 --seed 11 --format firstprice":
        MAD_HEADER + ["2,256,200,0.001,8,11,0.160047211,0.008841442831,0.1414630853,9.210340372"],
    "simulate --design 3 --n 256 --N 200 --trials 8 --grid-m 2000 --seed 11 --format firstprice":
        MAD_HEADER + ["3,256,200,0.001,8,11,0.6247160157,0.03451101024,0.5521761638,9.210340372"],
})


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
    # x = I_q(16, 16) and I_q(156, 100): tails with both parameters above 2
    "estimate --source k-unit:16 --target k-unit:16 --n 32 --format firstprice --seed 4":
        ESTIMATE_HEADER + [",firstprice,32,400,,4,0.2461758651,,,94.33588763"],
    "estimate --source k-unit:16 --target k-unit:16 --n 32 --format allpay --seed 4":
        ESTIMATE_HEADER + [",allpay,32,400,,4,0.2590215871,,,94.33588763"],
    "estimate --source uniform-stair --target k-unit:100 --n 256 --format firstprice --seed 4":
        ESTIMATE_HEADER + [",firstprice,256,400,,4,0.2101434271,,,2532.715027"],
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_ESTIMATE))
def test_estimate_bytes_unchanged(argv, tmp_path, capsys):
    """400 equilibrium bids under the source, written in shuffled order so
    the reader has to sort them."""
    args = argv.split()
    fmt, n = args[args.index("--format") + 1], int(args[args.index("--n") + 1])
    source = parse_rule(args[args.index("--source") + 1], n)
    bids = sample_bids(bid_curve(fmt, Beta22(), source, QuantileGrid(2000)), 400, seed=4).bids
    path = tmp_path / "bids.csv"
    np.savetxt(path, np.random.default_rng(0).permutation(bids), header="bid", comments="",
               fmt="%.17g")
    assert cli_main(args + ["--bids", str(path)]) == 0
    assert capsys.readouterr().out == "\n".join(GOLDEN_ESTIMATE[argv]) + "\n"
