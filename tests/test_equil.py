import json
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionab.alloc import (
    AllocationRule,
    DegenerateRuleError,
    MultiUnit,
    mixture,
    uniform_stair,
)
from auctionab.dist import Beta22, QuantileGrid, Uniform01, true_revenue
from auctionab.equil import (
    ALL_PAY,
    CSV_CHUNK,
    FIRST_PRICE,
    BidCurve,
    BidSample,
    bid_curve,
    check_sidecar,
    invert,
    read_bid_csv,
    sample_bids,
    write_bid_csv,
)

GRID = QuantileGrid(10_000)


class TestAllPayCurve:
    def test_uniform_stair_quadratic(self):
        c = bid_curve(ALL_PAY, Uniform01(), uniform_stair(2), GRID)
        idx = int(0.6 * GRID.m)
        assert c.b[idx] == pytest.approx(0.18, abs=1e-6)
        np.testing.assert_allclose(c.b, GRID.q**2 / 2, atol=1e-6)

    def test_never_serve_rule_bids_zero(self):
        rule = AllocationRule([0.0, 0.0])
        c = bid_curve(ALL_PAY, Uniform01(), rule, GRID)
        np.testing.assert_array_equal(c.b, 0.0)

    def test_one_unit_two_bidder_endpoint(self):
        # b(1) = integral of v x' over [0,1]; for Uniform01 with x=q this is 1/2
        c = bid_curve(ALL_PAY, Uniform01(), MultiUnit(1, 2), GRID)
        assert c.b[-1] == pytest.approx(0.5, abs=1e-6)

    def test_starts_at_zero_and_monotone(self):
        for d in (Uniform01(), Beta22()):
            for rule in (MultiUnit(1, 8), MultiUnit(5, 8), uniform_stair(8)):
                c = bid_curve(ALL_PAY, d, rule, GRID)
                assert c.b[0] == 0.0
                assert np.all(np.diff(c.b) >= -1e-15)

    @pytest.mark.parametrize("m", [1, 2, 100, 10_000])
    def test_same_bits_as_scipy_cumulative_trapezoid(self, m):
        from scipy.integrate import cumulative_trapezoid

        g = QuantileGrid(m)
        for rule in (MultiUnit(1, 32), MultiUnit(31, 32), uniform_stair(32)):
            ref = cumulative_trapezoid(Beta22().v(g.q) * rule.xprime(g.q), g.q, initial=0.0)
            assert bid_curve(ALL_PAY, Beta22(), rule, g).b.tobytes() == ref.tobytes()

    def test_mean_bid_equals_per_agent_revenue(self):
        # all-pay: every agent pays their bid, so E[b] is the per-agent revenue
        d = Beta22()
        rule = MultiUnit(2, 6)
        c = bid_curve(ALL_PAY, d, rule, GRID)
        assert np.trapezoid(c.b, GRID.q) == pytest.approx(true_revenue(d, rule, GRID), abs=1e-5)


class TestFirstPriceCurve:
    def test_two_bidder_half_value(self):
        c = bid_curve(FIRST_PRICE, Uniform01(), MultiUnit(1, 2), GRID)
        np.testing.assert_allclose(c.b, GRID.q / 2, atol=1e-4)

    def test_no_overbidding(self):
        for d in (Uniform01(), Beta22()):
            for rule in (MultiUnit(1, 5), MultiUnit(3, 5), uniform_stair(5)):
                c = bid_curve(FIRST_PRICE, d, rule, GRID)
                assert np.all(c.b <= d.v(GRID.q) + 1e-12)

    def test_monotone(self):
        c = bid_curve(FIRST_PRICE, Beta22(), MultiUnit(2, 8), GRID)
        assert np.all(np.diff(c.b) >= -1e-12)

    def test_never_serve_raises(self):
        rule = AllocationRule([0.0, 0.0])
        with pytest.raises(DegenerateRuleError):
            bid_curve(FIRST_PRICE, Uniform01(), rule, GRID)


class TestInversion:
    @pytest.mark.parametrize("fmt", [ALL_PAY, FIRST_PRICE])
    def test_round_trip_uniform_stair(self, fmt):
        d = Beta22()
        c = bid_curve(fmt, d, uniform_stair(8), GRID)
        v = invert(c)
        mask = (GRID.q >= 0.01) & (GRID.q <= 0.99)
        assert np.nanmax(np.abs(v[mask] - d.v(GRID.q)[mask])) <= 5e-3

    def test_round_trip_design1_mixture_firstprice(self):
        d = Beta22()
        rule = mixture(MultiUnit(1, 8), uniform_stair(8), 0.001)
        c = bid_curve(FIRST_PRICE, d, rule, GRID)
        v = invert(c)
        mask = (GRID.q >= 0.01) & (GRID.q <= 0.99)
        assert np.nanmax(np.abs(v[mask] - d.v(GRID.q)[mask])) <= 5e-3

    def test_gap_reporting_where_slope_vanishes(self):
        c = bid_curve(ALL_PAY, Uniform01(), MultiUnit(1, 8), GRID)
        v = invert(c)
        xp = MultiUnit(1, 8).xprime(GRID.q)
        assert np.all(np.isnan(v[xp <= 1e-9]))
        assert not np.any(np.isnan(v[xp > 1e-9]))

    @pytest.mark.parametrize("fmt", [ALL_PAY, FIRST_PRICE])
    def test_one_cell_grid_rejected(self, fmt):
        """numpy's gradient once raised its own shape error here."""
        c = bid_curve(fmt, Beta22(), uniform_stair(4), QuantileGrid(1))
        with pytest.raises(ValueError, match="grid of at least 2 cells, got 1"):
            invert(c)

    @pytest.mark.parametrize("fmt", [ALL_PAY, FIRST_PRICE])
    def test_two_cell_grid_inverts(self, fmt):
        grid = QuantileGrid(2)
        v = invert(bid_curve(fmt, Beta22(), uniform_stair(4), grid))
        np.testing.assert_allclose(v, Beta22().v(grid.q), atol=1e-12)


class TestSampling:
    def test_deterministic_given_seed(self):
        c = bid_curve(ALL_PAY, Beta22(), uniform_stair(4), GRID)
        a = sample_bids(c, 500, 42)
        b = sample_bids(c, 500, 42)
        np.testing.assert_array_equal(a.bids, b.bids)

    def test_sorted_and_sized(self):
        c = bid_curve(ALL_PAY, Beta22(), uniform_stair(4), GRID)
        s = sample_bids(c, 1000, 7)
        assert s.size == 1000
        assert np.all(np.diff(s.bids) >= 0)

    def test_single_draw_is_grid_bid(self):
        c = bid_curve(ALL_PAY, Uniform01(), uniform_stair(4), GRID)
        s = sample_bids(c, 1, 3)
        assert s.bids[0] in c.b

    def test_empirical_cdf_close_to_curve_cdf(self):
        c = bid_curve(ALL_PAY, Beta22(), uniform_stair(4), QuantileGrid(1000))
        s = sample_bids(c, 1_000_000, 0)
        # sup gap between empirical CDF of samples and the uniform grid CDF
        ghat = np.searchsorted(s.bids, c.b, side="right") / s.size
        assert np.max(np.abs(ghat - c.grid.q)) <= 2e-3

    def test_invalid_size(self):
        c = bid_curve(ALL_PAY, Uniform01(), uniform_stair(4), GRID)
        with pytest.raises(ValueError):
            sample_bids(c, 0, 1)


def _sorted_gather(curve, N, seed):
    idx = np.random.default_rng(seed).integers(0, len(curve.b), size=N)
    return np.sort(curve.b[idx])


class TestDraw:
    """On an ordered curve `draw` sorts int32 grid indices below four times
    the grid size and counts the grid bids from there; any other curve
    gathers and sorts.  All give the array that sorting the gathered int64
    draws gives, bit for bit."""

    @pytest.mark.parametrize("M", [2, 101, 10_001, 65_537, 2**20])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
    def test_int32_indices_equal_the_int64_stream(self, M, seed):
        # the index path relies on this; a numpy release that changed it would
        # change every trial's sample
        for N in (1, 999, 100_003):
            wide = np.random.default_rng(np.random.SeedSequence((seed, 3))).integers(0, M, size=N)
            narrow = np.random.default_rng(np.random.SeedSequence((seed, 3))).integers(
                0, M, size=N, dtype=np.int32)
            assert wide.astype(np.int32).tobytes() == narrow.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(fmt=st.sampled_from([ALL_PAY, FIRST_PRICE]), m=st.integers(1, 300),
           k=st.integers(2, 8), offset=st.integers(-2, 2),
           scale=st.sampled_from([0.5, 1, 2, 3, 3.9, 4, 4.1, 5, 6]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_sorted_gather(self, fmt, m, k, offset, scale, seed):
        c = bid_curve(fmt, Beta22(), MultiUnit(k - 1, k), QuantileGrid(m))
        N = max(1, int(scale * len(c.b)) + offset)
        out = c.draw(N, np.random.SeedSequence((seed, 3)))
        assert out.tobytes() == _sorted_gather(c, N, np.random.SeedSequence((seed, 3))).tobytes()

    @pytest.mark.parametrize("b, ordered", [
        ([0.0, 0.3, 0.2, 0.5, 0.5], False),      # not monotone
        ([0.0, 0.1, np.nan, 0.4, 0.5], False),   # a NaN fails the order check
        ([-0.0, 0.0, -0.0, 0.2, 0.3], False),    # equal values with different bits
        ([0.0, 0.1, 0.1, 0.4, 0.9], True),       # ties
    ])
    @pytest.mark.parametrize("N", [1, 4, 5, 6, 9, 10, 11, 50])
    def test_hand_built_curves(self, b, ordered, N):
        c = BidCurve(ALL_PAY, uniform_stair(4), QuantileGrid(4), np.array(b))
        assert c.ordered is ordered
        assert c.draw(N, 8).tobytes() == _sorted_gather(c, N, 8).tobytes()

    @pytest.mark.parametrize("N", [1, 50_000, 4 * 70_001 - 1, 4 * 70_001])
    def test_grid_wider_than_16_bits(self, N):
        # indices above 2**16 must survive the index path
        c = bid_curve(ALL_PAY, Beta22(), uniform_stair(8), QuantileGrid(70_000))
        assert c.ordered
        out = c.draw(N, 21)
        assert out.tobytes() == _sorted_gather(c, N, 21).tobytes()

    def test_equilibrium_curves_are_ordered(self):
        for rule in (MultiUnit(1, 8), MultiUnit(7, 8), uniform_stair(8)):
            assert bid_curve(ALL_PAY, Beta22(), rule, GRID).ordered


class TestBidSample:
    def test_unsorted_input_sorted(self):
        s = BidSample(ALL_PAY, uniform_stair(2), np.array([0.9, 0.1]))
        np.testing.assert_array_equal(s.bids, [0.1, 0.9])

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            BidSample(ALL_PAY, uniform_stair(2), np.array([-0.1, 0.2]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BidSample(ALL_PAY, uniform_stair(2), np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BidSample(ALL_PAY, uniform_stair(2), np.array([0.1, bad, 0.3]))

    def test_agent_count_is_the_rules(self):
        s = BidSample(ALL_PAY, MultiUnit(1, 4), np.array([0.1, 0.2]))
        assert s.n == 4

    def test_caller_array_stays_writable(self):
        a = np.array([0.1, 0.2])
        s = BidSample(ALL_PAY, uniform_stair(2), a)
        a[0] = 0.15
        assert s.bids.tolist() == [0.1, 0.2] and not s.bids.flags.writeable


SPECIAL_BIDS = [0.0, -0.0, 5e-324, 1e300, 1 / 3]
#: sample sizes around one chunk and past three
CHUNK_SIZES = st.sampled_from([1, 2]) | st.integers(CSV_CHUNK - 2, CSV_CHUNK + 2) \
    | st.integers(3 * CSV_CHUNK, 3 * CSV_CHUNK + 5)


@st.composite
def tied_samples(draw):
    """Sorted samples drawn with replacement from a small pool of bids that
    holds the special ones, with -0.0 and 0.0 mixed in any order; or grid
    samples of either format."""
    N, seed = draw(CHUNK_SIZES), draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        fmt = draw(st.sampled_from([ALL_PAY, FIRST_PRICE]))
        curve = bid_curve(fmt, Beta22(), uniform_stair(4), QuantileGrid(draw(st.integers(1, 300))))
        return sample_bids(curve, N, seed)
    extra = draw(st.lists(st.floats(0.0, 1e300), max_size=4))
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_BIDS + extra)[:draw(st.integers(1, len(SPECIAL_BIDS) + len(extra)))]
    bids = np.sort(rng.choice(pool, N))
    zeros = bids == 0.0
    bids[zeros] = rng.choice([-0.0, 0.0], np.count_nonzero(zeros))
    return BidSample(ALL_PAY, uniform_stair(4), bids)


class TestCsvIo:
    @settings(max_examples=30, deadline=None)
    @given(tied_samples())
    def test_tied_samples_write_savetxt_bytes(self, s):
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = Path(tmp) / "bids.csv", Path(tmp) / "ref.csv"
            write_bid_csv(s, path)
            np.savetxt(ref, s.bids, header="bid", comments="", fmt="%.17g")
            csv = path.read_bytes()
            assert csv == ref.read_bytes()
            sidecar = json.loads(path.with_suffix(".json").read_text())
            assert (sidecar["csv_bytes"], sidecar["csv_crc32"]) == (len(csv), zlib.crc32(csv))
            copy = read_bid_csv(path, s.format, s.rule)
            path.with_suffix(".npy").unlink()
            parsed = read_bid_csv(path, s.format, s.rule)
            assert copy.bids.tobytes() == parsed.bids.tobytes() == s.bids.tobytes()

    @pytest.mark.parametrize("N", [1, len(SPECIAL_BIDS), CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
                                   3 * CSV_CHUNK + 5])
    def test_bytes_equal_savetxt_and_read_back(self, tmp_path, N):
        rng = np.random.default_rng(N)
        bids = np.concatenate((SPECIAL_BIDS, rng.random(N) * 10.0 ** rng.integers(-5, 5, N)))[:N]
        s = BidSample(ALL_PAY, uniform_stair(4), bids)
        path, ref = tmp_path / "bids.csv", tmp_path / "ref.csv"
        write_bid_csv(s, path)
        np.savetxt(ref, s.bids, header="bid", comments="", fmt="%.17g")
        assert path.read_bytes() == ref.read_bytes()
        back = read_bid_csv(path, ALL_PAY, uniform_stair(4))
        assert back.bids.tobytes() == s.bids.tobytes()

    def test_read_keeps_the_loaded_array(self, tmp_path, monkeypatch):
        """Sorted bids parsed from a file are stored without a copy."""
        path, loaded, real_loadtxt = tmp_path / "bids.csv", [], np.loadtxt

        def loadtxt(*args, **kwargs):
            loaded.append(real_loadtxt(*args, **kwargs))
            return loaded[-1]

        write_bid_csv(BidSample(ALL_PAY, uniform_stair(4), np.array([0.1, 0.2, 0.4])), path)
        (tmp_path / "bids.npy").unlink()  # so the bids are parsed
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert read_bid_csv(path, ALL_PAY, uniform_stair(4)).bids is loaded[0]

    def test_read_keeps_the_array_of_the_copy(self, tmp_path, monkeypatch):
        """Sorted bids loaded from the .npy copy are stored without a copy."""
        path, loaded, real_read = tmp_path / "bids.csv", [], np.lib.format.read_array

        def read_array(*args, **kwargs):
            loaded.append(real_read(*args, **kwargs))
            return loaded[-1]

        write_bid_csv(BidSample(ALL_PAY, uniform_stair(4), np.array([0.1, 0.2, 0.4])), path)
        monkeypatch.setattr(np.lib.format, "read_array", read_array)
        assert read_bid_csv(path, ALL_PAY, uniform_stair(4)).bids is loaded[0]

    @pytest.mark.parametrize("text, message", [
        ("0.1\n0.2\n", "must start with the header line 'bid'"),
        ("", "must start with the header line 'bid'"),
        ("bid\n", "holds no bids"),
        ("bid\n\n", "holds no bids"),
    ])
    def test_bad_files_rejected(self, tmp_path, text, message):
        path = tmp_path / "bids.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            read_bid_csv(path, ALL_PAY, uniform_stair(4))
        assert str(path) in str(exc.value)

    def test_header_may_carry_whitespace(self, tmp_path):
        path = tmp_path / "bids.csv"
        path.write_bytes(b" bid \r\n0.25\r\n0.5\r\n")
        np.testing.assert_array_equal(read_bid_csv(path, ALL_PAY, uniform_stair(4)).bids, [0.25, 0.5])

    def test_round_trip_with_sidecar(self, tmp_path):
        c = bid_curve(ALL_PAY, Beta22(), uniform_stair(4), QuantileGrid(100))
        s = sample_bids(c, 50, 5)
        path = tmp_path / "bids.csv"
        write_bid_csv(s, path)
        assert path.read_text().splitlines()[0] == "bid"
        sidecar = json.loads((tmp_path / "bids.json").read_text())
        csv = path.read_bytes()
        assert sidecar == {
            "format": "allpay", "n": 4, "rule": uniform_stair(4).describe(),
            "weights": "1,0.66666666666666663,0.33333333333333331,0", "N": 50,
            "csv_bytes": len(csv), "csv_crc32": zlib.crc32(csv), "npy_crc32": zlib.crc32(s.bids),
        }
        np.testing.assert_array_equal(np.load(tmp_path / "bids.npy"), s.bids)
        back = read_bid_csv(path, ALL_PAY, uniform_stair(4))
        np.testing.assert_allclose(back.bids, s.bids)


def _count_parses(monkeypatch) -> list:
    """Record each np.loadtxt call; the list grows by one per parse."""
    calls, real = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _flip_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 1
    path.write_bytes(bytes(data))


class TestBinaryCopy:
    """read_bid_csv loads the .npy copy only while the sidecar vouches for it."""

    @pytest.mark.parametrize("N", [1, CSV_CHUNK - 1, CSV_CHUNK + 1, 3 * CSV_CHUNK + 5])
    def test_both_paths_give_the_same_bits(self, tmp_path, monkeypatch, N):
        rng = np.random.default_rng(N)
        bids = np.concatenate((SPECIAL_BIDS, rng.random(N) * 10.0 ** rng.integers(-5, 5, N)))[:N]
        s = BidSample(ALL_PAY, uniform_stair(4), bids)
        path = tmp_path / "bids.csv"
        write_bid_csv(s, path)
        parses = _count_parses(monkeypatch)
        copy = read_bid_csv(path, ALL_PAY, uniform_stair(4))
        assert parses == []
        (tmp_path / "bids.npy").unlink()
        parsed = read_bid_csv(path, ALL_PAY, uniform_stair(4))
        assert len(parses) == 1
        assert copy.bids.tobytes() == parsed.bids.tobytes() == s.bids.tobytes()
        assert not copy.bids.flags.writeable

    def _written(self, tmp_path):
        path = tmp_path / "bids.csv"
        write_bid_csv(BidSample(ALL_PAY, uniform_stair(4), np.array([0.125, 0.25, 0.5])), path)
        return path, tmp_path / "bids.npy", tmp_path / "bids.json"

    def test_edited_csv_wins(self, tmp_path, monkeypatch):
        path, _, _ = self._written(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"0.125", b"0.126"))  # one byte, same length
        parses = _count_parses(monkeypatch)
        assert read_bid_csv(path, ALL_PAY, uniform_stair(4)).bids.tolist() == [0.126, 0.25, 0.5]
        assert len(parses) == 1

    @pytest.mark.parametrize("damage", ["missing", "truncated", "payload byte", "header byte",
                                        "old sidecar", "no sidecar", "sidecar not json"])
    def test_damaged_copy_falls_back_to_the_parse(self, tmp_path, monkeypatch, damage):
        path, npy, side = self._written(tmp_path)
        if damage == "missing":
            npy.unlink()
        elif damage == "truncated":
            npy.write_bytes(npy.read_bytes()[:-1])
        elif damage == "payload byte":
            _flip_byte(npy, -3)  # same length, the CRC no longer matches
        elif damage == "header byte":
            npy.write_bytes(npy.read_bytes().replace(b"'<f8'", b"'>f8'"))
        elif damage == "old sidecar":
            side.write_text(json.dumps({"format": "allpay", "n": 4, "rule": "x"}))
        elif damage == "no sidecar":
            side.unlink()
        else:
            side.write_text("[1, 2")
        parses = _count_parses(monkeypatch)
        assert read_bid_csv(path, ALL_PAY, uniform_stair(4)).bids.tolist() == [0.125, 0.25, 0.5]
        assert len(parses) == 1

    @pytest.mark.parametrize("suffix", [".npy", ".json"])
    def test_csv_may_not_take_a_companion_name(self, tmp_path, suffix):
        with pytest.raises(ValueError, match="would overwrite"):
            write_bid_csv(BidSample(ALL_PAY, uniform_stair(4), [0.5]), tmp_path / f"bids{suffix}")
        assert list(tmp_path.iterdir()) == []


class TestCheckSidecar:
    def _written(self, tmp_path):
        path = tmp_path / "bids.csv"
        write_bid_csv(BidSample(ALL_PAY, uniform_stair(4), np.array([0.5])), path)
        return path

    def test_agreeing_sidecar(self, tmp_path):
        assert check_sidecar(self._written(tmp_path), ALL_PAY, uniform_stair(4)) is None

    @pytest.mark.parametrize("fmt, rule, message", [
        (FIRST_PRICE, uniform_stair(4), "records format 'allpay' in its sidecar, but format 'firstprice'"),
        (ALL_PAY, uniform_stair(5), "records n 4 in its sidecar, but n 5"),
    ])
    def test_format_or_n_mismatch_raises(self, tmp_path, fmt, rule, message):
        with pytest.raises(ValueError, match=message):
            check_sidecar(self._written(tmp_path), fmt, rule)

    def test_rule_mismatch_warns(self, tmp_path):
        path = self._written(tmp_path)
        warning = check_sidecar(path, ALL_PAY, MultiUnit(2, 4))
        assert "'position(1,0.666667,0.333333,0)'" in warning and "'2-unit(n=4)'" in warning

    def test_missing_or_old_sidecar_checks_what_it_holds(self, tmp_path):
        path = self._written(tmp_path)
        side = tmp_path / "bids.json"
        side.write_text(json.dumps({"format": "allpay", "n": 4, "rule": "x"}))
        assert check_sidecar(path, ALL_PAY, MultiUnit(2, 4)) is None
        with pytest.raises(ValueError, match="records n 4"):
            check_sidecar(path, ALL_PAY, MultiUnit(2, 5))
        side.unlink()
        assert check_sidecar(path, FIRST_PRICE, MultiUnit(2, 5)) is None
