import pathlib
import random
import re

import pytest

from abrsim import load_trace
from abrsim.manifest import (NETFLIX_LADDER_KBPS, BitrateLadder, SaturationProfile, save_manifest,
                             synthesize_manifest)
from abrsim.trace import (
    SYNTH_HIGH_KBPS,
    SYNTH_LOW_KBPS,
    BandwidthTrace,
    TraceExhaustedError,
    download_finish_time,
    save_trace,
    synthesize_oscillating_trace,
)
from helpers import constant_trace, random_trace, transferred_kilobits


def two_rate_trace():
    return BandwidthTrace(((0.0, 5000.0), (10.0, 1000.0)))


# --- construction ---

def test_requires_samples():
    with pytest.raises(ValueError, match="no samples"):
        BandwidthTrace(())


def test_first_timestamp_must_be_zero():
    with pytest.raises(ValueError, match="timestamp 0"):
        BandwidthTrace(((1.0, 500.0),))


def test_timestamps_strictly_increase():
    with pytest.raises(ValueError, match="does not increase"):
        BandwidthTrace(((0.0, 500.0), (5.0, 600.0), (5.0, 700.0)))


def test_negative_bandwidth_rejected():
    with pytest.raises(ValueError, match="negative bandwidth"):
        BandwidthTrace(((0.0, -1.0),))


def test_loop_needs_two_samples_and_positive_rate():
    # Each trace is valid; only looping it is refused, at every download, with
    # the period volume named: the product of rate and span, not the rate alone.
    volume = "a looping trace needs a positive, finite volume per period: its "
    for samples, message in [
        (((0.0, 500.0),), "a looping trace needs at least 2 samples to define its period"),
        (((0.0, 0.0), (10.0, 900.0)), volume + "10.0s period carries 0.0 kilobits"),
        (((0.0, 5e-324), (0.5, 0.0)), volume + "0.5s period carries 0.0 kilobits"),
        (((0.0, 1e308), (10.0, 0.0)), volume + "10.0s period carries inf kilobits"),
    ]:
        trace = BandwidthTrace(samples)
        for start_s in (0.0, 3.0):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                download_finish_time(trace, start_s, 100.0, loop=True)


# --- integration ---

def test_transferred_over_constant_segment():
    assert transferred_kilobits(two_rate_trace(), 0.0, 10.0) == 50000.0


def test_transferred_across_segment_boundary():
    # 2 s at 5000 plus 2 s at 1000
    assert transferred_kilobits(two_rate_trace(), 8.0, 12.0) == 12000.0


def test_transferred_zero_length_interval():
    assert transferred_kilobits(two_rate_trace(), 3.0, 3.0) == 0.0


def test_transferred_rejects_bad_interval():
    with pytest.raises(ValueError):
        transferred_kilobits(two_rate_trace(), 5.0, 4.0)
    with pytest.raises(ValueError):
        transferred_kilobits(two_rate_trace(), -1.0, 4.0)


def test_transferred_additive():
    rng = random.Random(1)
    for _ in range(50):
        trace = random_trace(rng)
        span = trace.duration_s * 1.5
        a, b, c = sorted(rng.uniform(0.0, span) for _ in range(3))
        left = transferred_kilobits(trace, a, b)
        right = transferred_kilobits(trace, b, c)
        whole = transferred_kilobits(trace, a, c)
        assert left + right == pytest.approx(whole, rel=1e-12, abs=1e-9)


def test_transferred_monotone_in_end():
    rng = random.Random(2)
    trace = random_trace(rng)
    points = sorted(rng.uniform(0.0, trace.duration_s * 2) for _ in range(20))
    values = [transferred_kilobits(trace, 0.0, p) for p in points]
    assert all(x <= y for x, y in zip(values, values[1:]))


def test_loop_periodicity():
    trace = BandwidthTrace(((0.0, 3000.0), (4.0, 1000.0), (10.0, 0.0)))
    per_period = transferred_kilobits(trace, 0.0, 10.0, loop=True)
    assert per_period == 3000.0 * 4 + 1000.0 * 6
    for n in (2, 3, 7):
        assert transferred_kilobits(trace, 0.0, n * 10.0, loop=True) == n * per_period


# --- download finish ---

def test_finish_constant_rate():
    assert download_finish_time(constant_trace(1000.0), 0.0, 4000.0) == 4.0


def test_finish_piecewise_hand_value():
    # 4000 kilobits by t=2, remaining 1000 at 500 kbps -> t=4
    trace = BandwidthTrace(((0.0, 2000.0), (2.0, 500.0)))
    assert download_finish_time(trace, 0.0, 5000.0) == 4.0


def test_finish_uses_tail_rate_past_end():
    assert download_finish_time(two_rate_trace(), 0.0, 55000.0) == 15.0


def test_finish_raises_when_exhausted():
    trace = BandwidthTrace(((0.0, 5000.0), (10.0, 0.0)))
    with pytest.raises(TraceExhaustedError, match="10000"):
        download_finish_time(trace, 0.0, 60000.0)


def test_finish_skips_zero_rate_hole():
    trace = BandwidthTrace(((0.0, 1000.0), (2.0, 0.0), (5.0, 1000.0)))
    # 2000 delivered by t=2, nothing until 5, rest at 1000
    assert download_finish_time(trace, 0.0, 3000.0) == 6.0


def test_finish_validates_inputs():
    with pytest.raises(ValueError, match="volume"):
        download_finish_time(constant_trace(1000.0), 0.0, 0.0)
    with pytest.raises(ValueError, match="start"):
        download_finish_time(constant_trace(1000.0), -1.0, 100.0)


def test_finish_loops_across_periods():
    trace = BandwidthTrace(((0.0, 1000.0), (10.0, 0.0)))
    assert download_finish_time(trace, 0.0, 25000.0, loop=True) == 25.0
    # Landing exactly on a period multiple finishes at the wrap instant.
    assert download_finish_time(trace, 0.0, 20000.0, loop=True) == 20.0


def test_finish_loop_with_idle_gap():
    # 1000 kbps for 4 s then silence until the 10 s wrap.
    trace = BandwidthTrace(((0.0, 1000.0), (4.0, 0.0), (10.0, 0.0)))
    assert download_finish_time(trace, 0.0, 4000.0, loop=True) == 4.0
    assert download_finish_time(trace, 0.0, 5000.0, loop=True) == 11.0
    assert download_finish_time(trace, 5.0, 1000.0, loop=True) == 11.0


@pytest.mark.parametrize("samples, start_s, volume, message", [
    (((0.0, 1e-320), (10.0, 1e-320)), 0.0, 940.0,
     "looping trace cannot deliver 940.0 kilobits from 0.0s: its 10.0s period carries 1e-319 kilobits"),
    (((0.0, 1000.0), (5e-324, 1000.0)), 1.0, 1.0,
     "looping trace cannot deliver 1.0 kilobits from 1.0s: its 5e-324s period carries 4.94e-321 kilobits"),
], ids=["volume-over-a-subnormal-period-volume", "start-over-a-subnormal-period"])
def test_finish_raises_exhausted_when_the_loop_count_overflows(samples, start_s, volume, message):
    with pytest.raises(TraceExhaustedError, match=re.escape(message)):
        download_finish_time(BandwidthTrace(samples), start_s, volume, loop=True)


@pytest.mark.parametrize("samples, loop, start_s, volume, message", [
    (((0.0, 3000.0), (10.0, 1e-310)), False, 5.0, 20000.0,
     "trace cannot deliver 20000.0 kilobits from 5.0s: at its 1e-310 kbps tail rate the finish time overflows"),
    (((0.0, 1e-320), (600.0, 1e-320)), False, 0.0, 940.0,
     "trace cannot deliver 940.0 kilobits from 0.0s: at its 1e-320 kbps tail rate the finish time overflows"),
    (((0.0, 1e-310), (1e10, 0.0)), True, 0.0, 940.0,
     "looping trace cannot deliver 940.0 kilobits from 0.0s: its 10000000000.0s period carries "
     "9.999999999999969e-301 kilobits, and the finish time overflows"),
], ids=["subnormal-tail", "subnormal-throughout", "subnormal-rate-over-a-long-period"])
def test_finish_raises_exhausted_when_the_finish_time_overflows(samples, loop, start_s, volume, message):
    with pytest.raises(TraceExhaustedError, match=f"^{re.escape(message)}$"):
        download_finish_time(BandwidthTrace(samples), start_s, volume, loop)


@pytest.mark.parametrize("samples, loop", [
    (((0.0, 1e18), (600.0, 1e18)), False),
    (((0.0, 1e18), (1.0, 1e18)), False),
    (((0.0, 1e18), (600.0, 1e18)), True),
], ids=["inside-the-trace", "at-the-tail-rate", "looping"])
def test_finish_raises_exhausted_when_the_download_is_shorter_than_the_clock_step(samples, loop):
    # 23,200 kilobits at 1e18 kbps take 2.3e-14 s, under half the spacing of floats near 296.
    message = ("trace delivers 23200.0 kilobits from 296.0s at its 1e+18 kbps rate there "
               "in less than the clock's rounding step")
    with pytest.raises(TraceExhaustedError, match=f"^{re.escape(message)}$"):
        download_finish_time(BandwidthTrace(samples), 296.0, 23200.0, loop)


def test_finish_is_left_inverse_of_transferred():
    rng = random.Random(3)
    for _ in range(200):
        loop = rng.random() < 0.5
        trace = random_trace(rng, rate_range=(50.0, 5000.0))
        start = rng.uniform(0.0, trace.duration_s)
        volume = rng.uniform(10.0, 40000.0)
        try:
            finish = download_finish_time(trace, start, volume, loop)
        except TraceExhaustedError:
            assert not loop
            continue
        got = transferred_kilobits(trace, start, finish, loop)
        assert got >= volume - 1e-6
        if finish > start + 1e-6:
            assert transferred_kilobits(trace, start, finish - 1e-6, loop) < volume


# --- file format ---

def test_load_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\n10,1000\n")
    trace = load_trace(str(path))
    assert trace.samples == ((0.0, 5000.0), (10.0, 1000.0))


def test_load_tolerates_header_comments_blanks(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# capture notes\ntimestamp_s,bandwidth_kbps\n\n0,5000\n# mid comment\n10,1000\n")
    trace = load_trace(str(path))
    assert trace.samples == ((0.0, 5000.0), (10.0, 1000.0))


def test_load_rejects_unsorted(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\n10,1000\n5,2000\n")
    with pytest.raises(ValueError, match="does not increase"):
        load_trace(str(path))


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no samples"):
        load_trace(str(path))


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\n10\n")
    with pytest.raises(ValueError, match="t.csv:2"):
        load_trace(str(path))


def test_load_rejects_non_numeric_mid_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\nten,1000\n")
    with pytest.raises(ValueError, match="t.csv:2"):
        load_trace(str(path))


def test_load_rejects_an_infinite_sample(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\n10,inf\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: sample 2 bandwidth must be a finite number, got inf")):
        load_trace(str(path))


def test_load_missing_file():
    with pytest.raises(ValueError, match="cannot read"):
        load_trace("/nonexistent/t.csv")


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"timestamp_s,bandwidth_kbps\n0,\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"):
        load_trace(str(path))


def test_save_load_roundtrip_exact(tmp_path):
    rng = random.Random(4)
    for k in range(10):
        trace = random_trace(rng)
        path = tmp_path / f"t{k}.csv"
        save_trace(trace, str(path))
        assert load_trace(str(path)).samples == trace.samples


def test_failed_save_keeps_the_old_trace(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    save_trace(two_rate_trace(), str(path))
    before = path.read_bytes()

    def fail_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("abrsim.manifest.os.replace", fail_replace)
    with pytest.raises(OSError, match="No space left"):
        save_trace(constant_trace(3000.0), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


# --- synthesis ---

def test_synth_deterministic_and_valid():
    a = synthesize_oscillating_trace(seed=5)
    b = synthesize_oscillating_trace(seed=5)
    assert a.samples == b.samples
    assert a.samples[0][0] == 0.0
    times = [t for t, _ in a.samples]
    assert all(x < y for x, y in zip(times, times[1:]))
    assert a.duration_s == 300.0


def test_synth_rates_stay_in_bands():
    trace = synthesize_oscillating_trace(seed=6)
    (low_lo, low_hi), (high_lo, high_hi) = SYNTH_LOW_KBPS, SYNTH_HIGH_KBPS
    for _, bw in trace.samples:
        assert low_lo <= bw <= low_hi or high_lo <= bw <= high_hi


def test_synth_alternates_bands():
    trace = synthesize_oscillating_trace(seed=7)
    kinds = ["low" if bw <= SYNTH_LOW_KBPS[1] else "high" for _, bw in trace.samples[:-1]]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_bundled_scenario_is_what_its_generators_give(tmp_path):
    # scripts/make_comparison_scenario.py builds scenarios/comparison/ with these arguments.
    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "comparison"
    for seed in range(24):
        save_trace(synthesize_oscillating_trace(seed, 600.0), str(tmp_path / "trace.csv"))
        committed = root / "traces" / f"trace_{seed:02d}.csv"
        assert (tmp_path / "trace.csv").read_bytes() == committed.read_bytes(), committed
    manifest = synthesize_manifest(BitrateLadder(NETFLIX_LADDER_KBPS), 150, 4.0,
                                   SaturationProfile(jitter_seed=42))
    save_manifest(manifest, str(tmp_path / "manifest.json"))
    assert (tmp_path / "manifest.json").read_bytes() == (root / "manifest.json").read_bytes()


def test_synth_rejects_bad_duration():
    with pytest.raises(ValueError):
        synthesize_oscillating_trace(seed=1, duration_s=0.0)
