import random
import re

import pytest

from abrsim import load_trace
from abrsim.trace import (
    BandwidthTrace,
    TraceError,
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
    with pytest.raises(TraceError, match="no samples"):
        BandwidthTrace(())


def test_first_timestamp_must_be_zero():
    with pytest.raises(TraceError, match="timestamp 0"):
        BandwidthTrace(((1.0, 500.0),))


def test_timestamps_strictly_increase():
    with pytest.raises(TraceError, match="does not increase"):
        BandwidthTrace(((0.0, 500.0), (5.0, 600.0), (5.0, 700.0)))


def test_negative_bandwidth_rejected():
    with pytest.raises(TraceError, match="negative bandwidth"):
        BandwidthTrace(((0.0, -1.0),))


def test_loop_needs_two_samples_and_positive_rate():
    with pytest.raises(TraceError, match="at least 2"):
        BandwidthTrace(((0.0, 500.0),), loop=True)
    with pytest.raises(TraceError, match="positive bandwidth"):
        BandwidthTrace(((0.0, 0.0), (10.0, 900.0)), loop=True)


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
    trace = BandwidthTrace(((0.0, 3000.0), (4.0, 1000.0), (10.0, 0.0)), loop=True)
    per_period = transferred_kilobits(trace, 0.0, 10.0)
    assert per_period == 3000.0 * 4 + 1000.0 * 6
    for n in (2, 3, 7):
        assert transferred_kilobits(trace, 0.0, n * 10.0) == n * per_period


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
    trace = BandwidthTrace(((0.0, 1000.0), (10.0, 0.0)), loop=True)
    assert download_finish_time(trace, 0.0, 25000.0) == 25.0
    # Landing exactly on a period multiple finishes at the wrap instant.
    assert download_finish_time(trace, 0.0, 20000.0) == 20.0


def test_finish_loop_with_idle_gap():
    # 1000 kbps for 4 s then silence until the 10 s wrap.
    trace = BandwidthTrace(((0.0, 1000.0), (4.0, 0.0), (10.0, 0.0)), loop=True)
    assert download_finish_time(trace, 0.0, 4000.0) == 4.0
    assert download_finish_time(trace, 0.0, 5000.0) == 11.0
    assert download_finish_time(trace, 5.0, 1000.0) == 11.0


def test_finish_is_left_inverse_of_transferred():
    rng = random.Random(3)
    for _ in range(200):
        loop = rng.random() < 0.5
        trace = random_trace(rng, rate_range=(50.0, 5000.0), loop=loop)
        start = rng.uniform(0.0, trace.duration_s)
        volume = rng.uniform(10.0, 40000.0)
        try:
            finish = download_finish_time(trace, start, volume)
        except TraceExhaustedError:
            assert not loop
            continue
        got = transferred_kilobits(trace, start, finish)
        assert got >= volume - 1e-6
        if finish > start + 1e-6:
            assert transferred_kilobits(trace, start, finish - 1e-6) < volume


# --- file format ---

def test_load_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\n10,1000\n")
    trace = load_trace(str(path))
    assert trace.samples == ((0.0, 5000.0), (10.0, 1000.0))
    assert not trace.loop


def test_load_tolerates_header_comments_blanks(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# capture notes\ntimestamp_s,bandwidth_kbps\n\n0,5000\n# mid comment\n10,1000\n")
    trace = load_trace(str(path))
    assert trace.samples == ((0.0, 5000.0), (10.0, 1000.0))


def test_load_rejects_unsorted(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\n10,1000\n5,2000\n")
    with pytest.raises(TraceError, match="does not increase"):
        load_trace(str(path))


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(TraceError, match="no samples"):
        load_trace(str(path))


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\n10\n")
    with pytest.raises(TraceError, match="t.csv:2"):
        load_trace(str(path))


def test_load_rejects_non_numeric_mid_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,5000\nten,1000\n")
    with pytest.raises(TraceError, match="t.csv:2"):
        load_trace(str(path))


def test_load_missing_file():
    with pytest.raises(TraceError, match="cannot read"):
        load_trace("/nonexistent/t.csv")


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"timestamp_s,bandwidth_kbps\n0,\xff\n")
    with pytest.raises(TraceError, match=f"^{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"):
        load_trace(str(path))


def test_save_load_roundtrip_exact(tmp_path):
    rng = random.Random(4)
    for k in range(10):
        trace = random_trace(rng)
        path = tmp_path / f"t{k}.csv"
        save_trace(trace, str(path))
        assert load_trace(str(path)).samples == trace.samples


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
    trace = synthesize_oscillating_trace(
        seed=6, low_kbps=(1000.0, 1200.0), high_kbps=(4000.0, 4400.0)
    )
    for _, bw in trace.samples:
        assert 1000.0 <= bw <= 1200.0 or 4000.0 <= bw <= 4400.0


def test_synth_alternates_bands():
    trace = synthesize_oscillating_trace(
        seed=7, low_kbps=(1000.0, 1200.0), high_kbps=(4000.0, 4400.0)
    )
    kinds = ["low" if bw <= 1200.0 else "high" for _, bw in trace.samples[:-1]]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_synth_start_band_and_lead_phase():
    trace = synthesize_oscillating_trace(
        seed=8,
        low_kbps=(1000.0, 1200.0),
        high_kbps=(4000.0, 4400.0),
        start_high=True,
        lead_phase_s=(60.0, 90.0),
    )
    assert trace.samples[0][1] >= 4000.0
    assert 60.0 <= trace.samples[1][0] <= 90.0


def test_synth_rejects_bad_duration():
    with pytest.raises(ValueError):
        synthesize_oscillating_trace(seed=1, duration_s=0.0)
