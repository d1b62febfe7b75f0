import random
from fractions import Fraction

import pytest

from abrsim import SessionConfig, replay_diff, run_session
from abrsim.estimators import mean
from abrsim.trace import BandwidthTrace
from helpers import RunningMean, chunk_volume, constant_trace, events, make_manifest, monotone_rows


def running(values) -> RunningMean:
    acc = RunningMean()
    for v in values:
        acc.add(v)
    return acc


def session_events(manifest, trace, **config):
    """fetch_issued and download_complete records of one simulated session."""
    log, _ = run_session(manifest, trace, SessionConfig(**config))
    return log, events(log, "fetch_issued"), events(log, "download_complete")


# --- RunningMean ---


def test_estimate_falls_back_before_first_download():
    assert RunningMean().mean(235.0) == 235.0
    manifest = make_manifest(chunks=3)
    _, fetches, _ = session_events(manifest, constant_trace(3000.0))
    assert fetches[0]["bandwidth_estimate_kbps"] == manifest.ladder.levels_kbps[0]


def test_estimate_mean_of_prior_samples():
    acc = running([2000.0, 3000.0])
    assert (acc.total, acc.count) == (5000.0, 2)
    assert acc.mean(235.0) == 2500.0


def test_estimate_singleton():
    assert running([1000.0]).mean(235.0) == 1000.0


def test_mean_delta_empty_is_zero():
    assert RunningMean().mean() == 0.0
    assert mean([]) == 0.0


def test_mean_delta_hand_value():
    assert running([0.01, -0.005]).mean() == 0.0025
    assert mean(v for v in (0.01, -0.005)) == 0.0025


def test_mean_delta_singleton():
    assert running([0.02]).mean() == 0.02


def test_running_mean_folds_left_to_right():
    # Compensated summation (builtin sum() from Python 3.12) keeps the 1.0
    # and gives 1/3; the left-to-right fold loses it to rounding at 1e16.
    values = [1e16, 1.0, -1e16]
    assert running(values).total == 0.0
    assert running(values).mean() == 0.0
    assert mean(values) == 0.0


def test_means_match_fraction_recompute():
    rng = random.Random(11)
    acc = RunningMean()
    exact = Fraction(0)
    for k in range(1, 41):
        value = rng.uniform(100.0, 50000.0) / rng.uniform(0.1, 9.0)
        acc.add(value)
        exact += Fraction(value)
        assert abs(Fraction(acc.mean()) - exact / k) <= abs(exact / k) * Fraction(1, 10**9)


# --- what the engine feeds its two running means ---


def test_record_download_throughput():
    manifest = make_manifest(chunks=4)
    _, fetches, dones = session_events(manifest, constant_trace(2000.0))
    for fetch, done in zip(fetches, dones):
        volume = chunk_volume(manifest, fetch["chunk"], fetch["level"])
        assert done["throughput_kbps"] == volume / (done["time_s"] - fetch["time_s"])
        assert done["throughput_kbps"] == pytest.approx(2000.0)


def test_record_download_floor_rate_case():
    # 940 kilobits of the 235 kbps floor chunk over a 235 kbps link: 4 s.
    _, _, dones = session_events(make_manifest(chunks=2), constant_trace(235.0))
    assert dones[0]["time_s"] == 4.0
    assert dones[0]["throughput_kbps"] == 235.0


def test_record_download_guards():
    # Replay refuses a completion logged at its own fetch time, and a
    # manifest cannot price a chunk at zero, so no throughput divides by 0.
    manifest = make_manifest(chunks=3)
    config = SessionConfig()
    log, _, _ = session_events(manifest, constant_trace(3000.0))
    done = next(r for r in log.records if r["event"] == "download_complete" and r["chunk"] == 2)
    done["time_s"] = next(
        r["time_s"] for r in log.records if r["event"] == "fetch_issued" and r["chunk"] == 2
    )
    sent, n = done["time_s"], log.records.index(done) + 1
    assert replay_diff(log, manifest, config) == [
        f"log is not replayable: record {n} (download_complete): time_s {sent} precedes its fetch at {sent}"]
    sizes = [[940.0] * 10 for _ in range(3)]
    sizes[1][0] = 0.0
    with pytest.raises(ValueError):
        make_manifest(chunks=3, sizes=sizes)


def test_estimate_uses_only_first_chunk_minus_one_samples():
    # Deciding chunk l sees the throughputs of downloads 1..l-1 and no other.
    trace = BandwidthTrace(((0.0, 900.0), (3.0, 4000.0), (9.0, 1500.0), (20.0, 6000.0)))
    _, fetches, dones = session_events(make_manifest(chunks=8), trace, policy="festive")
    throughputs = [d["throughput_kbps"] for d in dones]
    for fetch in fetches[1:]:
        prior = throughputs[: fetch["chunk"] - 1]
        assert fetch["bandwidth_estimate_kbps"] == running(prior).mean()
    assert [f["chunk"] for f in fetches] == list(range(1, 9))


def test_mean_delta_eligibility_prefix():
    # Deciding chunk l sees the SSIM deltas of the transitions into chunks
    # 2..l-1, each taken between the levels the two chunks were fetched at.
    rng = random.Random(5)
    manifest = make_manifest(chunks=10, ssim=[[rng.uniform(0.6, 1.0) for _ in range(10)]
                                              for _ in range(10)])
    trace = BandwidthTrace(((0.0, 900.0), (3.0, 4000.0), (9.0, 1500.0), (20.0, 6000.0)))
    _, fetches, _ = session_events(manifest, trace, critical_threshold_s=1.0)
    levels = [f["level"] for f in fetches]
    deltas = [manifest.ssim[c - 1][levels[c - 1] - 1] - manifest.ssim[c - 2][levels[c - 2] - 1]
              for c in range(2, len(levels) + 1)]
    for fetch in fetches:
        chunk = fetch["chunk"]
        assert fetch["ssim_delta_mean"] == running(deltas[: max(chunk - 2, 0)]).mean()
    assert fetches[0]["ssim_delta_mean"] == fetches[1]["ssim_delta_mean"] == 0.0


def drift_into_chunk_two(rows, policy="sba"):
    """Drift logged at chunk 3: the one delta of the transition into chunk 2."""
    manifest = make_manifest(chunks=3, rates=(235, 375), ssim=rows)
    _, fetches, _ = session_events(manifest, constant_trace(3000.0), policy=policy,
                                   critical_threshold_s=1.0)
    return fetches[2]["ssim_delta_mean"], [f["level"] for f in fetches]


def test_record_transition_positive_delta():
    drift, levels = drift_into_chunk_two(((0.90, 0.95), (0.90, 0.96), (0.90, 0.96)))
    assert levels[:2] == [1, 2]
    assert drift == pytest.approx(0.06)


def test_record_transition_negative_delta():
    drift, levels = drift_into_chunk_two(((0.97, 0.97), (0.90, 0.90), (0.90, 0.90)))
    assert levels[:2] == [1, 1]
    assert drift == pytest.approx(-0.07)


def test_record_transition_flat_manifest_zero():
    drift, _ = drift_into_chunk_two(monotone_rows(3, 2), policy="bba")
    assert drift == 0.0
