"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Every expected value here is either recomputed by an independent oracle
(straight-line reimplementation, brute-force pass, fixed-timestep
integrator, exact rational arithmetic) or is a structural invariant of the
system under test; nothing is copied from implementation output.
"""

import bisect
import copy
import glob
import hashlib
import json
import os
import pathlib
import random
import time
from fractions import Fraction

import pytest

from abrsim import (
    POLICIES,
    SessionConfig,
    decide,
    load_manifest,
    load_runspec,
    replay_diff,
    run_batch,
    run_session,
    session_metrics,
)
from abrsim.abr import Observation, Sba
from abrsim.simulator import SessionEventLog, open_log
from abrsim.trace import BandwidthTrace, download_finish_time
from helpers import (
    RunningMean,
    chunk_volume,
    constant_trace,
    events,
    make_manifest,
    monotone_rows,
    random_trace,
    replay_pool,
    transferred_kilobits,
)

SCENARIO_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios", "comparison")
)


def conclude(label, failures, elapsed_s=None, budget_s=None):
    ok = not failures and (budget_s is None or elapsed_s < budget_s)
    timing = f" [{elapsed_s:.2f}s < {budget_s:g}s]" if budget_s is not None else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{timing}")
    assert not failures, failures[:5]
    if budget_s is not None:
        assert elapsed_s < budget_s


def random_rows(rng, chunks, levels):
    return tuple(
        tuple(rng.uniform(0.05, 1.0) for _ in range(levels)) for _ in range(chunks)
    )


# --- 1. bandwidth / quality estimator oracles ---


def test_estimator_oracles_over_randomized_logs():
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures = []
    rel = Fraction(1, 10**9)

    for trial in range(1000):
        chunks = rng.randint(2, 24)
        integral = trial % 2 == 0
        levels = [1] + [rng.randint(1, 10) for _ in range(chunks - 1)]
        downloads = []
        t = 0.0
        for _ in range(chunks):
            if integral:
                dur, vol = float(rng.randint(1, 8)), float(rng.randint(100, 60000))
            else:
                dur, vol = rng.uniform(0.05, 9.0), rng.uniform(50.0, 60000.0)
            downloads.append((t, t + dur, vol))
            t += dur + rng.uniform(0.0, 2.0)
        manifest = make_manifest(chunks=chunks, ssim=random_rows(rng, chunks, 10))

        samples = [v / (f - s) for s, f, v in downloads]
        deltas = [
            manifest.ssim[c - 1][levels[c - 1] - 1] - manifest.ssim[c - 2][levels[c - 2] - 1]
            for c in range(2, chunks + 1)
        ]

        # After each value, the running mean equals a left-to-right fold and
        # stays within rational rounding of the exact mean; with no value yet
        # it returns the caller's fallback (the floor rate, or 0 drift).
        for label, values, empty in (("estimate", samples, 235.0), ("drift", deltas, 0.0)):
            running = RunningMean()
            if running.mean(empty) != empty:
                failures.append(f"trial {trial}: {label} before data {running.mean(empty)}")
            acc, exact = 0.0, Fraction(0)
            for k, value in enumerate(values, start=1):
                running.add(value)
                acc += value
                exact += Fraction(value)
                got = running.mean(empty)
                if got != acc / k:
                    failures.append(f"trial {trial}: {label} after {k} values: {got}")
                bound = abs(exact / k) * rel if exact else rel
                if abs(Fraction(got) - exact / k) > bound:
                    failures.append(f"trial {trial}: {label} after {k} values leaves rational bound")
        if failures:
            break

    # The same recomputation must hold against real session logs.
    manifest = make_manifest(chunks=30, ssim=monotone_rows(30, 10))
    floor = manifest.ladder.levels_kbps[0]
    for i in range(20):
        trace = random_trace(rng, segments=rng.randint(2, 6), rate_range=(300.0, 7000.0))
        policy = list(POLICIES)[i % len(POLICIES)]
        log, _ = run_session(manifest, trace, SessionConfig(policy=policy, loop_trace=True))
        dones = {r["chunk"]: r for r in events(log, "download_complete")}
        samples, deltas, level_of, sent_at = [], [], {}, {}
        for fetch in events(log, "fetch_issued"):
            chunk = fetch["chunk"]
            want = 235.0 if not samples else None
            if samples:
                acc = 0.0
                for s in samples:
                    acc += s
                want = acc / len(samples)
            if fetch["bandwidth_estimate_kbps"] != (want if samples else floor):
                failures.append(f"log {i}: estimate at chunk {chunk}")
            dacc = 0.0
            for d in deltas[: max(chunk - 2, 0)]:
                dacc += d
            want_drift = dacc / len(deltas[: max(chunk - 2, 0)]) if deltas[: max(chunk - 2, 0)] else 0.0
            if fetch["ssim_delta_mean"] != want_drift:
                failures.append(f"log {i}: drift at chunk {chunk}")
            if chunk >= 2:
                deltas.append(
                    manifest.ssim[chunk - 1][fetch["level"] - 1]
                    - manifest.ssim[chunk - 2][level_of[chunk - 1] - 1]
                )
            level_of[chunk] = fetch["level"]
            sent_at[chunk] = fetch["time_s"]
            if chunk in dones:
                done = dones[chunk]
                vol = chunk_volume(manifest, chunk, fetch["level"])
                cbw = vol / (done["time_s"] - fetch["time_s"])
                if done["throughput_kbps"] != cbw:
                    failures.append(f"log {i}: throughput at chunk {chunk}")
                samples.append(cbw)

    conclude(
        "estimator outputs match brute-force and rational recomputation on 1000 "
        "randomized logs", failures, time.perf_counter() - t0, 10.0,
    )


# --- 2. quality-gated decision oracle ---


def oracle_decision(obs):
    """Straight-line restatement of the quality-gated rule."""
    if obs.chunk == 1:
        return 1, "startup"
    if obs.buffer_s <= obs.critical_threshold_s:
        return 1, "critical_drop"
    candidate = None
    for idx, rate in enumerate(obs.manifest.ladder.levels_kbps, start=1):
        if rate < obs.bandwidth_estimate_kbps:
            candidate = idx
    if candidate is None:
        candidate = 1
    gain = obs.manifest.ssim[obs.chunk - 1][candidate - 1] - obs.manifest.ssim[obs.chunk - 2][obs.prev_level - 1]
    if gain > obs.ssim_delta_mean:
        return candidate, "upgrade"
    return obs.prev_level, "hold"


def test_decision_oracle_over_random_observations():
    t0 = time.perf_counter()
    rng = random.Random(202)
    failures = []
    clamps = literal_downgrades = 0

    for trial in range(10000):
        level_count = rng.randint(2, 12)
        rate = rng.uniform(50.0, 400.0)
        rates = []
        for _ in range(level_count):
            rates.append(round(rate, 3))
            rate *= rng.uniform(1.05, 2.2)
        chunks = rng.randint(2, 4)
        manifest = make_manifest(
            chunks=chunks, rates=rates, ssim=random_rows(rng, chunks, level_count)
        )
        chunk = 1 if trial % 25 == 0 else rng.randint(2, chunks)
        capacity = rng.uniform(40.0, 240.0)
        critical = rng.uniform(1.0, capacity - 1.0)
        if trial % 10 == 0:
            estimate = rates[0] * rng.uniform(0.2, 0.999)
        elif trial % 10 == 1:
            estimate = rng.choice(rates)
        else:
            estimate = rng.uniform(40.0, rates[-1] * 1.3)
        obs = Observation(
            chunk=chunk,
            buffer_s=rng.uniform(0.0, capacity),
            buffer_capacity_s=capacity,
            critical_threshold_s=critical,
            prev_level=rng.randint(1, level_count) if chunk > 1 else None,
            bandwidth_estimate_kbps=estimate,
            ssim_delta_mean=rng.uniform(-0.4, 0.4),
            manifest=manifest,
        )
        want_level, want_reason = oracle_decision(obs)
        got = decide(Sba(), obs)
        if (got.level, got.reason) != (want_level, want_reason):
            failures.append(
                f"trial {trial}: got {(got.level, got.reason)} want {(want_level, want_reason)}"
            )
            if len(failures) > 5:
                break
        if want_reason == "upgrade":
            if estimate <= rates[0]:
                clamps += 1
            if want_level < obs.prev_level:
                literal_downgrades += 1

    if clamps == 0:
        failures.append("no floor-clamp case was generated")
    if literal_downgrades == 0:
        failures.append("no literal-downgrade case was generated")
    conclude(
        f"decision oracle agrees on 10000 random observations "
        f"({clamps} clamps, {literal_downgrades} literal downgrades)",
        failures, time.perf_counter() - t0, 5.0,
    )


# --- 3. critical-zone floor ---


def test_critical_zone_fetches_stay_on_floor():
    rng = random.Random(303)
    manifest = make_manifest(chunks=40, ssim=monotone_rows(40, 10))
    failures = []
    critical_fetches = 0
    for i in range(50):
        trace = random_trace(rng, segments=rng.randint(3, 8), rate_range=(200.0, 6000.0))
        log, report = run_session(
            manifest, trace,
            SessionConfig(policy="sba", buffer_capacity_s=120.0,
                          critical_threshold_s=12.0, loop_trace=True),
        )
        if report.partial:
            failures.append(f"trace {i}: session did not complete")
        for fetch in events(log, "fetch_issued"):
            if fetch["buffer_s"] <= 12.0:
                if fetch["chunk"] > 1:
                    critical_fetches += 1
                if fetch["level"] != 1:
                    failures.append(
                        f"trace {i}: chunk {fetch['chunk']} fetched level "
                        f"{fetch['level']} at buffer {fetch['buffer_s']:.3f}"
                    )
    if critical_fetches < 10:
        failures.append(f"suite exercised only {critical_fetches} critical fetches")
    conclude(
        f"every buffer<=12s fetch used level 1 across 50 random traces "
        f"({critical_fetches} critical fetches)", failures,
    )


# --- 4. zero rebuffering on steady links ---


def test_zero_rebuffering_on_steady_links():
    rng = random.Random(404)
    manifest = make_manifest(chunks=60, ssim=monotone_rows(60, 10))
    floor_rate = manifest.ladder.levels_kbps[0]
    failures = []
    rates = [1.5 * floor_rate] + [rng.uniform(1.5 * floor_rate, 8000.0) for _ in range(19)]
    for kbps in rates:
        for policy in ("sba", "bba"):
            log, report = run_session(
                manifest, constant_trace(kbps), SessionConfig(policy=policy)
            )
            if report.partial:
                failures.append(f"{policy} at {kbps:.1f}: partial session")
            if report.rebuffering_total_s != 0.0:
                failures.append(
                    f"{policy} at {kbps:.1f}: rebuffering {report.rebuffering_total_s!r}"
                )
            if events(log, "playback_stall"):
                failures.append(f"{policy} at {kbps:.1f}: stall event logged")
    conclude(
        "rebuffering is exactly 0.0 for sba and bba on 20 constant traces "
        ">= 1.5x the floor rate", failures,
    )


# --- 5. bundled scenario ordering ---


@pytest.fixture(scope="module")
def bundled_batch(tmp_path_factory):
    """The bundled 192-session batch, run once for every test that reads it; and its seconds."""
    spec = load_runspec(os.path.join(SCENARIO_DIR, "runspec.json"))
    spec.output_dir = str(tmp_path_factory.mktemp("bundled") / "out")
    t0 = time.perf_counter()
    result = run_batch(spec)
    return result, time.perf_counter() - t0


def test_bundled_scenario_policy_ordering(bundled_batch):
    result, elapsed_s = bundled_batch
    failures = []
    if result.failures:
        failures.append(f"batch reported {len(result.failures)} failures")
    by_key = {(a.policy, a.buffer_capacity_s): a for a in result.aggregates}
    for bs in (120.0, 240.0):
        sba = by_key[("sba", bs)]
        festive = by_key[("festive", bs)]
        osmf = by_key[("osmf", bs)]
        if sba.rebuffering_total_s != 0.0:
            failures.append(f"BS={bs:g}: sba rebuffering {sba.rebuffering_total_s!r}")
        if not sba.instability < osmf.instability:
            failures.append(
                f"BS={bs:g}: sba instability {sba.instability} !< osmf {osmf.instability}"
            )
        if not sba.mean_ssim >= festive.mean_ssim:
            failures.append(
                f"BS={bs:g}: sba ssim {sba.mean_ssim} < festive {festive.mean_ssim}"
            )
        if not sba.mean_ssim >= osmf.mean_ssim:
            failures.append(f"BS={bs:g}: sba ssim {sba.mean_ssim} < osmf {osmf.mean_ssim}")
    conclude(
        "bundled 24-trace scenario orders the policies as shipped "
        "(sba: no rebuffering, fewer switches than osmf, ssim >= festive and osmf)",
        failures, elapsed_s, 60.0,
    )


# --- 6. conservation and batch determinism ---


def test_time_conservation_and_batch_determinism(tmp_path, bundled_batch):
    manifest = load_manifest(os.path.join(SCENARIO_DIR, "manifest.json"))
    spec = load_runspec(os.path.join(SCENARIO_DIR, "runspec.json"))
    spec.output_dir = str(tmp_path / "two")
    assert not bundled_batch[0].failures and not run_batch(spec).failures
    outs = [pathlib.Path(bundled_batch[0].output_dir), tmp_path / "two"]
    failures = []

    content_s = manifest.chunk_count * manifest.chunk_duration_s
    log_paths = sorted(glob.glob(str(outs[0] / "sessions" / "*.jsonl")))
    if len(log_paths) != 192:
        failures.append(f"expected 192 session logs, found {len(log_paths)}")
    for path in log_paths:
        log = SessionEventLog.read(path)
        if replay_diff(log, manifest, open_log(log, manifest)):
            failures.append(f"{os.path.basename(path)}: does not replay")
        report = session_metrics(log, manifest)
        if report.partial:
            failures.append(f"{os.path.basename(path)}: partial")
            continue
        drift = abs(
            report.wall_clock_s
            - (report.startup_delay_s + content_s + report.rebuffering_total_s)
        )
        if drift > 1e-6:
            failures.append(f"{os.path.basename(path)}: conservation off by {drift:g}s")

    def snapshot(root):
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                full = os.path.join(dirpath, name)
                with open(full, "rb") as fh:
                    files[os.path.relpath(full, root)] = fh.read()
        return files

    first, second = snapshot(outs[0]), snapshot(outs[1])
    if set(first) != set(second):
        failures.append("batch runs produced different file sets")
    else:
        diffs = [rel for rel in first if first[rel] != second[rel]]
        failures.extend(f"{rel}: bytes differ between runs" for rel in diffs[:5])
    conclude(
        "all 192 session logs replay, startup + content + stalls equals wall clock (<=1e-6s) "
        "on each, and the batch is byte-identical across runs", failures,
    )


def test_bundled_logs_match_golden_digests(bundled_batch):
    # perfbench/golden.json pins the bytes of every stable file of the
    # bundled batch: the 192 event logs, both CSVs, the plots and the table.
    with open(os.path.join(SCENARIO_DIR, "..", "..", "perfbench", "golden.json"), "rb") as fh:
        golden = json.load(fh)["files"]
    out = bundled_batch[0].output_dir
    digests = {}
    for pattern in ("sessions/*.jsonl", "plots/*", "sessions.csv", "aggregates.csv", "comparison.txt"):
        for path in glob.glob(os.path.join(out, pattern)):
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    failures = [f"{rel}: missing from the batch" for rel in sorted(set(golden) - set(digests))]
    failures += [f"{rel}: not in perfbench/golden.json" for rel in sorted(set(digests) - set(golden))]
    failures += [f"{rel}: differs from perfbench/golden.json"
                 for rel in sorted(set(golden) & set(digests)) if digests[rel] != golden[rel]]
    conclude(f"all {len(golden)} stable files of the bundled batch match their golden sha256 digests",
             failures)


# --- 7. finish-time integrator oracle ---


def integrator_finish_s(samples, loop, start_s, volume_kilobits):
    """1 ms fixed-timestep integration with millisecond-aligned samples."""
    bounds_ms = [int(round(t * 1000)) for t, _ in samples]
    rates = [r for _, r in samples]
    period_ms = bounds_ms[-1]
    acc = 0.0
    t_ms = int(round(start_s * 1000))
    for _ in range(400000):
        probe = t_ms % period_ms if loop else t_ms
        idx = bisect.bisect_right(bounds_ms, probe) - 1
        if not loop:
            idx = min(idx, len(rates) - 1)
        acc += rates[idx] * 0.001
        t_ms += 1
        if acc >= volume_kilobits:
            return t_ms / 1000.0
    raise AssertionError("integrator exceeded its step budget")


def test_finish_time_matches_fixed_step_integrator():
    rng = random.Random(707)
    failures = []
    worst = 0.0
    trials = 0
    while trials < 500:
        n = rng.randint(2, 7)
        times = [0.0]
        for _ in range(n - 1):
            times.append(round(times[-1] + rng.randint(500, 20000) / 1000.0, 3))
        rates = [
            0.0 if rng.random() < 0.15 else rng.uniform(100.0, 8000.0) for _ in range(n)
        ]
        loop = rng.random() < 0.5
        if loop:
            if all(r == 0.0 for r in rates[:-1]):
                rates[0] = rng.uniform(100.0, 8000.0)
        elif rates[-1] == 0.0:
            rates[-1] = rng.uniform(100.0, 8000.0)
        trace = BandwidthTrace(tuple(zip(times, rates)))
        start = round(rng.uniform(0.0, times[-1] * (2.0 if loop else 1.2)), 3)
        span = rng.uniform(0.8, 5.5)
        volume = transferred_kilobits(trace, start, start + span, loop) * rng.uniform(0.9, 1.0)
        if volume <= 0.5:
            continue
        trials += 1
        analytic = download_finish_time(trace, start, volume, loop)
        stepped = integrator_finish_s(trace.samples, loop, start, volume)
        gap = abs(analytic - stepped)
        worst = max(worst, gap)
        if gap > 2e-3:
            failures.append(
                f"trial {trials}: analytic {analytic:.6f} vs integrator {stepped:.6f}"
            )
            if len(failures) > 5:
                break
    conclude(
        f"finish times agree with a 1ms integrator within 2ms on 500 random "
        f"traces (worst gap {worst * 1000:.3f}ms)", failures,
    )


# --- 8. replay verification and tamper detection ---


def test_replay_verifies_and_detects_tampering():
    entries = replay_pool()
    failures = []
    for idx, (log, manifest) in enumerate(entries):
        if replay_diff(log, manifest, open_log(log, manifest)):
            failures.append(f"log {idx}: clean log failed verification")

    # The header is the replay contract (it configures the re-run) and the
    # truncation diagnostic is carried over verbatim, so tampering targets
    # every field of every event record except those.
    rng = random.Random(909)
    undetected = []
    trials = 0
    while trials < 100:
        log, manifest = entries[rng.randrange(len(entries))]
        tampered = SessionEventLog(copy.deepcopy(log.records))
        candidates = [
            (i, key)
            for i, rec in enumerate(tampered.records)
            if i > 0
            for key in rec
            if key != "diagnostic"
        ]
        i, key = candidates[rng.randrange(len(candidates))]
        rec = tampered.records[i]
        value = rec[key]
        if isinstance(value, bool):
            rec[key] = not value
        elif isinstance(value, int):
            rec[key] = value + 1
        elif isinstance(value, float):
            rec[key] = value + 0.37 * (1.0 + abs(value))
        else:
            rec[key] = str(value) + "_tampered"
        trials += 1
        if not replay_diff(tampered, manifest, open_log(log, manifest)):
            undetected.append(f"trial {trials}: {rec.get('event')}.{key} = {rec[key]!r}")
    failures.extend(undetected)
    conclude(
        f"replay verified {len(entries)} clean logs and flagged all 100 "
        "single-field tampers", failures,
    )
