import random

import pytest

from abrsim import POLICIES, decide, make_policy
from abrsim.abr import Bba, Decision, Festive, Osmf, Sba
from helpers import make_manifest, make_observation


def dyadic_rows(chunks: int, levels: int, base: int = 768, step: int = 20):
    # Values on the 1/1024 grid keep SSIM differences exact in floats.
    row = tuple((base + step * j) / 1024 for j in range(levels))
    return tuple(row for _ in range(chunks))


def dyadic_manifest(chunks: int = 5):
    return make_manifest(chunks=chunks, ssim=dyadic_rows(chunks, 10))


# --- sba ---


def test_sba_startup():
    obs = make_observation(dyadic_manifest(), chunk=1, buffer_s=0.0)
    assert decide(Sba(), obs) == Decision(1, "startup")


def test_sba_critical_drop_inclusive():
    manifest = dyadic_manifest()
    assert decide(Sba(), make_observation(manifest, buffer_s=10.0, prev_level=8)) == Decision(
        1, "critical_drop"
    )
    # The threshold itself still counts as critical.
    assert decide(Sba(), make_observation(manifest, buffer_s=12.0, prev_level=8)) == Decision(
        1, "critical_drop"
    )


def test_sba_upgrade_when_gain_beats_drift():
    # Estimate 2500 -> candidate level 7 (2350, strictly under).
    obs = make_observation(
        dyadic_manifest(), chunk=3, prev_level=4, estimate=2500.0, drift=59 / 1024
    )
    assert decide(Sba(), obs) == Decision(7, "upgrade")


def test_sba_holds_when_gain_equals_drift():
    # Gain from level 4 to 7 is exactly 60/1024; the comparison is strict.
    obs = make_observation(
        dyadic_manifest(), chunk=3, prev_level=4, estimate=2500.0, drift=60 / 1024
    )
    assert decide(Sba(), obs) == Decision(4, "hold")


def test_sba_holds_when_gain_small():
    obs = make_observation(
        dyadic_manifest(), chunk=3, prev_level=7, estimate=2500.0, drift=0.01
    )
    assert decide(Sba(), obs) == Decision(7, "hold")


def test_sba_candidate_clamps_to_floor():
    # Estimate under the whole ladder: candidate is level 1.
    manifest = dyadic_manifest()
    taken = decide(
        Sba(), make_observation(manifest, prev_level=5, estimate=200.0, drift=-90 / 1024)
    )
    assert taken == Decision(1, "upgrade")
    held = decide(Sba(), make_observation(manifest, prev_level=5, estimate=200.0, drift=0.0))
    assert held == Decision(5, "hold")


def test_sba_takes_literal_downgrade():
    # Candidate below prev still wins when the SSIM change beats the drift.
    obs = make_observation(
        dyadic_manifest(), chunk=4, prev_level=9, estimate=2500.0, drift=-50 / 1024
    )
    assert decide(Sba(), obs) == Decision(7, "upgrade")


def test_sba_upgrade_only_blocks_downgrade():
    obs = make_observation(
        dyadic_manifest(), chunk=4, prev_level=9, estimate=2500.0, drift=-50 / 1024
    )
    assert decide(Sba(upgrade_only=True), obs) == Decision(9, "hold")
    up = make_observation(
        dyadic_manifest(), chunk=4, prev_level=4, estimate=2500.0, drift=0.0
    )
    assert decide(Sba(upgrade_only=True), up) == Decision(7, "upgrade")


def test_sba_invariant_under_constant_ssim_shift():
    # Decisions compare SSIM differences, so shifting every value by a
    # constant (on the dyadic grid, exactly) must not change them.
    rng = random.Random(5)
    plain = make_manifest(chunks=6, ssim=dyadic_rows(6, 10, base=700))
    shifted = make_manifest(chunks=6, ssim=dyadic_rows(6, 10, base=700 + 64))
    for _ in range(300):
        kwargs = dict(
            chunk=rng.randint(2, 6),
            buffer_s=rng.uniform(0.0, 120.0),
            prev_level=rng.randint(1, 10),
            estimate=rng.uniform(100.0, 7000.0),
            drift=rng.randrange(-50, 51) / 1024,
        )
        assert decide(Sba(), make_observation(plain, **kwargs)) == decide(
            Sba(), make_observation(shifted, **kwargs)
        )


# --- bba ---


def test_bba_startup():
    assert decide(Bba(), make_observation(make_manifest(), chunk=1, buffer_s=0.0)) == Decision(
        1, "startup"
    )


def test_bba_reservoir_and_cushion():
    manifest = make_manifest()
    assert decide(Bba(), make_observation(manifest, buffer_s=5.0)) == Decision(1, "bba_reservoir")
    assert decide(Bba(), make_observation(manifest, buffer_s=12.0)) == Decision(1, "bba_reservoir")
    assert decide(Bba(), make_observation(manifest, buffer_s=108.0)) == Decision(10, "bba_cushion")
    assert decide(Bba(), make_observation(manifest, buffer_s=120.0)) == Decision(10, "bba_cushion")


def test_bba_midpoint_maps_to_level_eight():
    # b=60 on a 120 s buffer: 235 + 5565 * 48/96 = 3017.5 -> level 8 (3000).
    obs = make_observation(make_manifest(), buffer_s=60.0, prev_level=3)
    assert decide(Bba(), obs) == Decision(8, "bba_interpolated")


def test_bba_just_above_reservoir_stays_on_floor():
    obs = make_observation(make_manifest(), buffer_s=12.5)
    assert decide(Bba(), obs) == Decision(1, "bba_interpolated")


def test_bba_monotone_in_buffer():
    manifest = make_manifest()
    prev = 0
    for i in range(0, 241):
        level = decide(Bba(), make_observation(manifest, buffer_s=i * 0.5)).level
        assert level >= prev
        prev = level
    assert prev == 10


def test_bba_custom_fractions():
    policy = Bba(reservoir_frac=0.2, cushion_frac=0.5)
    manifest = make_manifest()
    assert decide(policy, make_observation(manifest, buffer_s=20.0)).reason == "bba_reservoir"
    assert decide(policy, make_observation(manifest, buffer_s=60.0)).reason == "bba_cushion"


def test_bba_state_validation():
    with pytest.raises(ValueError, match="reservoir_frac"):
        Bba(reservoir_frac=0.5, cushion_frac=0.4)
    with pytest.raises(ValueError, match="reservoir_frac"):
        Bba(reservoir_frac=0.0)


# --- festive ---


def test_festive_startup_without_history():
    manifest = make_manifest()
    assert decide(Festive(), make_observation(manifest, chunk=1, buffer_s=0.0)) == Decision(
        1, "startup"
    )


def fed_festive(samples, window=5):
    policy = Festive(window=window)
    for s in samples:
        policy.observe(s, 1.0)
    return policy


def test_festive_steps_one_rung_toward_target():
    manifest = make_manifest()
    # Five 1000 kbps samples: harmonic mean ~1000 -> target level 4 (750).
    policy = fed_festive([1000.0] * 5)
    assert decide(policy, make_observation(manifest, prev_level=3)) == Decision(
        4, "festive_up"
    )
    assert decide(policy, make_observation(manifest, prev_level=6)) == Decision(
        5, "festive_down"
    )
    assert decide(policy, make_observation(manifest, prev_level=4)) == Decision(
        4, "festive_hold"
    )


def test_festive_far_target_still_one_rung():
    # Target level 7 (2350 under 2500) from prev 3 moves to 4 only.
    policy = fed_festive([2500.0] * 3)
    obs = make_observation(make_manifest(), prev_level=3)
    assert decide(policy, obs) == Decision(4, "festive_up")


def test_festive_harmonic_mean_mixture():
    # HM(1000, 2000) = 1333.33 -> target level 5 (1050).
    policy = fed_festive([1000.0, 2000.0])
    obs = make_observation(make_manifest(), prev_level=5)
    assert decide(policy, obs) == Decision(5, "festive_hold")


def test_festive_window_evicts_old_samples():
    policy = fed_festive([100.0] + [5000.0] * 5)
    obs = make_observation(make_manifest(), prev_level=9)
    assert decide(policy, obs) == Decision(9, "festive_hold")


def test_festive_target_clamps_to_floor():
    policy = fed_festive([50.0] * 5)
    obs = make_observation(make_manifest(), prev_level=2)
    assert decide(policy, obs) == Decision(1, "festive_down")


def test_festive_ignores_buffer():
    policy = fed_festive([1000.0] * 5)
    manifest = make_manifest()
    low = decide(policy, make_observation(manifest, buffer_s=1.0, prev_level=3))
    high = decide(policy, make_observation(manifest, buffer_s=119.0, prev_level=3))
    assert low == high


def test_festive_window_validation():
    with pytest.raises(ValueError, match="window"):
        Festive(window=0)


# --- osmf ---


def test_osmf_startup_without_last_download():
    manifest = make_manifest()
    assert decide(Osmf(), make_observation(manifest, chunk=1, buffer_s=0.0)) == Decision(
        1, "startup"
    )


def fed_osmf(last_s, **kwargs):
    policy = Osmf(**kwargs)
    policy.observe(1000.0, last_s)
    return policy


def test_osmf_fast_download_steps_up():
    # 4 s chunk fetched in 2 s: ratio 2.0 > 1.9.
    obs = make_observation(make_manifest(), prev_level=3)
    assert decide(fed_osmf(2.0), obs) == Decision(4, "osmf_up")


def test_osmf_up_capped_at_ladder_top():
    obs = make_observation(make_manifest(), prev_level=10)
    assert decide(fed_osmf(1.0), obs) == Decision(10, "osmf_up")


def test_osmf_slow_download_reselects_under_implied_rate():
    # ratio = 4/4.5 = 0.889; implied = 1050 * 0.889 = 933.3 -> level 4 (750).
    obs = make_observation(make_manifest(), prev_level=5)
    assert decide(fed_osmf(4.5), obs) == Decision(4, "osmf_down")


def test_osmf_down_clamps_to_floor():
    obs = make_observation(make_manifest(), prev_level=1)
    assert decide(fed_osmf(40.0), obs) == Decision(1, "osmf_down")


def test_osmf_holds_in_dead_band():
    obs = make_observation(make_manifest(), prev_level=6)
    assert decide(fed_osmf(4.0), obs) == Decision(6, "osmf_hold")
    assert decide(fed_osmf(3.0), obs) == Decision(6, "osmf_hold")


def test_osmf_custom_ratios():
    obs = make_observation(make_manifest(), prev_level=6)
    assert decide(fed_osmf(3.5, up_ratio=1.1), obs) == Decision(7, "osmf_up")
    with pytest.raises(ValueError, match="down_ratio"):
        Osmf(up_ratio=0.5, down_ratio=0.9)


# --- registry and dispatch ---


def test_all_policies_start_on_floor():
    manifest = make_manifest()
    obs = make_observation(manifest, chunk=1, buffer_s=0.0)
    for name in POLICIES:
        assert decide(make_policy(name), obs) == Decision(1, "startup")


def test_decide_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown policy 'rate_hog'"):
        make_policy("rate_hog")
    with pytest.raises(ValueError, match="sba, bba, festive, osmf"):
        make_policy(["sba"])


def test_make_policy_rejects_bad_params():
    with pytest.raises(ValueError, match="bad parameters"):
        make_policy("bba", {"bogus": 1})
    policy = make_policy("festive", {"window": 2})
    policy.observe(100.0, 1.0)
    policy.observe(900.0, 1.0)
    policy.observe(900.0, 1.0)
    assert list(policy.samples_kbps) == [900.0, 900.0]


def test_decisions_are_repeatable():
    obs = make_observation(dyadic_manifest(), prev_level=4, estimate=2500.0)
    policy = Sba()
    first = decide(policy, obs)
    assert all(decide(policy, obs) == first for _ in range(5))
