import json
import math
import random
import re

import pytest

from abrsim import load_manifest
from abrsim.manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    ManifestError,
    SaturationProfile,
    manifest_from_dict,
    save_manifest,
    synthesize_manifest,
)
from helpers import make_ladder, make_manifest, monotone_rows


def test_ladder_count_and_rates():
    ladder = make_ladder()
    assert ladder.count == 10
    assert ladder.rate_kbps(1) == 235.0
    assert ladder.rate_kbps(10) == 5800.0


def test_ladder_needs_two_levels():
    with pytest.raises(ManifestError, match="at least 2"):
        BitrateLadder((235.0,))


def test_ladder_must_increase():
    with pytest.raises(ManifestError, match=r"ladder_kbps\[2\]"):
        BitrateLadder((375.0, 235.0))


def test_ladder_rejects_nonpositive_rates():
    with pytest.raises(ManifestError, match=r"ladder_kbps\[1\]"):
        BitrateLadder((0.0, 375.0))
    with pytest.raises(ManifestError, match="positive"):
        BitrateLadder((-5.0, 375.0))


def test_ladder_level_bounds():
    ladder = make_ladder()
    with pytest.raises(IndexError):
        ladder.rate_kbps(0)
    with pytest.raises(IndexError):
        ladder.rate_kbps(11)


def test_highest_level_below_is_strict():
    ladder = make_ladder()
    assert ladder.highest_level_below(235.0) is None
    assert ladder.highest_level_below(236.0) == 1
    assert ladder.highest_level_below(2500.0) == 7
    assert ladder.highest_level_below(5800.0) == 9
    assert ladder.highest_level_below(1e9) == 10


def test_highest_level_at_or_below_is_inclusive():
    ladder = make_ladder()
    assert ladder.highest_level_at_or_below(234.0) is None
    assert ladder.highest_level_at_or_below(235.0) == 1
    assert ladder.highest_level_at_or_below(3000.0) == 8


def test_level_lookups_match_a_linear_scan():
    def scan(rates, accept):
        best = None
        for level, rate in enumerate(rates, start=1):
            if accept(rate):
                best = level
        return best

    rng = random.Random(17)
    for _ in range(200):
        ladder = make_ladder(sorted(rng.sample(range(50, 9000), rng.randint(2, 8))))
        rates = ladder.levels_kbps
        probes = [*rates, *(math.nextafter(r, -math.inf) for r in rates),
                  *(math.nextafter(r, math.inf) for r in rates),
                  rates[0] / 2, 0.0, -1.0, rates[-1] * 2, rng.uniform(0, 10000),
                  math.inf, -math.inf, math.nan]
        for x in probes:
            assert ladder.highest_level_below(x) == scan(rates, lambda r: r < x)
            assert ladder.highest_level_at_or_below(x) == scan(rates, lambda r: r <= x)
    assert make_ladder().highest_level_at_or_below(math.nan) is None


def test_nominal_chunk_volume():
    manifest = make_manifest(chunks=3, duration=4.0)
    assert manifest.chunk_volume(1, 1) == 940.0  # 235 kbps x 4 s
    assert manifest.chunk_volume(3, 10) == 5800.0 * 4


def test_measured_chunk_volume_passthrough():
    sizes = tuple(tuple(1000.0 for _ in range(10)) for _ in range(2))
    manifest = make_manifest(chunks=2, sizes=sizes)
    assert manifest.chunk_volume(1, 1) == 1000.0
    assert manifest.chunk_volume(2, 10) == 1000.0


def test_chunk_volume_bounds():
    manifest = make_manifest(chunks=2)
    with pytest.raises(IndexError, match="chunk 3"):
        manifest.chunk_volume(3, 1)
    with pytest.raises(IndexError, match="level 11"):
        manifest.ssim_at(1, 11)


def test_ssim_range_validated_with_indices():
    rows = [list(r) for r in monotone_rows(4, 10)]
    rows[2][1] = 1.2
    with pytest.raises(ManifestError, match=r"ssim\[3\]\[2\]"):
        make_manifest(chunks=4, ssim=rows)


def test_ssim_shape_validated():
    with pytest.raises(ManifestError, match="rows"):
        make_manifest(chunks=5, ssim=monotone_rows(4, 10))
    bad = [list(r) for r in monotone_rows(2, 10)]
    bad[1] = bad[1][:9]
    with pytest.raises(ManifestError, match=r"ssim\[2\] has 9"):
        make_manifest(chunks=2, ssim=bad)


def test_chunk_kilobits_validated():
    sizes = [[1000.0] * 10 for _ in range(2)]
    sizes[1][3] = 0.0
    with pytest.raises(ManifestError, match=r"chunk_kilobits\[2\]\[4\]"):
        make_manifest(chunks=2, sizes=sizes)


def test_dict_roundtrip():
    manifest = make_manifest(chunks=4)
    again = manifest_from_dict(manifest.to_dict())
    assert again == manifest


def test_file_roundtrip(tmp_path):
    manifest = make_manifest(chunks=3, sizes=[[1000.0 + i + j for j in range(10)] for i in range(3)])
    path = tmp_path / "m.json"
    save_manifest(manifest, str(path))
    assert load_manifest(str(path)) == manifest


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ladder_kbps": [235, 375], "ssim": [[0.7, 0.8]]}))
    with pytest.raises(ManifestError, match="chunk_duration_s"):
        load_manifest(str(path))


def test_load_names_a_manifest_that_is_not_utf8(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"chunk_duration_s": 4.0, "note": "\xff"}')
    with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec"):
        load_manifest(str(path))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{nope")
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ManifestError, match="JSON object"):
        load_manifest(str(path))


def test_synthesize_zero_spread_rows_identical():
    manifest = synthesize_manifest(
        make_ladder(), 6, 4.0, SaturationProfile(per_chunk_spread=0.0)
    )
    assert len(set(manifest.ssim)) == 1


def test_synthesize_rows_monotone_in_level():
    manifest = synthesize_manifest(make_ladder(), 50, 4.0, SaturationProfile(jitter_seed=9))
    for row in manifest.ssim:
        assert all(a <= b for a, b in zip(row, row[1:]))


def test_synthesize_respects_floor_and_ceiling():
    profile = SaturationProfile(q_floor=0.6, q_ceiling=0.95, knee_kbps=1000.0, jitter_seed=3)
    manifest = synthesize_manifest(make_ladder(), 40, 4.0, profile)
    for row in manifest.ssim:
        assert all(0.6 - 1e-6 <= q <= 0.95 + 1e-6 for q in row)


def test_synthesize_knee_position_controls_saturation():
    # Knee near the second rung: the first step is steep, the last step flat.
    profile = SaturationProfile(knee_kbps=380.0, jitter_seed=1, per_chunk_spread=0.0)
    manifest = synthesize_manifest(make_ladder(), 5, 4.0, profile)
    for i in range(1, 6):
        first_step = manifest.ssim_at(i, 2) - manifest.ssim_at(i, 1)
        last_step = manifest.ssim_at(i, 10) - manifest.ssim_at(i, 9)
        assert first_step > 0.1
        assert last_step < 1e-6


def test_synthesize_deterministic(tmp_path):
    a = synthesize_manifest(make_ladder(), 20, 4.0, SaturationProfile(jitter_seed=7))
    b = synthesize_manifest(make_ladder(), 20, 4.0, SaturationProfile(jitter_seed=7))
    assert a == b
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_manifest(a, str(pa))
    save_manifest(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    c = synthesize_manifest(make_ladder(), 20, 4.0, SaturationProfile(jitter_seed=8))
    assert c != a


def test_synthesize_knee_outside_span_rejected():
    with pytest.raises(ManifestError, match="knee_kbps"):
        synthesize_manifest(make_ladder(), 5, 4.0, SaturationProfile(knee_kbps=9000.0))


def test_profile_validation():
    with pytest.raises(ManifestError):
        SaturationProfile(q_floor=0.9, q_ceiling=0.8)
    with pytest.raises(ManifestError):
        SaturationProfile(per_chunk_spread=1.5)


def test_default_ladder_strictly_increasing():
    rates = NETFLIX_LADDER_KBPS
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_random_valid_manifests_accept(tmp_path):
    rng = random.Random(0)
    for trial in range(20):
        levels = rng.randint(2, 8)
        rates = sorted(rng.sample(range(100, 9000), levels))
        chunks = rng.randint(1, 12)
        ssim = tuple(
            tuple(sorted(rng.uniform(0.3, 1.0) for _ in range(levels)))
            for _ in range(chunks)
        )
        manifest = make_manifest(chunks=chunks, rates=rates, ssim=ssim)
        path = tmp_path / f"m{trial}.json"
        save_manifest(manifest, str(path))
        assert load_manifest(str(path)) == manifest
