import itertools
import json
import math
import random
import re

import pytest

from abrsim import load_manifest
from abrsim.manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    SaturationProfile,
    VideoManifest,
    manifest_from_dict,
    save_manifest,
    synthesize_manifest,
)
from abrsim.abr import make_policy
from abrsim.batch import RunSpec, manifest_from_recipe
from abrsim.simulator import SessionConfig, SessionEventLog, open_log, run_session
from abrsim.trace import BandwidthTrace
from helpers import chunk_volume, constant_trace, make_ladder, make_manifest, monotone_rows, reference_ssim_rows


def test_ladder_count_and_rates():
    ladder = make_ladder()
    assert ladder.count == 10
    assert ladder.levels_kbps[0] == 235.0
    assert ladder.levels_kbps[9] == 5800.0


def test_ladder_needs_two_levels():
    with pytest.raises(ValueError, match="at least 2"):
        BitrateLadder((235.0,))


def test_ladder_must_increase():
    with pytest.raises(ValueError, match=r"ladder_kbps\[2\]"):
        BitrateLadder((375.0, 235.0))


def test_ladder_rejects_nonpositive_rates():
    with pytest.raises(ValueError, match=r"ladder_kbps\[1\]"):
        BitrateLadder((0.0, 375.0))
    with pytest.raises(ValueError, match="positive"):
        BitrateLadder((-5.0, 375.0))


def test_highest_level_below_is_strict():
    ladder = make_ladder()
    assert ladder.highest_level_below(235.0) == 1
    assert ladder.highest_level_below(236.0) == 1
    assert ladder.highest_level_below(2500.0) == 7
    assert ladder.highest_level_below(5800.0) == 9
    assert ladder.highest_level_below(1e9) == 10


def test_highest_level_at_or_below_is_inclusive():
    ladder = make_ladder()
    assert ladder.highest_level_at_or_below(234.0) == 1
    assert ladder.highest_level_at_or_below(235.0) == 1
    assert ladder.highest_level_at_or_below(3000.0) == 8


def test_level_lookups_match_a_linear_scan():
    def scan(rates, accept):
        best = 1  # the floor level, where no rung is accepted
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
    assert make_ladder().highest_level_at_or_below(math.nan) == 1


def test_nominal_chunk_volume():
    manifest = make_manifest(chunks=3, duration=4.0)
    assert chunk_volume(manifest, 1, 1) == 940.0  # 235 kbps x 4 s
    assert chunk_volume(manifest, 3, 10) == 5800.0 * 4


def test_measured_chunk_volume_passthrough():
    sizes = tuple(tuple(1000.0 for _ in range(10)) for _ in range(2))
    manifest = make_manifest(chunks=2, sizes=sizes)
    assert chunk_volume(manifest, 1, 1) == 1000.0
    assert chunk_volume(manifest, 2, 10) == 1000.0


def test_chunk_volume_bounds():
    manifest = make_manifest(chunks=2)
    with pytest.raises(IndexError, match="chunk 3"):
        chunk_volume(manifest, 3, 1)


def test_ssim_range_validated_with_indices():
    rows = [list(r) for r in monotone_rows(4, 10)]
    rows[2][1] = 1.2
    with pytest.raises(ValueError, match=r"ssim\[3\]\[2\]"):
        make_manifest(chunks=4, ssim=rows)


def test_ssim_shape_validated():
    with pytest.raises(ValueError, match="ssim needs at least 1 row, got 0"):
        make_manifest(ssim=())
    bad = [list(r) for r in monotone_rows(2, 10)]
    bad[1] = bad[1][:9]
    with pytest.raises(ValueError, match=r"ssim\[2\] has 9"):
        make_manifest(chunks=2, ssim=bad)


def test_chunk_kilobits_validated():
    sizes = [[1000.0] * 10 for _ in range(2)]
    sizes[1][3] = 0.0
    with pytest.raises(ValueError, match=r"chunk_kilobits\[2\]\[4\]"):
        make_manifest(chunks=2, sizes=sizes)
    with pytest.raises(ValueError, match="chunk_kilobits has 3 rows, expected chunk_count=2"):
        make_manifest(chunks=2, sizes=[[1000.0] * 10] * 3)


@pytest.mark.parametrize("build, message", [
    (lambda: make_manifest(chunks=1, rates=(235, 375), ssim=[[0.8, True]]),
     "ssim[1][2] must be a finite number, got True"),
    (lambda: make_manifest(chunks=1, rates=(235, 375), sizes=[[900, "1500"]]),
     "chunk_kilobits[1][2] must be a finite number, got '1500'"),
    (lambda: make_manifest(chunks=1, rates=(235, 375), sizes=[[900, 10**400]]),
     "chunk_kilobits[1][2] must be a finite number, got an integer too large for a float"),
    (lambda: make_manifest(chunks=1, rates=(235, 375), sizes=[[900, math.nan]]),
     "chunk_kilobits[1][2] must be a finite number, got nan"),
    (lambda: make_manifest(duration="4"), "chunk_duration_s must be a finite number, got '4'"),
    (lambda: BitrateLadder((235, "375")), "ladder_kbps[2] must be a finite number, got '375'"),
    (lambda: BitrateLadder((235, 10**400)),
     "ladder_kbps[2] must be a finite number, got an integer too large for a float"),
], ids=["bool-ssim", "string-size", "huge-int-size", "nan-after-a-valid-size", "string-duration",
        "string-rung", "huge-int-rung"])
def test_the_types_reject_what_is_no_json_number(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        build()
    assert type(exc.value) is ValueError


def open_log_with(field, value):
    manifest = make_manifest(chunks=2)
    header = run_session(manifest, constant_trace(1000.0), SessionConfig())[0].header
    return open_log(SessionEventLog([{**header, field: value}]), manifest)


# Each boundary a loaded or built value crosses: (the call that takes the value, what the message
# names, an example of the JSON type it takes).  Every one raises a plain ValueError.
JSON_BOUNDARIES = {
    "ladder-rung": (lambda v: BitrateLadder((235.0, v)), "ladder_kbps[2]", 0.0),
    "chunk-duration": (lambda v: make_manifest(duration=v), "chunk_duration_s", 0.0),
    "ssim-cell": (lambda v: make_manifest(chunks=1, rates=(235, 375), ssim=[[0.8, v]]), "ssim[1][2]", 0.0),
    "size-cell": (lambda v: make_manifest(chunks=1, rates=(235, 375), sizes=[[900, v]]), "chunk_kilobits[1][2]", 0.0),
    "trace-rate": (lambda v: BandwidthTrace(((0, v), (60, 0))), "sample 1 bandwidth", 0.0),
    "trace-time": (lambda v: BandwidthTrace(((0, 3000), (v, 2000), (60, 0))), "sample 2 timestamp", 0.0),
    "scenario-value": (lambda v: RunSpec(["*.csv"], ["sba"], [[120, v]], "out", "m.json"), "scenarios[1][2]", 0.0),
    "recipe-float": (lambda v: manifest_from_recipe({"chunk_count": 8, "chunk_duration_s": 4, "knee_kbps": v}),
                     "bad synthesize fields: knee_kbps", 0.0),
    "recipe-int": (lambda v: manifest_from_recipe({"chunk_count": v, "chunk_duration_s": 4}),
                   "bad synthesize fields: chunk_count", 0),
    "param-float": (lambda v: make_policy("bba", {"cushion_frac": v}),
                    "bad parameters for policy 'bba': cushion_frac", 0.0),
    "param-int": (lambda v: make_policy("festive", {"window": v}), "bad parameters for policy 'festive': window", 0),
    "param-bool": (lambda v: make_policy("sba", {"upgrade_only": v}),
                   "bad parameters for policy 'sba': upgrade_only", False),
    "config-float": (lambda v: SessionConfig(buffer_capacity_s=v), "buffer_capacity_s", 0.0),
    "config-bool": (lambda v: SessionConfig(loop_trace=v), "loop_trace", False),
    "config-dict": (lambda v: SessionConfig(policy_params=v), "policy_params", {}),
    "header-float": (lambda v: open_log_with("buffer_capacity_s", v),
                     "record 1 (session_start): buffer_capacity_s", 0.0),
    "header-int": (lambda v: open_log_with("chunk_count", v), "record 1 (session_start): chunk_count", 0),
    "header-string": (lambda v: open_log_with("policy", v), "record 1 (session_start): policy", ""),
    "header-array": (lambda v: open_log_with("ladder_kbps", v), "record 1 (session_start): ladder_kbps", []),
    "header-array-item": (lambda v: open_log_with("ladder_kbps", [v, 375.0]),
                          "record 1 (session_start): ladder_kbps[1]", 0.0),
    "spec-trace-item": (lambda v: RunSpec([v], ["sba"], [[120, 12]], "out", "m.json"), "traces[1]", ""),
    "spec-policy-item": (lambda v: RunSpec(["*.csv"], [v], [[120, 12]], "out", "m.json"), "policies[1]", ""),
    "ssim-row": (lambda v: manifest_from_dict({"chunk_duration_s": 4.0, "ladder_kbps": [235, 375], "ssim": [v]}),
                 "ssim[1]", []),
    "recipe-ladder": (lambda v: manifest_from_recipe({"chunk_count": 8, "chunk_duration_s": 4, "ladder_kbps": v}),
                      "bad synthesize fields: ladder_kbps", []),
}
JSON_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string",
                   list: "an array", dict: "an object"}
NO_JSON_VALUE = {"true": True, "string": "1", "null": None, "nan": math.nan, "inf": math.inf, "huge-int": 10**400}


@pytest.mark.parametrize("boundary, value", [
    pytest.param(boundary, NO_JSON_VALUE[name], id=f"{boundary}-{name}")
    for boundary, (_, _, like) in JSON_BOUNDARIES.items() for name in NO_JSON_VALUE
    # true is a JSON bool and 10**400 a JSON integer; a float must also be finite
    if type(NO_JSON_VALUE[name]) is not type(like) or type(like) is float
])
def test_every_boundary_words_the_json_value_rule_alike(boundary, value):
    build, what, like = JSON_BOUNDARIES[boundary]
    got = "an integer too large for a float" if type(like) is float and value == 10**400 else repr(value)
    with pytest.raises(ValueError) as exc:
        build(value)
    assert type(exc.value) is ValueError  # no subclass at any boundary
    assert str(exc.value) == f"{what} must be {JSON_TYPE_NAMES[type(like)]}, got {got}"


def test_a_size_table_whose_sum_overflows_stays_valid():
    manifest = make_manifest(chunks=1, rates=(235, 375), sizes=[[1e308, 1.5e308]])
    assert manifest.chunk_kilobits == ((1e308, 1.5e308),)


def test_dict_roundtrip():
    manifest = make_manifest(chunks=4)
    again = manifest_from_dict(manifest.to_dict())
    assert again == manifest


def test_file_roundtrip(tmp_path):
    manifest = make_manifest(chunks=3, sizes=[[1000.0 + i + j for j in range(10)] for i in range(3)])
    path = tmp_path / "m.json"
    save_manifest(manifest, str(path))
    assert load_manifest(str(path)) == manifest


def test_failed_save_keeps_the_old_manifest(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    save_manifest(make_manifest(chunks=2), str(path))
    before = path.read_bytes()

    def fail_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("abrsim.manifest.os.replace", fail_replace)
    with pytest.raises(OSError, match="No space left"):
        save_manifest(make_manifest(chunks=5), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ladder_kbps": [235, 375], "ssim": [[0.7, 0.8]]}))
    with pytest.raises(ValueError, match="chunk_duration_s"):
        load_manifest(str(path))


@pytest.mark.parametrize("fields, message", [
    ({"ladder_kbps": "58"}, "ladder_kbps must be an array, got '58'"),
    ({"ladder_kbps": ["235", "375"]}, "ladder_kbps[1] must be a finite number, got '235'"),
    ({"ladder_kbps": [235, True]}, "ladder_kbps[2] must be a finite number, got True"),
    ({"chunk_duration_s": "4"}, "chunk_duration_s must be a finite number, got '4'"),
    ({"chunk_duration_s": True}, "chunk_duration_s must be a finite number, got True"),
    ({"ssim": [[0.7, "0.8"]]}, "ssim[1][2] must be a finite number, got '0.8'"),
    ({"ssim": [[0.7, 0.8], [None, 0.9]]}, "ssim[2][1] must be a finite number, got None"),
    ({"chunk_kilobits": [[1000, False]]}, "chunk_kilobits[1][2] must be a finite number, got False"),
    ({"chunk_kilobits": [["1000", 2000]]}, "chunk_kilobits[1][1] must be a finite number, got '1000'"),
])
def test_load_rejects_strings_and_bools_for_numbers(tmp_path, fields, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"chunk_duration_s": 4.0, "ladder_kbps": [235, 375],
                                "ssim": [[0.7, 0.8]], **fields}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        load_manifest(str(path))


@pytest.mark.parametrize("fields, message", [
    ({"chunk_duration_s": 0}, "chunk_duration_s must be > 0, got 0.0"),
    ({"ssim": []}, "ssim needs at least 1 row, got 0"),
    ({"ssim": [0.7, 0.8]}, "ssim[1] must be an array, got 0.7"),
    ({"chunk_kilobits": 5}, "chunk_kilobits must be an array, got 5"),
    # Once dropped silently, so every chunk was priced at its nominal size.
    ({"chunk_kilobit": [[1000, 2000]]}, "unknown manifest fields: chunk_kilobit"),
], ids=["zero-chunk-duration", "empty-ssim", "flat-ssim", "number-chunk-kilobits", "misspelled-chunk-kilobits"])
def test_load_rejects_a_manifest_of_the_wrong_shape(tmp_path, fields, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"chunk_duration_s": 4.0, "ladder_kbps": [235, 375],
                                "ssim": [[0.7, 0.8]], **fields}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_manifest(str(path))


def test_load_accepts_json_integers_as_numbers(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"chunk_duration_s": 4, "ladder_kbps": [235, 375],
                                "ssim": [[1, 0.8]], "chunk_kilobits": [[940, 1500]]}))
    manifest = load_manifest(str(path))
    assert manifest.chunk_duration_s == 4.0 and manifest.ladder.levels_kbps == (235.0, 375.0)
    assert manifest.ssim == ((1.0, 0.8),) and manifest.chunk_kilobits == ((940.0, 1500.0),)


def test_load_names_a_manifest_that_is_not_utf8(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"chunk_duration_s": 4.0, "note": "\xff"}')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec"):
        load_manifest(str(path))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_manifest(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
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
        first_step = manifest.ssim[i - 1][1] - manifest.ssim[i - 1][0]
        last_step = manifest.ssim[i - 1][9] - manifest.ssim[i - 1][8]
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


# Spread 0 makes every row full-lift; spread 1 lets the lift factor clamp to 0.
SYNTH_GRID = list(itertools.product(
    (NETFLIX_LADDER_KBPS, (235.0, 560.0, 1750.0, 4300.0)), (1, 9600), (0, 7), (0.0, 0.3, 0.5, 1.0)
))


@pytest.mark.parametrize("rates, chunks, seed, spread", SYNTH_GRID)
def test_synthesize_matches_the_per_cell_formula(rates, chunks, seed, spread):
    ladder = make_ladder(rates)
    profile = SaturationProfile(jitter_seed=seed, per_chunk_spread=spread)
    manifest = synthesize_manifest(ladder, chunks, 4.0, profile)
    assert manifest.ssim == reference_ssim_rows(ladder, chunks, profile)


@pytest.mark.parametrize("spread", (0.0, 0.5, 1.0))
def test_synthesize_shares_one_full_lift_row(spread):
    profile = SaturationProfile(jitter_seed=1, per_chunk_spread=spread)
    manifest = synthesize_manifest(make_ladder(), 2000, 4.0, profile)
    rng = random.Random(1)
    full = [i for i in range(2000) if 1.0 + spread * rng.uniform(-1.0, 1.0) >= 1.0]
    assert len(full) == 2000 if spread == 0.0 else 0 < len(full) < 2000
    assert len({id(manifest.ssim[i]) for i in full}) == 1
    assert all(manifest.ssim[i] is not manifest.ssim[full[0]] for i in set(range(2000)) - set(full))


def test_manifest_checks_a_shared_row_once_and_reports_its_first_index():
    good = tuple(monotone_rows(1, 10)[0])
    bad = good[:3] + (1.5,) + good[4:]
    rows = (good, bad, good, bad, bad)
    with pytest.raises(ValueError, match=re.escape("ssim[2][4] must lie in (0, 1], got 1.5")):
        VideoManifest(4.0, make_ladder(), rows)
    n = 7
    shared = VideoManifest(4.0, make_ladder(), (good,) * n)
    copies = VideoManifest(4.0, make_ladder(), [list(good) for _ in range(n)])
    assert shared == copies
    assert len({id(row) for row in shared.ssim}) == 1
    listed = [list(good)] * n  # one list object n times, as a caller might build it
    assert manifest_from_dict({"chunk_duration_s": 4.0, "ladder_kbps": list(NETFLIX_LADDER_KBPS),
                               "ssim": listed}) == copies


def test_synthesize_knee_outside_span_rejected():
    with pytest.raises(ValueError, match="knee_kbps"):
        synthesize_manifest(make_ladder(), 5, 4.0, SaturationProfile(knee_kbps=9000.0))


def test_profile_validation():
    with pytest.raises(ValueError):
        SaturationProfile(q_floor=0.9, q_ceiling=0.8)
    with pytest.raises(ValueError):
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
