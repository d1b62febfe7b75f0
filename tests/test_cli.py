import json
import os
import shutil
import subprocess
import sys

import pytest

from abrsim import POLICIES, SessionConfig, batch, load_manifest, load_runspec, load_trace, run_session
from abrsim.batch import validate_runspec
from abrsim.cli import build_parser, main
from abrsim.manifest import NETFLIX_LADDER_KBPS, save_manifest
from abrsim.simulator import SessionEventLog
from abrsim.trace import BandwidthTrace, save_trace
from helpers import constant_trace, make_manifest

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios", "comparison")

# 101 rungs x 9,901 chunks is one cell over the 10**6 a recipe may ask for.
LADDER_101 = [100.0 * k for k in range(1, 102)]


@pytest.fixture
def workspace(tmp_path):
    save_manifest(make_manifest(chunks=8), str(tmp_path / "manifest.json"))
    save_trace(constant_trace(3000.0), str(tmp_path / "trace_0.csv"))
    save_trace(constant_trace(5000.0), str(tmp_path / "trace_1.csv"))
    (tmp_path / "spec.json").write_text(json.dumps({
        "manifest": "manifest.json",
        "traces": ["trace_*.csv"],
        "policies": ["sba", "bba"],
        "scenarios": [[120, 12]],
        "output_dir": "out",
        "jobs": 1,
    }))
    return tmp_path


# --- argument surface ---


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_every_entry_point_accepts_exactly_the_registered_policies(workspace):
    simulate = build_parser()._subparsers._group_actions[0].choices["simulate"]
    choices = next(a.choices for a in simulate._actions if a.dest == "policy")
    assert list(choices) == list(POLICIES)
    spec = load_runspec(str(workspace / "spec.json"))
    spec.policies = list(POLICIES)
    validate_runspec(spec)
    for name in POLICIES:
        assert SessionConfig(policy=name).policy == name
    spec.policies = ["rate_hog"]
    with pytest.raises(ValueError, match="unknown policy"):
        validate_runspec(spec)
    with pytest.raises(ValueError, match="unknown policy"):
        SessionConfig(policy="rate_hog")


def test_parser_rejects_unknown_policy_choice(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--manifest", str(workspace / "manifest.json"),
              "--trace", str(workspace / "trace_0.csv"), "--policy", "rate_hog"])
    assert exc.value.code == 2


# --- synth-manifest ---


def test_synth_manifest_takes_only_an_output_path_and_a_recipe(workspace):
    synth = build_parser()._subparsers._group_actions[0].choices["synth-manifest"]
    assert {flag for action in synth._actions for flag in action.option_strings} == {
        "-h", "--help", "--out", "--recipe"}
    with pytest.raises(SystemExit) as exc:  # the per-field flags are gone
        main(["synth-manifest", "--out", str(workspace / "m.json"), "--chunks", "4"])
    assert exc.value.code == 2


def test_synth_manifest_writes_file(workspace, capsys):
    out = workspace / "synth.json"
    code = main(["synth-manifest", "--out", str(out),
                 "--recipe", '{"chunk_count": 12, "chunk_duration_s": 4, "jitter_seed": 5}'])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    manifest = load_manifest(str(out))
    assert manifest.chunk_count == 12
    assert manifest.ladder.count == 10


def test_synth_manifest_writes_what_a_spec_with_that_recipe_writes(workspace):
    recipe = {"chunk_count": 6, "chunk_duration_s": 2.5, "ladder_kbps": [300, 750, 1500], "q_floor": 0.6,
              "q_ceiling": 0.99, "knee_kbps": 900, "per_chunk_spread": 0.3, "jitter_seed": 9}
    rewrite_spec(workspace, manifest=None, synthesize=recipe)
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 0
    out = workspace / "synth.json"
    assert main(["synth-manifest", "--out", str(out), "--recipe", json.dumps(recipe)]) == 0
    assert out.read_bytes() == (workspace / "out" / "manifest.json").read_bytes()


def test_synth_manifest_custom_ladder(workspace):
    out = workspace / "two_level.json"
    assert main(["synth-manifest", "--out", str(out), "--recipe",
                 '{"chunk_count": 4, "chunk_duration_s": 4, "ladder_kbps": [500, 900], "knee_kbps": 700}']) == 0
    assert load_manifest(str(out)).ladder.levels_kbps == (500.0, 900.0)


def test_synth_manifest_invalid_profile_exits_two(workspace, capsys):
    out = workspace / "bad.json"
    code = main(["synth-manifest", "--out", str(out), "--recipe",
                 '{"chunk_count": 4, "chunk_duration_s": 4, "ladder_kbps": [500, 900], "knee_kbps": 5000}'])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("recipe, message", [
    ({"chunk_count": 100001, "chunk_duration_s": 4}, "a 100001 x 10 SSIM table"),
    ({"chunk_count": 9901, "chunk_duration_s": 4, "ladder_kbps": LADDER_101}, "a 9901 x 101 SSIM table"),
], ids=["default-ladder", "one-cell-over"])
def test_synth_manifest_rejects_a_table_over_the_bound(workspace, capsys, recipe, message):
    out = workspace / "big.json"
    assert main(["synth-manifest", "--out", str(out), "--recipe", json.dumps(recipe)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('[["chunk_count", 4], ["chunk_duration_s", 4]]',
     "--recipe must be an object, got [['chunk_count', 4], ['chunk_duration_s', 4]]"),
    ('"chunk_count"', "--recipe must be an object, got 'chunk_count'"),
    ("null", "--recipe must be an object, got None"),
    ("{chunk_count: 4}", "--recipe: not valid JSON: Expecting property name enclosed in double quotes"),
    ('{"chunk_count": 4}', "synthesize needs chunk_count >= 1 and chunk_duration_s > 0"),
    ('{"chunk_count": 4, "chunk_duration_s": 4, "ladder_kbps": "100,abc"}',
     "bad synthesize fields: ladder_kbps must be an array, got '100,abc'"),
    ('{"chunk_count": 4, "chunk_duration_s": 4, "ladder_kbps": []}',
     "bad synthesize fields: ladder_kbps needs at least 2 levels, got 0"),
], ids=["list-of-pairs", "string", "null", "not-json", "no-chunk-duration", "comma-ladder", "empty-ladder"])
def test_synth_manifest_names_what_is_wrong_with_its_recipe(workspace, capsys, text, message):
    out = workspace / "m.json"
    assert main(["synth-manifest", "--out", str(out), "--recipe", text]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_a_write_into_a_missing_directory_names_the_path_given(workspace, capsys):
    out = workspace / "missing" / "m.json"
    assert main(["synth-manifest", "--out", str(out),
                 "--recipe", '{"chunk_count": 4, "chunk_duration_s": 4}']) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    log = workspace / "missing" / "s.jsonl"
    assert main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(log)!r}\n"
    assert captured.out == ""  # no log on stdout from a run that could not keep it


@pytest.mark.parametrize("argv, flag", [
    (["run", "--spec", "spec.json", "--output-dir", ""], "--output-dir"),
    (["simulate", "--manifest", "manifest.json", "--trace", "trace_0.csv", "--log", ""], "--log"),
], ids=["run-output-dir", "simulate-log"])
def test_an_empty_path_flag_exits_two_naming_it(workspace, monkeypatch, capsys, argv, flag):
    # "" names no file: it is bad input, not "use the default" and not "write no log".
    monkeypatch.chdir(workspace)
    before = sorted(os.listdir(workspace))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: an empty path names nothing" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(workspace)) == before


# --- validate ---


def test_validate_accepts_good_files(workspace, capsys):
    code = main(["validate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 2


def test_validate_flags_bad_files(workspace, capsys):
    bad_manifest = workspace / "broken.json"
    bad_manifest.write_text("{not json")
    bad_trace = workspace / "broken.csv"
    bad_trace.write_text("0,100\n0,-5\n")
    code = main(["validate", "--manifest", str(bad_manifest), "--trace", str(bad_trace)])
    assert code == 2
    out = capsys.readouterr().out
    assert out.count("INVALID") == 2


@pytest.mark.parametrize("fields, message", [
    ({"ladder_kbps": "58"}, "ladder_kbps must be an array, got '58'"),
    ({"chunk_duration_s": "4", "ladder_kbps": ["235", "375"]}, "chunk_duration_s must be a finite number, got '4'"),
    ({"ssim": [["0.7", "0.8"]]}, "ssim[1][1] must be a finite number, got '0.7'"),
    ({"chunk_kilobits": [[10**400, 1500]]},
     "chunk_kilobits[1][1] must be a finite number, got an integer too large for a float"),
    ({"ladder_kbps": [235, 10**400]}, "ladder_kbps[2] must be a finite number, got an integer too large for a float"),
])
def test_validate_rejects_a_manifest_with_strings_for_numbers(workspace, capsys, fields, message):
    path = workspace / "typed.json"
    path.write_text(json.dumps({"chunk_duration_s": 4.0, "ladder_kbps": [235, 375],
                                "ssim": [[0.7, 0.8]], **fields}))
    assert main(["validate", "--manifest", str(path)]) == 2
    assert f"{path}: INVALID: {path}: {message}" in capsys.readouterr().out


def test_validate_mixed_results_exit_two(workspace, capsys):
    bad = workspace / "broken.csv"
    bad.write_text("garbage\n")
    code = main(["validate", "--trace", str(workspace / "trace_0.csv"),
                 "--trace", str(bad)])
    assert code == 2
    out = capsys.readouterr().out
    assert ": ok" in out and "INVALID" in out


def test_validate_reports_every_file_when_one_is_not_utf8(workspace, capsys):
    bad = workspace / "bad.csv"
    bad.write_bytes(b"timestamp_s,bandwidth_kbps\n0,\xff\n")
    code = main(["validate", "--trace", str(bad), "--trace", str(workspace / "trace_0.csv")])
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{bad}: INVALID: {bad}: not UTF-8 text: ")
    assert out[1].startswith(f"{workspace / 'trace_0.csv'}: ok")


def test_validate_with_nothing_exits_two(capsys):
    assert main(["validate"]) == 2
    assert "nothing to validate" in capsys.readouterr().err


# --- simulate ---


def test_simulate_streams_jsonl(workspace, capsys):
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv")])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["event"] == "session_start"
    assert records[-1]["event"] == "session_end"
    assert "rebuffering=" in captured.err
    assert not captured.err.startswith("PARTIAL")


def test_simulate_on_a_loop_whose_count_overflows_ends_partial(workspace, capsys):
    save_trace(BandwidthTrace(((0.0, 1e-320), (10.0, 1e-320))), str(workspace / "tiny.csv"))
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "tiny.csv"), "--loop"])
    assert code == 1
    captured = capsys.readouterr()
    last = json.loads(captured.out.splitlines()[-1])
    assert last["event"] == "session_truncated" and "the loop count overflows" in last["diagnostic"]
    assert captured.err.startswith("PARTIAL")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("samples", [((0.0, 3000.0), (10.0, 1e-310)), ((0.0, 1e-320), (600.0, 1e-320))],
                         ids=["subnormal-tail", "subnormal-throughout"])
def test_simulate_on_a_tail_too_slow_to_finish_in_the_float_range_ends_partial(workspace, capsys, samples):
    trace, manifest, log = (str(workspace / name) for name in ("slow.csv", "manifest.json", "slow.jsonl"))
    save_trace(BandwidthTrace(samples), trace)
    assert main(["validate", "--trace", trace]) == 0
    assert main(["simulate", "--manifest", manifest, "--trace", trace, "--log", log]) == 1
    last = SessionEventLog.read(log).records[-1]
    assert last["event"] == "session_truncated" and "the finish time overflows" in last["diagnostic"]
    assert main(["replay", "--log", log, "--manifest", manifest]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("samples, carries", [
    (((0.0, 5e-324), (0.5, 0.0)), "its 0.5s period carries 0.0 kilobits"),
    (((0.0, 1e308), (10.0, 0.0)), "its 10.0s period carries inf kilobits"),
], ids=["zero-volume-period", "infinite-volume-period"])
def test_simulate_on_a_loop_without_a_finite_period_volume_exits_two(workspace, capsys, samples, carries):
    save_trace(BandwidthTrace(samples), str(workspace / "bad.csv"))
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "bad.csv"), "--loop"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a looping trace needs a positive, finite volume per period: {carries}\n"


def test_simulate_leaves_each_unset_session_setting_to_session_config(workspace, capsys):
    args = build_parser().parse_args(["simulate", "--manifest", "m.json", "--trace", "t.csv"])
    assert not set(vars(args)) & set(SessionConfig.__dataclass_fields__)
    assert main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--bs", "240"]) == 0
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    default = SessionConfig()
    assert header["buffer_capacity_s"] == 240.0
    assert [header[name] for name in ("policy", "critical_threshold_s", "loop_trace", "policy_params")] == [
        default.policy, default.critical_threshold_s, default.loop_trace, default.policy_params]


def test_simulate_writes_log_file(workspace, capsys):
    log_path = workspace / "session.jsonl"
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)])
    assert code == 0
    assert log_path.read_text() == capsys.readouterr().out


def test_simulate_encodes_the_log_once(workspace, monkeypatch, capsys):
    # The engine's writer encodes each event as it happens; no stored log is
    # encoded again, and stdout and --log get the same text.
    expected = run_session(load_manifest(str(workspace / "manifest.json")),
                           load_trace(str(workspace / "trace_0.csv")), SessionConfig())[0].to_jsonl()
    calls = []
    encode = SessionEventLog.to_jsonl

    def counting(self):
        calls.append(1)
        return encode(self)

    monkeypatch.setattr(SessionEventLog, "to_jsonl", counting)
    log_path = workspace / "session.jsonl"
    assert main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)]) == 0
    assert calls == []
    assert log_path.read_text() == capsys.readouterr().out == expected
    assert sorted(p.name for p in workspace.iterdir() if p.name.startswith("session")) == [
        "session.jsonl"]


def test_simulate_partial_session_exits_one(workspace, capsys):
    # A trace that runs dry: the replay reads the log's truncation in place of a completion.
    save_trace(constant_trace(100.0, until_s=10.0), str(workspace / "starved.csv"))
    manifest, log = str(workspace / "manifest.json"), str(workspace / "starved.jsonl")
    assert main(["simulate", "--manifest", manifest, "--trace", str(workspace / "starved.csv"), "--log", log]) == 1
    assert capsys.readouterr().err.startswith("PARTIAL")
    assert main(["replay", "--log", log, "--manifest", manifest]) == 0


def test_simulate_download_that_rounds_to_no_time_ends_partial(workspace, capsys):
    sizes = ((1e20, 1e20),) + ((1.0, 2.0),) * 4  # chunk 2 lands in no time at a 3e16 s clock
    save_manifest(make_manifest(chunks=5, rates=(235, 375), sizes=sizes), str(workspace / "huge.json"))
    code = main(["simulate", "--manifest", str(workspace / "huge.json"),
                 "--trace", str(workspace / "trace_0.csv")])
    assert code == 1
    captured = capsys.readouterr()
    last = json.loads(captured.out.splitlines()[-1])
    assert last["event"] == "session_truncated" and last["chunk"] == 2
    assert last["diagnostic"].endswith("in less than the clock's rounding step")
    assert captured.err.startswith("PARTIAL")


@pytest.mark.parametrize("loop", [[], ["--loop"]], ids=["once", "looping"])
def test_simulate_on_a_rate_too_fast_for_the_clock_ends_partial(workspace, capsys, loop):
    # At 1e18 kbps the bundled manifest's chunk 104 downloads in under half a float step of its 296 s fetch.
    trace, log = str(workspace / "fast.csv"), str(workspace / "fast.jsonl")
    manifest = os.path.join(SCENARIO_DIR, "manifest.json")
    save_trace(BandwidthTrace(((0.0, 1e18), (600.0, 1e18))), trace)
    assert main(["validate", "--trace", trace]) == 0
    assert main(["simulate", "--manifest", manifest, "--trace", trace, "--log", log, *loop]) == 1
    assert SessionEventLog.read(log).records[-1] == {
        "event": "session_truncated", "time_s": 296.0, "chunk": 104,
        "diagnostic": "trace delivers 23200.0 kilobits from 296.0s at its 1e+18 kbps rate there "
                      "in less than the clock's rounding step"}
    assert main(["replay", "--log", log, "--manifest", manifest]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_on_a_rate_too_fast_for_the_estimate_ends_partial(workspace, capsys):
    # At 1e308 kbps two throughputs already total more than the largest float.
    trace, log = str(workspace / "fast.csv"), str(workspace / "fast.jsonl")
    manifest = os.path.join(SCENARIO_DIR, "manifest.json")
    save_trace(BandwidthTrace(((0.0, 1e308), (600.0, 1e308))), trace)
    assert main(["validate", "--trace", trace]) == 0
    assert main(["simulate", "--manifest", manifest, "--trace", trace, "--log", log]) == 1
    assert SessionEventLog.read(log).records[-1] == {
        "event": "session_truncated", "time_s": 1.88e-305, "chunk": 3,
        "diagnostic": "the mean throughput of chunks 1-2 is inf kbps, after chunk 2 downloaded at 1e+308 kbps"}
    assert main(["replay", "--log", log, "--manifest", manifest]) == 0
    assert capsys.readouterr().err.startswith("PARTIAL")


def test_simulate_rejects_bad_policy_params(workspace, capsys):
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--policy-params", "{nope"])
    assert code == 2
    assert "--policy-params" in capsys.readouterr().err


@pytest.mark.parametrize("params", ["null", "[]"])
def test_simulate_rejects_non_object_policy_params(workspace, capsys, params):
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--policy-params", params])
    assert code == 2
    assert f"policy_params must be an object, got {json.loads(params)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["simulate", "run"])
def test_an_unknown_policy_parameter_is_named_alike_on_every_interpreter(workspace, capsys, entry):
    # The text came from Python's TypeError, which 3.13 ends with ". Did you mean 'window'?".
    spec = workspace / "spec.json"
    rewrite_spec(workspace, policy_params={"festive": {"windw": 3}})
    argv = {"simulate": ["simulate", "--manifest", str(workspace / "manifest.json"), "--trace",
                         str(workspace / "trace_0.csv"), "--policy", "festive", "--policy-params", '{"windw": 3}'],
            "run": ["run", "--spec", str(spec)]}[entry]
    where = f"{spec}: " if entry == "run" else ""
    assert main(argv) == 2
    text = "bad parameters for policy 'festive': unknown parameter 'windw'"
    assert capsys.readouterr() == ("", f"error: {where}{text}\n")
    assert not (workspace / "out").exists()


def test_simulate_rejects_a_policy_parameter_of_the_wrong_type(workspace, capsys):
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"), "--trace",
                 str(workspace / "trace_0.csv"), "--policy", "festive", "--policy-params", '{"window": true}'])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: bad parameters for policy 'festive': window must be an integer, got True" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ['{"up_ratio": 1e400}', '{"up_ratio": Infinity}'],
                         ids=["overflowing-literal", "infinity-token"])
def test_simulate_rejects_an_infinite_policy_parameter(workspace, capsys, text):
    # The log header would have to carry an Infinity token.
    log_path = workspace / "session.jsonl"
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"), "--trace",
                 str(workspace / "trace_0.csv"), "--policy", "osmf", "--policy-params", text,
                 "--log", str(log_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: bad parameters for policy 'osmf': up_ratio must be a finite number, got inf" in captured.err
    assert captured.out == ""
    assert not log_path.exists()


def test_simulate_rejects_bad_buffer_geometry(workspace, capsys):
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--bs", "10", "--lc", "12"])
    assert code == 2
    assert "critical threshold" in capsys.readouterr().err


def test_simulate_rejects_infinite_capacity(workspace, capsys):
    # Infinity is no JSON token, and the log header would have to carry it.
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--bs", "inf"])
    assert code == 2
    captured = capsys.readouterr()
    assert "buffer_capacity_s must be a finite number, got inf" in captured.err
    assert captured.out == ""


def test_simulate_policy_params_reach_the_session(workspace, capsys):
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "trace_0.csv"), "--policy", "bba",
                 "--policy-params", '{"reservoir_frac": 0.2}'])
    assert code == 0
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    assert header["policy"] == "bba"
    assert header["policy_params"] == {"reservoir_frac": 0.2}


# --- replay ---


def test_replay_verifies_clean_log(workspace, capsys):
    log_path = workspace / "session.jsonl"
    main(["simulate", "--manifest", str(workspace / "manifest.json"),
          "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)])
    capsys.readouterr()
    code = main(["replay", "--log", str(log_path),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 0
    assert "verified" in capsys.readouterr().out


def test_replay_garbage_log_exits_two(workspace, capsys):
    garbage = workspace / "garbage.jsonl"
    garbage.write_text("hello\n")
    code = main(["replay", "--log", str(garbage),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_replay_missing_log_exits_two(workspace, capsys):
    code = main(["replay", "--log", str(workspace / "absent.jsonl"),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stored_log(tmp_path_factory):
    """The manifest path and log text of `workspace`'s session on trace_0.csv, simulated once."""
    manifest = make_manifest(chunks=8)
    path = str(tmp_path_factory.mktemp("stored") / "manifest.json")
    save_manifest(manifest, path)
    return path, run_session(manifest, constant_trace(3000.0), SessionConfig())[0].to_jsonl()


# Each row replaces every `old` in the stored log's text with `new`. Exit 2 (bad input) must print
# `error: <line>` and nothing on stdout; exit 1 (a mismatch) must print `<line>` first after MISMATCH.
@pytest.mark.parametrize("old, new, code, line", [
    pytest.param('"buffer_s": 15.06,', '"buffer_s": 16.06,', 1,
                 "record 12 (fetch_issued): buffer_s logged 16.06, replay 15.06", id="tampered-buffer"),
    pytest.param('"level": 1,', '"level": true,', 1, "record 2 (fetch_issued): level logged True, replay 1",
                 id="retyped-level"),
    pytest.param('"policy": "sba", ', "", 2, "record 1 (session_start) lacks policy", id="header-without-policy"),
    pytest.param('"buffer_capacity_s": 120.0, ', "", 2, "record 1 (session_start) lacks buffer_capacity_s",
                 id="header-without-buffer_capacity_s"),
    pytest.param('"critical_threshold_s": 12.0, ', "", 2, "record 1 (session_start) lacks critical_threshold_s",
                 id="header-without-critical_threshold_s"),
    pytest.param('"loop_trace": false, ', "", 2, "record 1 (session_start) lacks loop_trace",
                 id="header-without-loop_trace"),
    pytest.param('"policy_params": {}', '"policy_params": {"upgrade_only": "no"}', 2,
                 "bad parameters for policy 'sba': upgrade_only must be true or false, got 'no'",
                 id="string-sba-upgrade-only"),
    pytest.param('"policy": "sba", "policy_params": {}', '"policy": "osmf", "policy_params": {"up_ratio": Infinity}',
                 2, "bad parameters for policy 'osmf': up_ratio must be a finite number, got inf",
                 id="infinite-osmf-up-ratio"),
    pytest.param('"policy_params": {}', '"policy_params": {"upgrade_onyl": true}', 2,
                 "bad parameters for policy 'sba': unknown parameter 'upgrade_onyl'", id="misspelled-sba-parameter"),
    pytest.param('"loop_trace": false', '"loop_trace": "yes"', 2,
                 "record 1 (session_start): loop_trace must be true or false, got 'yes'", id="string-loop-trace"),
    pytest.param('"chunk_count": 8,', '"chunk_count": true,', 2,
                 "record 1 (session_start): chunk_count must be an integer, got True", id="true-chunk-count"),
    pytest.param('"chunk_count": 8,', '"chunk_count": 150.5,', 2,
                 "record 1 (session_start): chunk_count must be an integer, got 150.5", id="fractional-chunk-count"),
    pytest.param('"chunk_count": 8,', f'"chunk_count": {10**400},', 2,
                 f"record 1 (session_start): chunk_count {10**400} is not the manifest's 8", id="huge-int-in-header"),
    # A header whose grid is not the manifest's: the log was written against another manifest.
    pytest.param('"chunk_count": 8,', '"chunk_count": 5,', 2,
                 "record 1 (session_start): chunk_count 5 is not the manifest's 8", id="another-chunk-count"),
    pytest.param('"chunk_duration_s": 4.0,', '"chunk_duration_s": 2.0,', 2,
                 "record 1 (session_start): chunk_duration_s 2.0 is not the manifest's 4.0",
                 id="another-chunk-duration"),
    pytest.param('"chunk_duration_s": 4.0,', '"chunk_duration_s": 4,', 2,
                 "record 1 (session_start): chunk_duration_s 4 is not the manifest's 4.0", id="int-chunk-duration"),
    pytest.param('"ladder_kbps": [235.0', '"ladder_kbps": [100.0', 2,
                 f"record 1 (session_start): ladder_kbps {[100.0, *NETFLIX_LADDER_KBPS[1:]]} "
                 f"is not the manifest's {list(NETFLIX_LADDER_KBPS)}", id="another-ladder"),
    pytest.param('"ladder_kbps": [235.0', '"ladder_kbps": ["x"', 2,
                 "record 1 (session_start): ladder_kbps[1] must be a finite number, got 'x'", id="string-rung"),
    pytest.param('"chunk": 3, "throughput_kbps"', '"throughput_kbps"', 1,
                 "log is not replayable: record 9 (download_complete) lacks chunk", id="completion-without-chunk"),
    pytest.param('"download_complete", "time_s": 0.94, ', '"download_complete", ', 1,
                 "log is not replayable: record 9 (download_complete) lacks time_s", id="completion-without-time"),
    pytest.param('"download_complete", "time_s": 0.31333333333333335,', '"download_complete", "time_s": true,', 1,
                 "log is not replayable: record 3 (download_complete): time_s must be a finite number, got True",
                 id="bool-completion-time"),
    pytest.param('"download_complete", "time_s": 0.94,', f'"download_complete", "time_s": {10**400},', 1,
                 "log is not replayable: record 9 (download_complete): "
                 "time_s must be a finite number, got an integer too large for a float", id="huge-int-completion-time"),
    pytest.param('"time_s": 0.94, "chunk": 3,', '"time_s": 0.94, "chunk": 9,', 1,
                 "log is not replayable: record 9 (download_complete): chunk logged 9, replay 3",
                 id="completion-for-another-chunk"),
    pytest.param('"download_complete", "time_s": 0.94,', '"download_complete", "time_s": 0.6266666666666667,', 1,
                 "log is not replayable: record 9 (download_complete): "
                 "time_s 0.6266666666666667 precedes its fetch at 0.6266666666666667", id="completion-at-its-fetch"),
    pytest.param('"chunk": 1, "throughput_kbps"', '"chunk": true, "throughput_kbps"', 1,
                 "log is not replayable: record 3 (download_complete): chunk must be an integer, got True",
                 id="bool-completion-chunk"),
    pytest.param('"chunk": 1, "throughput_kbps": 3000.0}', '"chunk": 1, "throughput_kbps": "x"}', 1,
                 "log is not replayable: record 3 (download_complete): "
                 "throughput_kbps must be a finite number, got 'x'",
                 id="string-completion-throughput"),
    pytest.param('"download_complete", "time_s": 0.94,', '"download_complete", "time_s": 1,', 1,
                 "record 9 (download_complete): time_s logged 1, replay 1.0", id="int-completion-time"),
    # JSON Lines breaks lines at "\n" alone, so a raw U+2028 inside a string is part of the value.
    pytest.param('"reason": "startup"', '"reason": "start\u2028up"', 1,
                 "record 2 (fetch_issued): reason logged 'start\\u2028up', replay 'startup'", id="raw-line-separator"),
])
def test_replay_on_an_edited_log(stored_log, tmp_path, capsys, old, new, code, line):
    manifest, text = stored_log
    assert old in text
    log = tmp_path / "edited.jsonl"
    log.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["replay", "--log", str(log), "--manifest", manifest]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert (captured.out, captured.err) == ("", f"error: {line}\n")
    else:
        assert captured.out.splitlines()[:2] == [f"{log}: MISMATCH", f"  {line}"]
        assert captured.err == ""


# --- every JSON input: a parse error exits 2 naming the file or log line ---

# Nesting far past the JSON decoder's recursion limit on every supported interpreter.
TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _unparsable(workspace, entry, text):
    """The command line that hands `text` to `entry`, and the source its error must name."""
    path = workspace / "input.json"
    path.write_text(text)
    manifest, trace = str(workspace / "manifest.json"), str(workspace / "trace_0.csv")
    return {
        "validate": (["validate", "--manifest", str(path)], str(path)),
        "run": (["run", "--spec", str(path)], str(path)),
        "replay": (["replay", "--log", str(path), "--manifest", manifest], "line 1"),
        "simulate": (["simulate", "--manifest", manifest, "--trace", trace, "--policy-params", text],
                     "--policy-params"),
    }[entry]


@pytest.mark.parametrize("entry, text", [
    ("validate", TOO_DEEP),
    ("run", TOO_DEEP),
    ("replay", TOO_DEEP + "\n"),
    ("simulate", TOO_DEEP),
    ("replay", '{"event": "session_start", "n": ' + "9" * 5000 + "}\n"),
], ids=["nested-manifest", "nested-spec", "nested-log", "nested-policy-params", "5000-digit-log-integer"])
def test_unparsable_json_exits_two_naming_its_source(workspace, capsys, entry, text):
    argv, source = _unparsable(workspace, entry, text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{source}: not valid JSON: " in captured.out + captured.err
    assert "Traceback" not in captured.err
    assert not (workspace / "out").exists()


# --- run ---


def test_run_batch_from_spec(workspace, capsys):
    code = main(["run", "--spec", str(workspace / "spec.json")])
    assert code == 0
    assert "4 sessions, 2 aggregate rows" in capsys.readouterr().out
    assert (workspace / "out" / "aggregates.csv").is_file()


def test_run_with_a_loop_whose_count_overflows_keeps_the_other_traces(workspace, capsys):
    traces = workspace / "looped"
    traces.mkdir()
    shutil.copy(os.path.join(SCENARIO_DIR, "traces", "trace_00.csv"), traces / "trace_00.csv")
    save_trace(BandwidthTrace(((0.0, 1e-320), (10.0, 1e-320))), str(traces / "tiny.csv"))
    (workspace / "spec.json").write_text(json.dumps({
        "manifest": "manifest.json", "traces": ["looped/*.csv"], "policies": ["sba"],
        "scenarios": [[120, 12]], "output_dir": "out", "loop_traces": True, "jobs": 1}))
    code = main(["run", "--spec", str(workspace / "spec.json")])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    out = workspace / "out"
    (failure,) = json.loads((out / "failures.json").read_text())
    assert failure["kind"] == "truncated" and failure["trace"].endswith("tiny.csv")
    assert "its 10.0s period carries 1e-319 kilobits" in failure["detail"]
    rows = (out / "sessions.csv").read_text().splitlines()
    assert [row.split(",")[0] + "," + row.split(",")[-1] for row in rows[1:]] == ["tiny,1", "trace_00,0"]
    assert (out / "sessions" / "sba_bs120_lc12_trace_00.jsonl").is_file()
    assert len((out / "aggregates.csv").read_text().splitlines()) == 2


def test_run_with_a_loop_that_carries_no_volume_keeps_the_other_traces(workspace, capsys):
    traces = workspace / "looped"
    traces.mkdir()
    for name in ("trace_00.csv", "trace_01.csv"):
        shutil.copy(os.path.join(SCENARIO_DIR, "traces", name), traces / name)
    save_trace(BandwidthTrace(((0.0, 5e-324), (0.5, 0.0))), str(traces / "empty.csv"))
    (workspace / "spec.json").write_text(json.dumps({
        "manifest": "manifest.json", "traces": ["looped/*.csv"], "policies": ["sba", "bba"],
        "scenarios": [[120, 12], [60, 12]], "output_dir": "out", "loop_traces": True, "jobs": 1}))
    code = main(["run", "--spec", str(workspace / "spec.json")])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    out = workspace / "out"
    detail = "a looping trace needs a positive, finite volume per period: its 0.5s period carries 0.0 kilobits"
    assert sorted((f["policy"], f["BS"], os.path.basename(f["trace"]), f["kind"], f["detail"])
                  for f in json.loads((out / "failures.json").read_text())) == [
        (policy, bs, "empty.csv", "error", detail) for policy in ("bba", "sba") for bs in (60, 120)]
    assert sorted(os.listdir(out / "sessions")) == sorted(
        f"{policy}_bs{bs}_lc12_{label}.jsonl" for policy in ("sba", "bba") for bs in (120, 60)
        for label in ("trace_00", "trace_01"))


def test_run_output_dir_flag_wins(workspace, capsys):
    code = main(["run", "--spec", str(workspace / "spec.json"),
                 "--output-dir", str(workspace / "from_flag")])
    assert code == 0
    assert (workspace / "from_flag" / "aggregates.csv").is_file()
    assert not (workspace / "out").exists()  # the spec's output_dir


def test_run_bad_spec_exits_two(workspace, capsys):
    (workspace / "spec.json").write_text(json.dumps({"traces": ["trace_*.csv"]}))
    code = main(["run", "--spec", str(workspace / "spec.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [True, False])
@pytest.mark.parametrize("source", [{"manifest": "manifest.json"},
                                    {"synthesize": {"chunk_count": 4, "chunk_duration_s": 4.0}}])
def test_run_rejects_a_bool_seed_naming_the_seed(workspace, capsys, source, seed):
    spec = {"traces": ["trace_*.csv"], "policies": ["sba"], "scenarios": [[120, 12]],
            "output_dir": "out", "seed": seed, **source}
    (workspace / "spec.json").write_text(json.dumps(spec))
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 2
    assert f"spec.json: seed must be an integer, got {seed!r}" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_run_rejects_a_trace_glob_that_matches_nothing(workspace, capsys):
    missing = str(workspace / "nosuchdir" / "*.csv")
    rewrite_spec(workspace, traces=[str(workspace / "trace_0.csv"), missing])
    code = main(["run", "--spec", str(workspace / "spec.json")])
    assert code == 2
    assert f"no trace files matched {missing!r}" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_run_matches_traces_below_a_directory_named_like_a_glob(tmp_path, capsys):
    # `exp[1]` as a glob matches `exp1`: its traces must never stand in.
    exp, decoy = tmp_path / "exp[1]", tmp_path / "exp1"
    for folder, name in ((exp, "trace_0.csv"), (decoy, "trace_9.csv")):
        (folder / "traces").mkdir(parents=True)
        save_trace(constant_trace(3000.0), str(folder / "traces" / name))
    save_manifest(make_manifest(chunks=8), str(exp / "manifest.json"))
    (exp / "spec.json").write_text(json.dumps({
        "manifest": "manifest.json", "traces": "traces/trace_*.csv", "policies": ["sba"],
        "scenarios": [[120, 12]], "output_dir": "out", "jobs": 1,
    }))
    assert main(["run", "--spec", str(exp / "spec.json")]) == 0
    assert [p.name for p in (exp / "out" / "sessions").iterdir()] == ["sba_bs120_lc12_trace_0.jsonl"]
    echo = json.loads((exp / "out" / "run_config.json").read_text())
    assert echo["traces"] == [str(exp / "traces" / "trace_0.csv")]


def files_under(root):
    """Every file below `root` by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def siblings(out):
    """The staging and set-aside directories a batch may leave beside `out`."""
    return sorted(p.name for p in out.parent.glob(f"{out.name}.*"))


def test_rerun_with_fewer_policies_leaves_no_stale_logs(workspace, capsys):
    run = ["run", "--spec", str(workspace / "spec.json"), "--output-dir", str(workspace / "res")]
    assert main(run) == 0
    (workspace / "res" / "notes.txt").write_text("mine")
    (workspace / "res" / "sessions" / "notes.txt").write_text("mine")
    rewrite_spec(workspace, policies=["sba"])
    assert main(run) == 0
    sessions = sorted(p.name for p in (workspace / "res" / "sessions").iterdir())
    assert sessions == ["sba_bs120_lc12_trace_0.jsonl", "sba_bs120_lc12_trace_1.jsonl"]
    # A rerun replaces the whole directory: a file put into a batch goes with it.
    assert not (workspace / "res" / "notes.txt").exists()
    assert siblings(workspace / "res") == []


def test_clean_rerun_leaves_no_stale_failures(workspace, capsys):
    save_trace(constant_trace(100.0, until_s=10.0), str(workspace / "starved.csv"))
    run = ["run", "--spec", str(workspace / "spec.json")]
    rewrite_spec(workspace, policies=["sba"], traces=["starved.csv"])
    assert main(run) == 1
    assert (workspace / "out" / "failures.json").is_file()
    rewrite_spec(workspace, traces=["trace_0.csv"])
    assert main(run) == 0
    assert not (workspace / "out" / "failures.json").exists()
    assert [p.name for p in (workspace / "out" / "sessions").iterdir()] == ["sba_bs120_lc12_trace_0.jsonl"]


def test_rerun_keeps_files_outside_an_earlier_batch(workspace, capsys):
    # No run_config.json: the directory is no earlier batch, so it is refused whole.
    stray = workspace / "out" / "sessions" / "bba_bs120_lc12_trace_0.jsonl"
    stray.parent.mkdir(parents=True)
    stray.write_text("mine")
    rewrite_spec(workspace, policies=["sba"])
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 2
    assert "is neither empty nor an earlier batch" in capsys.readouterr().err
    assert files_under(workspace / "out") == {"sessions/bba_bs120_lc12_trace_0.jsonl": b"mine"}
    # A synthesized manifest.json the next run reads as its manifest stays.
    rewrite_spec(workspace, manifest=None, synthesize={"chunk_count": 8, "chunk_duration_s": 4.0})
    run = ["run", "--spec", str(workspace / "spec.json"), "--output-dir", str(workspace / "fresh")]
    assert main(run) == 0
    synthesized = (workspace / "fresh" / "manifest.json").read_bytes()
    rewrite_spec(workspace, manifest="fresh/manifest.json", synthesize=None)
    assert main(run) == 0
    assert (workspace / "fresh" / "manifest.json").read_bytes() == synthesized


def test_rerun_over_an_unparsable_run_config_keeps_the_directory(workspace, capsys):
    stray = workspace / "out" / "sessions" / "bba_bs120_lc12_trace_0.jsonl"
    stray.parent.mkdir(parents=True)
    stray.write_text("mine")
    (workspace / "out" / "run_config.json").write_text(TOO_DEEP)
    before = files_under(workspace / "out")
    rewrite_spec(workspace, policies=["sba"])
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 2
    assert "is neither empty nor an earlier batch" in capsys.readouterr().err
    assert files_under(workspace / "out") == before


def test_interrupted_rerun_leaves_the_earlier_batch_whole(workspace, monkeypatch, capsys):
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 0
    before = files_under(workspace / "out")
    calls = []
    run_one = batch._run_one

    def interrupted(task):
        calls.append(task)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return run_one(task)

    monkeypatch.setattr(batch, "_run_one", interrupted)
    rewrite_spec(workspace, scenarios=[[240, 24]])
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--spec", str(workspace / "spec.json")])
    assert len(calls) == 3
    assert files_under(workspace / "out") == before
    assert siblings(workspace / "out") == []


@pytest.mark.parametrize("output_dir", [".", "traces"])
def test_run_refuses_an_output_directory_holding_its_inputs(workspace, capsys, output_dir):
    # An earlier batch's run_config.json, so only the held input makes it no batch to replace.
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 0
    (workspace / "traces").mkdir()
    save_trace(constant_trace(3000.0), str(workspace / "traces" / "trace_0.csv"))
    (workspace / "traces" / "run_config.json").write_bytes((workspace / "out" / "run_config.json").read_bytes())
    (workspace / "run_config.json").write_bytes((workspace / "out" / "run_config.json").read_bytes())
    rewrite_spec(workspace, traces=["traces/trace_0.csv"])
    before = files_under(workspace)
    assert main(["run", "--spec", str(workspace / "spec.json"),
                 "--output-dir", str(workspace / output_dir)]) == 2
    assert "which the batch would replace" in capsys.readouterr().err
    assert files_under(workspace) == before
    assert siblings(workspace / output_dir) == []


def test_run_replaces_a_symlinked_output_behind_its_link(workspace, capsys):
    (workspace / "real").mkdir()
    (workspace / "link").symlink_to(workspace / "real", target_is_directory=True)
    run = ["run", "--spec", str(workspace / "spec.json"), "--output-dir", str(workspace / "link")]
    assert main(run) == 0
    (workspace / "real" / "notes.txt").write_text("mine")
    rewrite_spec(workspace, policies=["sba"])
    assert main(run) == 0
    assert (workspace / "link").is_symlink()
    assert not (workspace / "real" / "notes.txt").exists()
    assert sorted(p.name for p in (workspace / "real" / "sessions").iterdir()) == [
        "sba_bs120_lc12_trace_0.jsonl", "sba_bs120_lc12_trace_1.jsonl"]
    assert siblings(workspace / "real") == []


def test_run_removes_a_set_aside_batch_left_by_a_crash(workspace, capsys):
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 0
    # As a run killed between its two renames leaves it: the old batch set aside.
    (workspace / "out").rename(workspace / "out.old-4242")
    assert (workspace / "out.old-4242" / "run_config.json").is_file()
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 0
    assert siblings(workspace / "out") == []
    assert (workspace / "out" / "run_config.json").is_file()


@pytest.mark.skipif(os.name != "posix", reason="a staging directory's pid is probed on POSIX only")
def test_run_removes_a_staging_directory_whose_run_is_gone(workspace, capsys):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait(timeout=60) == 0
    # As a run killed outright leaves it, and one a live process (the test runner's parent) holds.
    for pid in (child.pid, os.getppid()):
        (workspace / f"out.partial-{pid}" / "sessions").mkdir(parents=True)
        (workspace / f"out.partial-{pid}" / "sessions" / "sba_bs120_lc12_trace_0.jsonl").write_text("half")
    before = siblings(workspace / "out")
    # Refused after the output directory passed its check: nothing is deleted.
    rewrite_spec(workspace, policies=["sba", "sba"])
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 2
    assert "two sessions would write" in capsys.readouterr().err
    assert siblings(workspace / "out") == before
    rewrite_spec(workspace, policies=["sba"])
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 0
    assert siblings(workspace / "out") == [f"out.partial-{os.getppid()}"]


def test_run_keeps_a_sibling_whose_staging_suffix_is_no_pid(workspace, capsys):
    (workspace / "out.partial-12x").mkdir()
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 0
    assert siblings(workspace / "out") == ["out.partial-12x"]


def test_run_with_failures_exits_one(workspace, capsys):
    save_trace(constant_trace(100.0, until_s=10.0), str(workspace / "starved.csv"))
    rewrite_spec(workspace, traces=["starved.csv"], policies=["sba"])
    code = main(["run", "--spec", str(workspace / "spec.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert "failures recorded" in captured.err
    assert (workspace / "out" / "failures.json").is_file()


# --- run spec validation: exit 2 before any session runs or output exists ---


def rewrite_spec(workspace, **fields):
    doc = json.loads((workspace / "spec.json").read_text())
    doc.update(fields)
    (workspace / "spec.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("fields, message", [
    ({"policies": ["sba", "rate_hog"]}, "unknown policy 'rate_hog'"),
    ({"policy_params": {"bba": {"bogus": 1}}}, "bad parameters for policy 'bba'"),
    ({"policy_params": {"rate_hog": {}}}, "policy_params names unknown policies: rate_hog"),
    ({"policy_params": {"sba": 5}}, "parameters for policy 'sba' must be an object, got 5"),
    ({"scenarios": [[120, 12], [12, 12]]}, "critical threshold < buffer capacity"),
    ({"jobs": "2"}, "jobs must be an integer, got '2'"),
    ({"scenarios": [[None, 12]]}, "scenarios[1][1] must be a finite number, got None"),
    ({"scenarios": [[4, 1]]}, "buffer capacity 4s must exceed the manifest's 4s chunk duration"),
    ({"scenarios": [[float("inf"), 12]]}, "scenarios[1][1] must be a finite number, got inf"),
    ({"seed": None}, "seed must be an integer, got None"),
    ({"traces": 5}, "traces must be an array, got 5"),
    ({"traces": ["trace_*.csv", 5]}, "traces[2] must be a string, got 5"),
    ({"traces": ["trace_*.csv", "nosuchdir/*.csv"]}, "no trace files matched 'nosuchdir/*.csv'"),
    ({"manifest": 7}, "manifest must be a string, got 7"),
    ({"manifest": None, "synthesize": [1]}, "synthesize must be an object, got [1]"),
    ({"policies": "sba"}, "policies must be an array, got 'sba'"),
    ({"scenarios": 5}, "scenarios must be an array, got 5"),
    ({"output_dir": 5}, "output_dir must be a string, got 5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"loop_traces": "false"}, "loop_traces must be true or false, got 'false'"),
    ({"manifest": None, "synthesize": {"chunk_count": None, "chunk_duration_s": 4}},
     "bad synthesize fields: chunk_count must be an integer, got None"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "ladder_kbps": 5}},
     "bad synthesize fields: ladder_kbps must be an array, got 5"),
    ({"manifest": None, "synthesize": {"chunk_count": float("inf"), "chunk_duration_s": 4}},
     "bad synthesize fields: chunk_count must be an integer, got inf"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "jitter_seed": [1]}},
     "bad synthesize fields: jitter_seed must be an integer, got [1]"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "knee_kbps": "x"}},
     "bad synthesize fields: knee_kbps must be a finite number, got 'x'"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "ladder_kbps": "58"}},
     "bad synthesize fields: ladder_kbps must be an array, got '58'"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "ladder_kbps": ["235", "375"]}},
     "bad synthesize fields: ladder_kbps[1] must be a finite number, got '235'"),
    ({"manifest": None, "synthesize": {"chunk_count": True, "chunk_duration_s": 4}},
     "bad synthesize fields: chunk_count must be an integer, got True"),
    ({"manifest": None, "synthesize": {"chunk_count": 5.7, "chunk_duration_s": 4}},
     "bad synthesize fields: chunk_count must be an integer, got 5.7"),
    ({"manifest": None, "synthesize": {"chunk_count": 9901, "chunk_duration_s": 4, "ladder_kbps": LADDER_101}},
     "synthesize would build a 9901 x 101 SSIM table, over the 1000000 cells allowed"),
    ({"scenarios": [[10**400, 12]]}, "scenarios[1][1] must be a finite number, got an integer too large for a float"),
    ({"policy_params": {"festive": {"window": 10**400}}}, "bad parameters for policy 'festive'"),
    ({"policies": [["sba"]]}, "policies[1] must be a string, got ['sba']"),
    ({"policy_params": {"sba": {"upgrade_only": "no"}}},
     "bad parameters for policy 'sba': upgrade_only must be true or false, got 'no'"),
    ({"policy_params": {"festive": {"window": True}}},
     "bad parameters for policy 'festive': window must be an integer, got True"),
    ({"policy_params": {"festive": {"window": 5.0}}},
     "bad parameters for policy 'festive': window must be an integer, got 5.0"),
    ({"policy_params": {"bba": {"cushion_frac": True}}},
     "bad parameters for policy 'bba': cushion_frac must be a finite number, got True"),
    ({"policy_params": {"osmf": {"up_ratio": True}}},
     "bad parameters for policy 'osmf': up_ratio must be a finite number, got True"),
    ({"scenarios": [["120", "12"]]}, "scenarios[1][1] must be a finite number, got '120'"),
    ({"scenarios": [[True, 12]]}, "scenarios[1][1] must be a finite number, got True"),
    ({"scenarios": []}, "spec names no scenarios"),
    ({"policy_params": {"osmf": {"up_ratio": float("inf")}}},
     "bad parameters for policy 'osmf': up_ratio must be a finite number, got inf"),
    ({"policy_params": {"bba": {"cushion_frac": float("nan")}}},
     "bad parameters for policy 'bba': cushion_frac must be a finite number, got nan"),
    ({"policy_params": {"festive": {"window": 0}}}, "bad parameters for policy 'festive': window must be >= 1, got 0"),
    ({"policy_params": {"bba": {"reservoir_frac": 0.9, "cushion_frac": 0.1}}},
     "bad parameters for policy 'bba': need 0 < reservoir_frac < cushion_frac <= 1, got 0.9, 0.1"),
    ({"policy_params": {"osmf": {"up_ratio": 0.5}}},
     "bad parameters for policy 'osmf': need 0 < down_ratio < up_ratio, got 0.9, 0.5"),
], ids=["unknown-policy", "bad-params", "params-of-unknown-policy", "number-sba-params", "lc-not-below-bs",
        "string-jobs",
        "null-capacity", "capacity-not-above-chunk", "infinite-capacity", "null-seed", "number-traces",
        "number-in-traces", "unmatched-glob", "number-manifest", "list-synthesize", "string-policies", "number-scenarios",
        "number-output-dir", "fractional-seed", "string-loop-traces",
        "null-synthesized-chunk-count", "number-synthesized-ladder", "infinite-synthesized-chunk-count",
        "list-synthesized-seed", "string-synthesized-knee", "string-synthesized-ladder",
        "strings-in-synthesized-ladder",
        "bool-synthesized-chunk-count", "fractional-synthesized-chunk-count", "synthesized-table-one-cell-over",
        "huge-int-capacity", "huge-int-festive-window", "list-in-policies", "string-sba-upgrade-only",
        "bool-festive-window", "float-festive-window", "bool-bba-cushion", "bool-osmf-up-ratio",
        "string-scenario-values", "bool-scenario-value", "no-scenarios", "infinite-osmf-up-ratio",
        "nan-bba-cushion", "zero-festive-window", "bba-reservoir-above-cushion", "osmf-up-below-down"])
def test_run_rejects_invalid_spec(workspace, capsys, fields, message):
    rewrite_spec(workspace, **fields)
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("fields, name", [
    ({"policies": ["sba", "bba", "sba"]}, "sba_bs120_lc12_trace_0.jsonl"),
    ({"scenarios": [[120, 12], [60, 6], [120, 12]]}, "sba_bs120_lc12_trace_0.jsonl"),
    ({"scenarios": [[120, 12], [120.0000001, 12]]}, "sba_bs120_lc12_trace_0.jsonl"),
    ({"traces": ["a/*.csv", "b/*.csv"]}, "sba_bs120_lc12_t.jsonl"),
], ids=["policy-twice", "scenario-twice", "scenarios-print-alike", "trace-stem-twice"])
def test_run_rejects_sessions_sharing_a_log_name(workspace, capsys, fields, name):
    for sub in ("a", "b"):
        (workspace / sub).mkdir()
        save_trace(constant_trace(3000.0), str(workspace / sub / "t.csv"))
    rewrite_spec(workspace, **fields)
    assert main(["run", "--spec", str(workspace / "spec.json")]) == 2
    assert f"two sessions would write sessions/{name}" in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("fields, flags, message", [
    ({"policies": ["sba", "rate_hog"]}, ["--jobs", "2"], "unknown policy 'rate_hog'"),
    ({"scenarios": [[120, 12], [10, 12]]}, [], "critical threshold < buffer capacity"),
    ({}, ["--jobs", "0"], "jobs must be an integer >= 1, got 0"),
    ({"scenarios": [[120, "abc"]]}, ["--jobs", "2"], "scenarios[1][2] must be a finite number, got 'abc'"),
], ids=["unknown-policy", "lc-not-below-bs", "zero-jobs", "scenario-not-a-number"])
def test_run_rejects_invalid_overrides(workspace, capsys, fields, flags, message):
    # --output-dir and --jobs override the spec, but its rules still hold and
    # neither output directory is made.
    rewrite_spec(workspace, **fields)
    assert main(["run", "--spec", str(workspace / "spec.json"),
                 "--output-dir", str(workspace / "elsewhere"), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (workspace / "out").exists()
    assert not (workspace / "elsewhere").exists()
