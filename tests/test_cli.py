import json
import math
import os
import subprocess
import sys

import pytest

from abrsim import POLICIES, SessionConfig, batch, load_manifest, load_runspec, load_trace, run_session
from abrsim.batch import RunSpecError, validate_runspec
from abrsim.cli import build_parser, main
from abrsim.manifest import save_manifest
from abrsim.simulator import SessionEventLog
from abrsim.trace import save_trace
from helpers import constant_trace, events, make_manifest

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
    with pytest.raises(RunSpecError, match="unknown policy"):
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
     "bad synthesize fields: ladder_kbps must be a list of numbers, got '100,abc'"),
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
    ({"ladder_kbps": "58"}, "ladder_kbps must be a list of numbers, got '58'"),
    ({"chunk_duration_s": "4", "ladder_kbps": ["235", "375"]}, "chunk_duration_s must be a number, got '4'"),
    ({"ssim": [["0.7", "0.8"]]}, "ssim[1][1] must be a number, got '0.7'"),
    ({"chunk_kilobits": [[10**400, 1500]]}, "chunk_kilobits[1][1] must be a number, got an integer too large for a float"),
    ({"ladder_kbps": [235, 10**400]}, "ladder_kbps[2] must be a number, got an integer too large for a float"),
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
    save_trace(constant_trace(100.0, until_s=10.0), str(workspace / "starved.csv"))
    code = main(["simulate", "--manifest", str(workspace / "manifest.json"),
                 "--trace", str(workspace / "starved.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("PARTIAL")


def test_simulate_download_that_rounds_to_no_time_exits_two(workspace, capsys):
    sizes = ((1e20, 1e20),) + ((1.0, 2.0),) * 4  # chunk 2 lands in no time at a 3e16 s clock
    save_manifest(make_manifest(chunks=5, rates=(235, 375), sizes=sizes), str(workspace / "huge.json"))
    code = main(["simulate", "--manifest", str(workspace / "huge.json"),
                 "--trace", str(workspace / "trace_0.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: chunk 2 download finishes at ")


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


def test_replay_flags_tampered_log(workspace, capsys):
    log_path = workspace / "session.jsonl"
    main(["simulate", "--manifest", str(workspace / "manifest.json"),
          "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)])
    capsys.readouterr()
    log = SessionEventLog.read(str(log_path))
    events(log, "fetch_issued")[2]["buffer_s"] += 1.0
    log.write(str(log_path))
    code = main(["replay", "--log", str(log_path),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "buffer_s" in out


def test_replay_garbage_log_exits_two(workspace, capsys):
    garbage = workspace / "garbage.jsonl"
    garbage.write_text("hello\n")
    code = main(["replay", "--log", str(garbage),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["policy", "buffer_capacity_s", "critical_threshold_s"])
def test_replay_header_missing_field_exits_two(workspace, capsys, field):
    log_path = workspace / "session.jsonl"
    main(["simulate", "--manifest", str(workspace / "manifest.json"),
          "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)])
    capsys.readouterr()
    log = SessionEventLog.read(str(log_path))
    del log.header[field]
    log.write(str(log_path))
    code = main(["replay", "--log", str(log_path),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert f"error: session_start record lacks {field}" in capsys.readouterr().err


def test_replay_header_with_a_mistyped_policy_parameter_exits_two(workspace, capsys):
    log_path = workspace / "session.jsonl"
    main(["simulate", "--manifest", str(workspace / "manifest.json"),
          "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)])
    capsys.readouterr()
    log = SessionEventLog.read(str(log_path))
    log.header["policy_params"] = {"upgrade_only": "no"}
    log.write(str(log_path))
    code = main(["replay", "--log", str(log_path),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert ("error: bad parameters for policy 'sba': upgrade_only must be true or false, got 'no'"
            in capsys.readouterr().err)


def test_replay_header_with_a_loop_trace_that_is_no_bool_exits_two(workspace, capsys):
    log_path = workspace / "session.jsonl"
    main(["simulate", "--manifest", str(workspace / "manifest.json"),
          "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)])
    capsys.readouterr()
    log = SessionEventLog.read(str(log_path))
    log.header["loop_trace"] = "yes"
    log.write(str(log_path))
    code = main(["replay", "--log", str(log_path), "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert "error: loop_trace must be true or false, got 'yes'" in capsys.readouterr().err


def test_replay_header_with_an_infinite_policy_parameter_exits_two(workspace, capsys):
    log_path = workspace / "session.jsonl"
    main(["simulate", "--manifest", str(workspace / "manifest.json"), "--trace",
          str(workspace / "trace_0.csv"), "--policy", "osmf", "--log", str(log_path)])
    capsys.readouterr()
    log = SessionEventLog.read(str(log_path))
    log.header["policy_params"] = {"up_ratio": math.inf}
    log.write(str(log_path))
    assert '"up_ratio": Infinity' in log_path.read_text()
    code = main(["replay", "--log", str(log_path),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert ("error: bad parameters for policy 'osmf': up_ratio must be a finite number, got inf"
            in capsys.readouterr().err)


def test_replay_missing_log_exits_two(workspace, capsys):
    code = main(["replay", "--log", str(workspace / "absent.jsonl"),
                 "--manifest", str(workspace / "manifest.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, index, field, value, message", [
    ("download_complete", 2, "chunk", None, "logged completion is for chunk None, engine expected 3"),
    ("download_complete", 2, "time_s", None, "logged completion time None precedes its fetch"),
    ("download_complete", 2, "time_s", 10**400, "log is not replayable: int too large to convert to float"),
    ("session_start", 0, "chunk_count", 10**400, "log is not replayable: int too large to convert to float"),
], ids=["completion-without-chunk", "completion-without-time", "huge-int-completion-time", "huge-int-in-header"])
def test_replay_flags_a_record_it_cannot_replay(workspace, capsys, kind, index, field, value, message):
    log_path = workspace / "session.jsonl"
    main(["simulate", "--manifest", str(workspace / "manifest.json"),
          "--trace", str(workspace / "trace_0.csv"), "--log", str(log_path)])
    capsys.readouterr()
    log = SessionEventLog.read(str(log_path))
    record = events(log, kind)[index]
    if value is None:
        del record[field]
    else:
        record[field] = value
    log.write(str(log_path))
    code = main(["replay", "--log", str(log_path), "--manifest", str(workspace / "manifest.json")])
    assert code == 1
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[0] == f"{log_path}: MISMATCH"
    assert out[1].startswith(f"  {message}")
    assert "Traceback" not in captured.err


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
    ({"policy_params": {"sba": 5}}, "policy_params must map policy ids to objects of parameters"),
    ({"scenarios": [[120, 12], [12, 12]]}, "critical threshold < buffer capacity"),
    ({"jobs": "2"}, "jobs must be an integer >= 1, got '2'"),
    ({"scenarios": [[None, 12]]}, "scenario values must be numbers, got [None, 12]"),
    ({"scenarios": [[4, 1]]}, "buffer capacity 4s must exceed the manifest's 4s chunk duration"),
    ({"scenarios": [[float("inf"), 12]]}, "buffer_capacity_s must be a finite number, got inf"),
    ({"seed": None}, "seed must be an integer, got None"),
    ({"traces": 5}, "traces must be a glob or a list of globs, got 5"),
    ({"traces": ["trace_*.csv", 5]}, "traces must be a glob or a list of globs, got ['trace_*.csv', 5]"),
    ({"traces": ["trace_*.csv", "nosuchdir/*.csv"]}, "no trace files matched 'nosuchdir/*.csv'"),
    ({"manifest": 7}, "manifest must be a path, got 7"),
    ({"manifest": None, "synthesize": [1]}, "synthesize must be an object, got [1]"),
    ({"policies": "sba"}, "policies must be a list of policy ids, got 'sba'"),
    ({"scenarios": 5}, "scenarios must be a list of [BS, Lc] pairs, got 5"),
    ({"output_dir": 5}, "output_dir must be a path, got 5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"loop_traces": "false"}, "loop_traces must be true or false, got 'false'"),
    ({"manifest": None, "synthesize": {"chunk_count": None, "chunk_duration_s": 4}},
     "bad synthesize fields: int() argument must be"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "ladder_kbps": 5}},
     "bad synthesize fields: 'int' object is not iterable"),
    ({"manifest": None, "synthesize": {"chunk_count": float("inf"), "chunk_duration_s": 4}},
     "bad synthesize fields: cannot convert float infinity to integer"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "jitter_seed": [1]}},
     "bad synthesize fields: jitter_seed must be an integer, got [1]"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "knee_kbps": "x"}},
     "bad synthesize fields: knee_kbps must be a number, got 'x'"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "ladder_kbps": "58"}},
     "bad synthesize fields: ladder_kbps must be a list of numbers, got '58'"),
    ({"manifest": None, "synthesize": {"chunk_count": 8, "chunk_duration_s": 4, "ladder_kbps": ["235", "375"]}},
     "bad synthesize fields: ladder_kbps must be a list of numbers, got ['235', '375']"),
    ({"manifest": None, "synthesize": {"chunk_count": True, "chunk_duration_s": 4}},
     "bad synthesize fields: chunk_count must be an integer, got True"),
    ({"manifest": None, "synthesize": {"chunk_count": 5.7, "chunk_duration_s": 4}},
     "bad synthesize fields: chunk_count must be an integer, got 5.7"),
    ({"manifest": None, "synthesize": {"chunk_count": 9901, "chunk_duration_s": 4, "ladder_kbps": LADDER_101}},
     "synthesize would build a 9901 x 101 SSIM table, over the 1000000 cells allowed"),
    ({"scenarios": [[10**400, 12]]}, "scenario values must be numbers, got [1000"),
    ({"policy_params": {"festive": {"window": 10**400}}}, "bad parameters for policy 'festive'"),
    ({"policies": [["sba"]]}, "policies must be a list of policy ids, got [['sba']]"),
    ({"policy_params": {"sba": {"upgrade_only": "no"}}},
     "bad parameters for policy 'sba': upgrade_only must be true or false, got 'no'"),
    ({"policy_params": {"festive": {"window": True}}},
     "bad parameters for policy 'festive': window must be an integer, got True"),
    ({"policy_params": {"festive": {"window": 5.0}}},
     "bad parameters for policy 'festive': window must be an integer, got 5.0"),
    ({"policy_params": {"bba": {"cushion_frac": True}}},
     "bad parameters for policy 'bba': cushion_frac must be a number, got True"),
    ({"policy_params": {"osmf": {"up_ratio": True}}},
     "bad parameters for policy 'osmf': up_ratio must be a number, got True"),
    ({"scenarios": [["120", "12"]]}, "scenario values must be numbers, got ['120', '12']"),
    ({"scenarios": [[True, 12]]}, "scenario values must be numbers, got [True, 12]"),
    ({"scenarios": []}, "spec names no scenarios"),
    ({"policy_params": {"osmf": {"up_ratio": float("inf")}}},
     "bad parameters for policy 'osmf': up_ratio must be a finite number, got inf"),
    ({"policy_params": {"bba": {"cushion_frac": float("nan")}}},
     "bad parameters for policy 'bba': cushion_frac must be a finite number, got nan"),
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
        "nan-bba-cushion"])
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
    ({"scenarios": [[120, "abc"]]}, ["--jobs", "2"], "scenario values must be numbers, got [120, 'abc']"),
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
