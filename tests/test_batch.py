import json
import os
import re
from collections import Counter
from dataclasses import replace

import pytest

from abrsim import POLICIES, batch, load_runspec, run_batch, session_metrics
from abrsim.batch import (
    RunSpec,
    RunSpecError,
    emit_comparison_table,
    manifest_from_recipe,
    resolve_manifest,
    resolve_trace_paths,
)
from abrsim.manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    SaturationProfile,
    load_manifest,
    save_manifest,
    synthesize_manifest,
)
from abrsim.metrics import AggregateReport
from abrsim.simulator import SessionEventLog
from abrsim.trace import BandwidthTrace, TraceError, load_trace, save_trace
from helpers import constant_trace, make_manifest


def write_workspace(tmp_path, *, trace_rates=(3000.0, 5000.0), chunks=8, **spec_overrides):
    save_manifest(make_manifest(chunks=chunks), str(tmp_path / "manifest.json"))
    for i, kbps in enumerate(trace_rates):
        save_trace(constant_trace(kbps), str(tmp_path / f"trace_{i}.csv"))
    doc = {
        "manifest": "manifest.json",
        "traces": ["trace_*.csv"],
        "policies": ["sba", "bba"],
        "scenarios": [[120, 12]],
        "output_dir": "out",
        "seed": 3,
    }
    doc.update(spec_overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def agg_of(policy, *, rebuf=0.0, instability=1.0, ssim=0.9, rate=1000.0,
           sessions=24, bs=120.0, lc=12.0):
    return AggregateReport(
        policy=policy, buffer_capacity_s=bs, critical_threshold_s=lc,
        loop_trace=False, session_count=sessions, rebuffering_total_s=rebuf,
        rebuffer_count=0.0, instability=instability, mean_ssim=ssim,
        mean_bitrate_kbps=rate, startup_delay_s=0.5,
    )


# --- spec loading ---


def test_load_runspec_parses_fields(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, seed=9, jobs=2, loop_traces=True))
    assert spec.manifest_path == "manifest.json"
    assert spec.trace_globs == ["trace_*.csv"]
    assert spec.policies == ["sba", "bba"]
    assert spec.scenarios == [(120.0, 12.0)]
    assert spec.seed == 9
    assert spec.jobs == 2
    assert spec.loop_traces is True
    assert spec.base_dir == str(tmp_path)


def test_load_runspec_accepts_single_trace_string(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, traces="trace_0.csv"))
    assert spec.trace_globs == ["trace_0.csv"]


def test_load_runspec_rejects_unknown_fields(tmp_path):
    path = write_workspace(tmp_path, mystery=1)
    with pytest.raises(RunSpecError, match="unknown spec fields: mystery"):
        load_runspec(path)


def test_spec_needs_exactly_one_content_source(tmp_path):
    with pytest.raises(RunSpecError, match="exactly one"):
        load_runspec(write_workspace(tmp_path, manifest=None))
    both = write_workspace(tmp_path, synthesize={"chunk_count": 4, "chunk_duration_s": 4.0})
    with pytest.raises(RunSpecError, match="exactly one"):
        load_runspec(both)


def test_spec_rejects_empty_lists(tmp_path):
    with pytest.raises(RunSpecError, match="no traces"):
        load_runspec(write_workspace(tmp_path, traces=[]))
    with pytest.raises(RunSpecError, match="no policies"):
        load_runspec(write_workspace(tmp_path, policies=[]))
    with pytest.raises(RunSpecError, match="no scenarios"):
        load_runspec(write_workspace(tmp_path, scenarios=[]))
    with pytest.raises(RunSpecError, match="no output directory"):
        load_runspec(write_workspace(tmp_path, output_dir=""))


def test_spec_rejects_malformed_scenario(tmp_path):
    with pytest.raises(RunSpecError, match=r"\[BS, Lc\] pair"):
        load_runspec(write_workspace(tmp_path, scenarios=[[120]]))


def test_spec_rejects_bad_jobs(tmp_path):
    with pytest.raises(RunSpecError, match="jobs"):
        load_runspec(write_workspace(tmp_path, jobs=0))


@pytest.mark.parametrize("name", ["seed", "jobs"])
def test_spec_rejects_a_bool_for_an_integer_field(tmp_path, name):
    with pytest.raises(RunSpecError, match=f"spec.json: {name} must be an integer.*, got True$"):
        load_runspec(write_workspace(tmp_path, **{name: True}))


def test_load_runspec_io_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(RunSpecError, match="cannot read"):
        load_runspec(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(RunSpecError, match="not valid JSON"):
        load_runspec(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(RunSpecError, match="JSON object"):
        load_runspec(str(arr))


def test_load_runspec_names_a_spec_that_is_not_utf8(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"policies": ["\xff"]}')
    with pytest.raises(RunSpecError, match=f"^{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec"):
        load_runspec(str(path))


# --- resolution ---


def test_resolve_manifest_relative_to_spec(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    spec = load_runspec(write_workspace(sub))
    manifest = resolve_manifest(spec)
    assert manifest.chunk_count == 8


def test_resolve_manifest_synthesizes_with_seed_default(tmp_path):
    path = write_workspace(
        tmp_path, manifest=None,
        synthesize={"chunk_count": 6, "chunk_duration_s": 4.0},
        seed=3,
    )
    built = resolve_manifest(load_runspec(path))
    expected = synthesize_manifest(
        BitrateLadder(tuple(NETFLIX_LADDER_KBPS)), 6, 4.0, SaturationProfile(jitter_seed=3)
    )
    assert built == expected


def test_readme_synthesize_example_runs(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    example = next(b for b in blocks if '"synthesize"' in b)
    (tmp_path / "traces").mkdir()
    for i, kbps in enumerate((3000.0, 5000.0)):
        save_trace(constant_trace(kbps), str(tmp_path / "traces" / f"trace_{i}.csv"))
    (tmp_path / "spec.json").write_text(example)
    result = run_batch(load_runspec(str(tmp_path / "spec.json")))
    assert not result.failures and len(result.session_reports) == 4
    recipe = json.loads(example)["synthesize"]
    expected = synthesize_manifest(
        BitrateLadder(tuple(recipe.pop("ladder_kbps"))), recipe.pop("chunk_count"),
        recipe.pop("chunk_duration_s"), SaturationProfile(**recipe),
    )
    assert resolve_manifest(load_runspec(str(tmp_path / "spec.json"))) == expected


def test_resolve_manifest_rejects_bad_recipe(tmp_path):
    no_count = write_workspace(tmp_path, manifest=None, synthesize={"chunk_duration_s": 4.0})
    with pytest.raises(RunSpecError, match="chunk_count"):
        resolve_manifest(load_runspec(no_count))
    bogus = write_workspace(
        tmp_path, manifest=None,
        synthesize={"chunk_count": 4, "chunk_duration_s": 4.0, "bogus": 1},
    )
    with pytest.raises(RunSpecError, match="bad synthesize fields"):
        resolve_manifest(load_runspec(bogus))


def test_recipe_bound_counts_cells_before_building_any_row(monkeypatch):
    two_rungs = {"chunk_duration_s": 4.0, "ladder_kbps": [235, 375], "knee_kbps": 300}
    monkeypatch.setattr(batch, "MAX_SYNTHESIZED_CELLS", 20)
    assert manifest_from_recipe({**two_rungs, "chunk_count": 10}).chunk_count == 10

    def no_rows(*args):
        raise AssertionError("a table over the bound was built")

    monkeypatch.setattr(batch, "synthesize_manifest", no_rows)
    with pytest.raises(RunSpecError, match="a 11 x 2 SSIM table, over the 20 cells allowed"):
        manifest_from_recipe({**two_rungs, "chunk_count": 11})


def test_resolve_trace_paths_sorted_unique(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, traces=["trace_*.csv", "trace_1.csv"]))
    paths = resolve_trace_paths(spec)
    assert [os.path.basename(p) for p in paths] == ["trace_0.csv", "trace_1.csv"]


def test_resolve_trace_paths_requires_a_match(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, traces=["absent_*.csv"]))
    with pytest.raises(RunSpecError, match="no trace files matched"):
        resolve_trace_paths(spec)


# --- batch runs ---


def test_run_batch_writes_all_artifacts(tmp_path):
    result = run_batch(load_runspec(write_workspace(tmp_path, jobs=1)))
    assert not result.failures
    out = tmp_path / "out"
    assert result.output_dir == str(out)
    for name in ("sessions.csv", "aggregates.csv", "comparison.txt", "run_config.json"):
        assert (out / name).is_file()
    for stem in ("rebuffering", "instability", "mean_ssim", "mean_bitrate"):
        assert (out / "plots" / f"{stem}.csv").is_file()
    assert not (out / "failures.json").exists()
    assert not (out / "manifest.json").exists()  # only written when synthesized

    logs = sorted(p.name for p in (out / "sessions").glob("*.jsonl"))
    assert logs == [
        "bba_bs120_lc12_trace_0.jsonl", "bba_bs120_lc12_trace_1.jsonl",
        "sba_bs120_lc12_trace_0.jsonl", "sba_bs120_lc12_trace_1.jsonl",
    ]
    assert sorted(p.name for p in (out / "sessions").iterdir()) == logs

    rows = (out / "sessions.csv").read_text().splitlines()
    assert len(rows) == 5
    assert rows[1].startswith("trace_0,sba,120,12,")
    agg_rows = (out / "aggregates.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in agg_rows[1:]] == ["sba", "bba"]
    assert "BS=120s Lc=12s loop=off sessions=2" in (out / "comparison.txt").read_text()
    assert len(result.aggregates) == 2
    assert all(a.session_count == 2 for a in result.aggregates)


def test_run_batch_synthesized_manifest_saved(tmp_path):
    path = write_workspace(
        tmp_path, manifest=None,
        synthesize={"chunk_count": 4, "chunk_duration_s": 4.0},
        policies=["sba"], jobs=1,
    )
    result = run_batch(load_runspec(path))
    assert not result.failures
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_run_batch_collects_starvation_failures(tmp_path):
    save_trace(constant_trace(100.0, until_s=10.0), str(tmp_path / "starved.csv"))
    path = write_workspace(tmp_path, traces=["starved.csv"], policies=["sba"], jobs=1)
    result = run_batch(load_runspec(path))
    assert result.failures
    kinds = {f["kind"] for f in result.failures}
    assert kinds == {"truncated", "no_complete_sessions"}
    assert result.aggregates == []
    out = tmp_path / "out"
    assert json.loads((out / "failures.json").read_text()) == result.failures
    assert (out / "comparison.txt").read_text() == "no aggregates\n"


def test_run_batch_reports_a_download_that_rounds_to_no_time(tmp_path):
    path = write_workspace(tmp_path, traces=["trace_0.csv"], policies=["sba"], jobs=1)
    sizes = ((1e20, 1e20),) + ((1.0, 2.0),) * 4  # chunk 2 lands in no time at a 3e16 s clock
    save_manifest(make_manifest(chunks=5, rates=(235, 375), sizes=sizes), str(tmp_path / "manifest.json"))
    result = run_batch(load_runspec(path))
    errors = [f for f in result.failures if f["kind"] == "error"]
    assert len(errors) == 1 and result.session_reports == []
    assert errors[0]["detail"].startswith("chunk 2 download finishes at ")


def test_run_batch_reports_bad_policy_params(tmp_path):
    # Parameters the policy rejects fail the whole spec, before any session
    # runs or any output is written, both at load and when set afterwards.
    bad = {"sba": {"bogus": True}}
    path = write_workspace(tmp_path, policies=["sba"], jobs=1, policy_params=bad)
    with pytest.raises(RunSpecError, match="bad parameters for policy 'sba'"):
        load_runspec(path)
    spec = load_runspec(write_workspace(tmp_path, policies=["sba"], jobs=1))
    spec.policy_params = bad
    with pytest.raises(RunSpecError, match="bad parameters for policy 'sba'"):
        run_batch(spec)
    assert not (tmp_path / "out").exists()


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def test_run_batch_rechecks_an_output_dir_emptied_in_code(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, jobs=1))
    spec.output_dir = ""
    before = tree(tmp_path)
    with pytest.raises(RunSpecError, match="spec names no output directory"):
        run_batch(spec)
    assert tree(tmp_path) == before


def test_run_batch_rechecks_a_second_content_source_set_in_code(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, jobs=1))
    spec.synthesize = {"chunk_count": 4, "chunk_duration_s": 4.0}
    with pytest.raises(RunSpecError, match="exactly one of `manifest` or `synthesize`"):
        run_batch(spec)
    assert not (tmp_path / "out").exists()


def test_run_batch_rechecks_scenarios_set_in_code(tmp_path):
    path = write_workspace(tmp_path, output_dir="from_file", jobs=1)
    spec = load_runspec(path)
    spec.scenarios = [(120,)]
    with pytest.raises(RunSpecError, match=re.escape("scenario must be a [BS, Lc] pair, got (120,)")):
        run_batch(spec)
    run_batch(load_runspec(path))
    spec = load_runspec(path)
    spec.scenarios = [("120", "12")]
    spec.output_dir = "from_code"
    result = run_batch(spec)
    assert not result.failures and spec.scenarios == [(120.0, 12.0)]
    assert tree(tmp_path / "from_code") == tree(tmp_path / "from_file")


def test_run_batch_rechecks_field_types_set_in_code(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, jobs=1))
    spec.seed = None
    with pytest.raises(RunSpecError, match="seed must be an integer, got None"):
        run_batch(spec)
    assert not (tmp_path / "out").exists()


def test_run_batch_passes_policy_params_through(tmp_path):
    path = write_workspace(
        tmp_path, policies=["sba"], jobs=1,
        policy_params={"sba": {"upgrade_only": True}},
    )
    result = run_batch(load_runspec(path))
    assert not result.failures
    log_path = tmp_path / "out" / "sessions" / "sba_bs120_lc12_trace_0.jsonl"
    header = SessionEventLog.read(str(log_path)).header
    assert header["policy_params"] == {"upgrade_only": True}


def test_run_batch_spec_level_errors_raise(tmp_path):
    spec = load_runspec(write_workspace(tmp_path, traces=["trace_*.csv"]))
    for f in tmp_path.glob("trace_*.csv"):
        f.unlink()
    with pytest.raises(RunSpecError, match="no trace files matched"):
        run_batch(spec)


def test_run_batch_absolute_output_dir(tmp_path):
    target = tmp_path / "elsewhere" / "results"
    path = write_workspace(tmp_path, output_dir=str(target), policies=["sba"], jobs=1)
    result = run_batch(load_runspec(path))
    assert result.output_dir == str(target)
    assert (target / "aggregates.csv").is_file()


def test_run_batch_is_deterministic(tmp_path):
    first = run_batch(load_runspec(write_workspace(tmp_path, output_dir="out1", jobs=1)))
    second = run_batch(load_runspec(write_workspace(tmp_path, output_dir="out2", jobs=1)))
    assert not first.failures and not second.failures
    compare = [
        "sessions.csv", "aggregates.csv", "comparison.txt", "run_config.json",
        os.path.join("plots", "mean_ssim.csv"),
        os.path.join("sessions", "sba_bs120_lc12_trace_0.jsonl"),
    ]
    for rel in compare:
        a = (tmp_path / "out1" / rel).read_bytes()
        b = (tmp_path / "out2" / rel).read_bytes()
        assert a == b, rel


def test_run_batch_pool_matches_serial(tmp_path):
    serial = run_batch(load_runspec(write_workspace(tmp_path, output_dir="ser", jobs=1)))
    pooled = run_batch(load_runspec(write_workspace(tmp_path, output_dir="par", jobs=2)))
    assert not serial.failures and not pooled.failures
    for rel in ("sessions.csv", "aggregates.csv", "comparison.txt"):
        assert (tmp_path / "ser" / rel).read_bytes() == (tmp_path / "par" / rel).read_bytes()


def test_session_reports_match_across_jobs_and_the_written_logs(tmp_path):
    # The in-flight tally of each session, serial and pooled, against the report
    # `session_metrics` re-derives from the log the batch wrote.
    def batch_of(out, jobs):
        return run_batch(load_runspec(write_workspace(
            tmp_path, trace_rates=(3000.0, 5000.0, 600.0), policies=sorted(POLICIES),
            scenarios=[[120, 12], [16, 8]], output_dir=out, jobs=jobs)))

    serial, pooled = batch_of("ser", 1), batch_of("par", 2)
    assert not serial.failures and len(serial.session_reports) == 2 * len(POLICIES) * 3
    assert pooled.session_reports == serial.session_reports
    manifest = load_manifest(str(tmp_path / "manifest.json"))
    for report in serial.session_reports:
        name = (f"{report.policy}_bs{report.buffer_capacity_s:g}_"
                f"lc{report.critical_threshold_s:g}_{report.trace_label}.jsonl")
        for out in ("ser", "par"):
            log = SessionEventLog.read(str(tmp_path / out / "sessions" / name))
            assert replace(session_metrics(log, manifest), trace_label=report.trace_label) == report
    assert {r.rebuffer_count > 0 for r in serial.session_reports} == {True, False}


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_batch_loads_each_trace_once(tmp_path, monkeypatch, jobs):
    calls = tmp_path / "loads.txt"

    def counting_load(path):
        with open(calls, "a", encoding="utf-8") as fh:  # appended to from pool workers too
            fh.write(path + "\n")
        return load_trace(path)

    monkeypatch.setattr(batch, "load_trace", counting_load)
    spec = load_runspec(write_workspace(
        tmp_path, trace_rates=(3000.0, 5000.0, 800.0), traces=["trace_*.csv", "trace_1.csv"],
        scenarios=[[120, 12], [60, 6]], jobs=jobs))
    result = run_batch(spec)
    assert not result.failures and len(result.session_reports) == 2 * 2 * 3
    loads = Counter(calls.read_text().splitlines())
    assert sorted(loads) == resolve_trace_paths(spec)
    assert set(loads.values()) == {1}


def test_run_batch_validates_each_trace_once(tmp_path, monkeypatch):
    # Each trace is validated when it loads and when it becomes the looping
    # variant its sessions play; the sessions reuse it as it is.
    path = write_workspace(tmp_path, loop_traces=True, scenarios=[[120, 12], [60, 6]], jobs=1)
    for i, kbps in enumerate((3000.0, 5000.0)):
        save_trace(BandwidthTrace(((0.0, kbps), (30.0, kbps))), str(tmp_path / f"trace_{i}.csv"))
    validations = []
    validate = BandwidthTrace.__post_init__

    def counting_validate(trace):
        validations.append(trace.loop)
        validate(trace)

    monkeypatch.setattr(BandwidthTrace, "__post_init__", counting_validate)
    result = run_batch(load_runspec(path))
    assert not result.failures and len(result.session_reports) == 2 * 2 * 2
    assert validations == [False, True, False, True]


def test_run_batch_keeps_the_detail_of_a_trace_that_cannot_loop(tmp_path):
    path = write_workspace(tmp_path, loop_traces=True, jobs=1)
    save_trace(BandwidthTrace(((0.0, 5000.0), (30.0, 5000.0))), str(tmp_path / "trace_1.csv"))
    result = run_batch(load_runspec(path))
    assert [(f["policy"], os.path.basename(f["trace"]), f["kind"], f["detail"]) for f in result.failures] == [
        (policy, "trace_0.csv", "error", "a looping trace needs at least 2 samples to define its period")
        for policy in ("sba", "bba")
    ]
    assert len(result.session_reports) == 2


def test_run_batch_reports_an_unloadable_trace_per_config(tmp_path):
    path = write_workspace(tmp_path, scenarios=[[120, 12], [60, 6]])
    bad = tmp_path / "trace_1.csv"
    bad.write_text("timestamp_s,bandwidth_kbps\n0,3000\n5,oops\n")
    (tmp_path / "trace_2.csv").write_bytes(b"timestamp_s,bandwidth_kbps\n0,\xff\n")
    with pytest.raises(TraceError, match=f"^{re.escape(str(tmp_path / 'trace_2.csv'))}: not UTF-8 text") as undecodable:
        load_trace(str(tmp_path / "trace_2.csv"))
    failures = {}
    for jobs in (1, 2):
        spec = load_runspec(path)
        spec.jobs, spec.output_dir = jobs, f"out{jobs}"
        result = run_batch(spec)
        assert len(result.session_reports) == 4
        failures[jobs] = (tmp_path / f"out{jobs}" / "failures.json").read_text()
    assert failures[1] == failures[2]
    rows = json.loads(failures[1])
    assert [(r["policy"], r["BS"], os.path.basename(r["trace"])) for r in rows] == [
        (policy, bs, name)
        for bs in (120.0, 60.0) for policy in ("sba", "bba") for name in ("trace_1.csv", "trace_2.csv")
    ]
    assert {r["kind"] for r in rows} == {"error"}
    assert {r["detail"] for r in rows if r["trace"].endswith("trace_1.csv")} == {
        f"{bad}:3: non-numeric sample '5,oops'"}
    assert {r["detail"] for r in rows if r["trace"].endswith("trace_2.csv")} == {
        str(undecodable.value)}
    for name in ("sessions.csv", "aggregates.csv", "comparison.txt"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


# --- comparison table ---


def test_comparison_table_empty():
    assert emit_comparison_table([]) == "no aggregates\n"


def test_comparison_table_marks_best_and_ties():
    table = emit_comparison_table([
        agg_of("sba", rebuf=0.0, instability=9.5, ssim=0.9512, rate=2490.4),
        agg_of("osmf", rebuf=0.0, instability=22.0, ssim=0.9311, rate=2600.0),
    ])
    assert "BS=120s Lc=12s loop=off sessions=24" in table
    assert table.count(" 0.000*") == 2  # rebuffering tie: both marked
    sba_line = next(l for l in table.splitlines() if l.startswith("sba"))
    osmf_line = next(l for l in table.splitlines() if l.startswith("osmf"))
    assert "9.500*" in sba_line and "0.9512*" in sba_line
    assert "2600.000*" in osmf_line and "22.042" not in osmf_line


def test_comparison_table_groups_scenarios():
    table = emit_comparison_table([
        agg_of("sba", bs=120.0), agg_of("sba", bs=240.0, sessions=7),
    ])
    assert "BS=120s Lc=12s loop=off sessions=24" in table
    assert "BS=240s Lc=12s loop=off sessions=7" in table


def test_comparison_table_mixed_session_counts():
    table = emit_comparison_table([
        agg_of("sba", sessions=3), agg_of("bba", sessions=4),
    ])
    assert "sessions=mixed" in table


# --- direct RunSpec construction ---


def test_runspec_scenarios_coerced_to_float_pairs():
    spec = RunSpec(
        trace_globs=["t.csv"], policies=["sba"], scenarios=[[120, 12], (240, 24)],
        output_dir="out", manifest_path="m.json",
    )
    assert spec.scenarios == [(120.0, 12.0), (240.0, 24.0)]


def test_runspec_takes_tuples_and_a_lone_glob_from_code():
    spec = RunSpec(
        trace_globs="t.csv", policies=("sba",), scenarios=((120, 12),),
        output_dir="out", manifest_path="m.json",
    )
    assert spec.trace_globs == ["t.csv"]
    assert spec.scenarios == [(120.0, 12.0)]
