"""Batch experiment runner: expand a run spec, simulate, emit artifacts.

A run spec (JSON) names a manifest (or a synthesis recipe), trace files by
glob, a list of policies and a list of (capacity, critical-threshold)
scenarios.  Every policy x scenario x trace triple becomes one session; its
event log is encoded and its report tallied as the engine emits each event
(`session_metrics` re-derives the same report from the stored log):

    sessions/<policy>_bs<BS>_lc<Lc>_<trace>.jsonl   event logs
    sessions.csv                                    one row per session
    aggregates.csv                                  one row per policy x scenario
    plots/<metric>.csv                              plot-ready bar-chart data
    comparison.txt                                  aligned table, best marked
    failures.json                                   only when something failed
    run_config.json                                 the spec fields that shaped the results
    manifest.json                                   a synthesized manifest

Sessions are independent, so they fan out over a process pool; results are
collected in spec order and `render_batch` renders every file but the logs,
which keeps every output byte-stable across runs.  Paths inside a spec
resolve relative to the spec file.  A batch is built beside its output
directory and swapped in whole: it replaces a missing or empty directory or
an earlier batch, and refuses any other directory.
"""

from __future__ import annotations

import glob
import json
import math
import os
import shutil
from dataclasses import dataclass, field, replace
from multiprocessing import Pool

from .abr import POLICIES, make_policy
from .manifest import (NETFLIX_LADDER_KBPS, BitrateLadder, ManifestError, SaturationProfile, VideoManifest,
                       load_manifest, parse_json, read_text, synthesize_manifest, write_text_atomically)
from .metrics import HEADLINE_METRICS, SessionReport, aggregate, aggregates_csv, sessions_csv
from .simulator import JsonlWriter, SessionConfig, check_capacity, run_session
from .trace import TraceError, load_trace


class RunSpecError(ValueError):
    """Run spec failed to parse or validate."""


# One row per spec field: JSON name -> (RunSpec attribute, accepted types, what
# it holds), in `run_config.json`'s order; code may set a tuple for a list.  A
# bool is no integer: it passes only the field whose type is bool.
_SPEC_FIELDS = {
    "manifest": ("manifest_path", (str, type(None)), "a path"),
    "synthesize": ("synthesize", (dict, type(None)), "an object"),
    "traces": ("trace_globs", (str, list, tuple), "a glob or a list of globs"),
    "policies": ("policies", (list, tuple), "a list of policy ids"),
    "scenarios": ("scenarios", (list, tuple), "a list of [BS, Lc] pairs"),
    "loop_traces": ("loop_traces", bool, "true or false"),
    "seed": ("seed", int, "an integer"),
    "policy_params": ("policy_params", dict, "an object"),
    "output_dir": ("output_dir", (str, type(None)), "a path"),
    "jobs": ("jobs", (int, type(None)), "an integer >= 1"),
}


# The largest SSIM table (chunks x ladder rungs) a recipe may ask for:
# 100,000 chunks on the default ladder.
MAX_SYNTHESIZED_CELLS = 10**6
# The JSON types of each `synthesize` field but `ladder_kbps`; a bool is no number.
_RECIPE_FIELDS = {"chunk_count": (int,), "jitter_seed": (int,), **dict.fromkeys(
    ("chunk_duration_s", "q_floor", "q_ceiling", "knee_kbps", "per_chunk_spread"), (int, float))}


@dataclass
class RunSpec:
    trace_globs: list = field(default_factory=list)
    policies: list = field(default_factory=list)
    scenarios: list = field(default_factory=list)  # (buffer_capacity_s, critical_threshold_s) pairs
    output_dir: str = ""
    manifest_path: str | None = None
    synthesize: dict | None = None
    seed: int = 0
    jobs: int | None = None
    loop_traces: bool = False
    policy_params: dict = field(default_factory=dict)
    base_dir: str = "."

    def __post_init__(self) -> None:
        validate_runspec(self)


def validate_runspec(spec: RunSpec) -> list[SessionConfig]:
    """The one check of a spec's values; returns one config per scenario x
    policy, scenario-major.  A lone trace glob becomes a list and each scenario
    a pair of floats, in place.  Runs when a spec is built and again when a
    batch starts, because code may change it.
    """
    for name, (attr, types, what) in _SPEC_FIELDS.items():
        value = getattr(spec, attr)
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise RunSpecError(f"{name} must be {what}, got {value!r}")
    if isinstance(spec.trace_globs, str):
        spec.trace_globs = [spec.trace_globs]
    for name, items in (("traces", spec.trace_globs), ("policies", spec.policies)):
        if not all(isinstance(item, str) for item in items):
            raise RunSpecError(f"{name} must be {_SPEC_FIELDS[name][2]}, got {items!r}")
    if (spec.manifest_path is None) == (spec.synthesize is None):
        raise RunSpecError("spec needs exactly one of `manifest` or `synthesize`")
    for what, value in (("traces", spec.trace_globs), ("policies", spec.policies),
                        ("scenarios", spec.scenarios), ("output directory", spec.output_dir)):
        if not value:
            raise RunSpecError(f"spec names no {what}")
    scenarios = []
    for pair in spec.scenarios:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise RunSpecError(f"scenario must be a [BS, Lc] pair, got {pair!r}")
        try:  # JSON numbers only: a bool or a numeric string is none
            if not {*map(type, pair)} <= {int, float}:
                raise TypeError
            scenarios.append((float(pair[0]), float(pair[1])))
        except (TypeError, OverflowError):
            raise RunSpecError(f"scenario values must be numbers, got {pair!r}") from None
    spec.scenarios = scenarios
    if spec.jobs is not None and spec.jobs < 1:
        raise RunSpecError(f"jobs must be an integer >= 1, got {spec.jobs!r}")
    params = spec.policy_params
    if not all(isinstance(p, dict) for p in params.values()):
        raise RunSpecError("policy_params must map policy ids to objects of parameters")
    stray = sorted(set(params) - set(POLICIES))
    if stray:
        raise RunSpecError(f"policy_params names unknown policies: {', '.join(stray)}")
    try:
        for policy, kwargs in params.items():  # also the parameters of policies the spec does not run
            make_policy(policy, kwargs)
        return [
            SessionConfig(policy=policy, buffer_capacity_s=bs, critical_threshold_s=lc,
                          loop_trace=spec.loop_traces, policy_params=params.get(policy, {}))
            for bs, lc in spec.scenarios
            for policy in spec.policies
        ]
    except ValueError as exc:
        raise RunSpecError(str(exc)) from None


def load_runspec(path: str) -> RunSpec:
    doc = parse_json(read_text(path, RunSpecError, "spec"), RunSpecError, path)
    if not isinstance(doc, dict):
        raise RunSpecError(f"{path}: spec must be a JSON object")
    unknown = set(doc) - set(_SPEC_FIELDS)
    if unknown:
        raise RunSpecError(f"{path}: unknown spec fields: {', '.join(sorted(unknown))}")
    try:
        return RunSpec(**{_SPEC_FIELDS[name][0]: value for name, value in doc.items()},
                       base_dir=os.path.dirname(os.path.abspath(path)) or ".")
    except RunSpecError as exc:
        raise RunSpecError(f"{path}: {exc}") from exc


def resolve_manifest(spec: RunSpec) -> VideoManifest:
    if spec.manifest_path is not None:
        return load_manifest(os.path.join(spec.base_dir, spec.manifest_path))
    return manifest_from_recipe({"jitter_seed": spec.seed, **spec.synthesize})


def manifest_from_recipe(recipe: dict) -> VideoManifest:
    """The manifest a `synthesize` recipe (a spec's, or `synth-manifest --recipe`) describes.

    Every field's JSON type and the size of the SSIM table are checked before
    any row of it is built.
    """
    fields = dict(recipe)
    ladder = fields.pop("ladder_kbps", NETFLIX_LADDER_KBPS)
    try:  # these word the errors for a ladder that is no list and a count or duration that is no number
        rates = tuple(ladder)
        chunk_count = int(fields.get("chunk_count", 0))
        chunk_duration = float(fields.get("chunk_duration_s", 0.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise RunSpecError(f"bad synthesize fields: {exc}") from exc
    if not isinstance(ladder, (list, tuple)):
        raise RunSpecError(f"bad synthesize fields: ladder_kbps must be a list of numbers, got {ladder!r}")
    try:
        ladder = BitrateLadder(rates)
    except ManifestError as exc:
        raise RunSpecError(f"bad synthesize fields: {exc}") from exc
    for name, value in fields.items():
        if name not in _RECIPE_FIELDS:
            raise RunSpecError(f"bad synthesize fields: unknown field {name!r}")
        if type(value) not in _RECIPE_FIELDS[name]:
            what = "an integer" if _RECIPE_FIELDS[name] == (int,) else "a number"
            raise RunSpecError(f"bad synthesize fields: {name} must be {what}, got {value!r}")
    if chunk_count < 1 or not 0 < chunk_duration < math.inf:
        raise RunSpecError("synthesize needs chunk_count >= 1 and chunk_duration_s > 0")
    if chunk_count * ladder.count > MAX_SYNTHESIZED_CELLS:
        raise RunSpecError(f"synthesize would build a {chunk_count} x {ladder.count} SSIM table, "
                           f"over the {MAX_SYNTHESIZED_CELLS} cells allowed")
    del fields["chunk_count"], fields["chunk_duration_s"]
    return synthesize_manifest(ladder, chunk_count, chunk_duration, SaturationProfile(**fields))


def resolve_trace_paths(spec: RunSpec) -> list[str]:
    """Sorted unique matches of the trace globs; every glob must match a file."""
    paths: set[str] = set()
    for pattern in spec.trace_globs:
        matches = glob.glob(os.path.join(glob.escape(spec.base_dir), pattern))
        if not matches:
            raise RunSpecError(f"no trace files matched {pattern!r}")
        paths.update(matches)
    return sorted(paths)


@dataclass
class BatchResult:
    output_dir: str
    session_reports: list
    aggregates: list
    failures: list


def log_name(config: SessionConfig, trace_path: str) -> str:
    """The file name, under `sessions/`, of the event log of `config`'s session on a trace file."""
    label = os.path.splitext(os.path.basename(trace_path))[0]
    return f"{config.policy}_bs{config.buffer_capacity_s:g}_lc{config.critical_threshold_s:g}_{label}.jsonl"


def _run_one(task) -> tuple[SessionReport | None, str | None]:
    manifest, config, trace, label, log_path = task
    if isinstance(trace, str):  # the trace file's load error
        return None, trace
    try:
        writer, report = run_session(manifest, trace, config, JsonlWriter())
    except ValueError as exc:  # a TraceError among them
        return None, str(exc)
    write_text_atomically(log_path, "".join(writer.lines))
    return replace(report, trace_label=label), None


def run_batch(spec: RunSpec) -> BatchResult:
    """Run every policy x scenario x trace session and write all artifacts.

    Plan, run, render, swap.  Per-session problems (unreadable trace, starved
    session) go to the failure list; spec-level ones (among them two sessions
    sharing a log name, or an output directory `_check_replaceable` refuses)
    raise before anything is created or removed.  The batch is built in
    `<out>.partial-<pid>` and swapped in whole once complete; on POSIX, one
    whose pid no process holds is removed first.
    """
    configs = validate_runspec(spec)
    manifest = resolve_manifest(spec)
    try:
        for bs, _ in spec.scenarios:
            check_capacity(bs, manifest.chunk_duration_s)
    except ValueError as exc:
        raise RunSpecError(str(exc)) from None
    trace_paths = resolve_trace_paths(spec)
    # Each trace file is parsed and validated once, in the spec's loop mode; a
    # file that fails to load, or cannot loop, fails every session that would
    # play it, with the same text.
    traces = {}
    for trace_path in trace_paths:
        try:
            trace = load_trace(trace_path)
            traces[trace_path] = replace(trace, loop=True) if spec.loop_traces else trace
        except TraceError as exc:
            traces[trace_path] = str(exc)
    # Every spec field that shapes the results: not where they go, nor how many workers.
    echo = {name: getattr(spec, attr) for name, (attr, _, _) in _SPEC_FIELDS.items()
            if name not in ("output_dir", "jobs")}
    echo["traces"] = trace_paths
    out_dir = os.path.join(spec.base_dir, spec.output_dir)
    real_out = os.path.realpath(out_dir)  # a symlinked output directory keeps its link
    _check_replaceable(real_out, spec, trace_paths, echo)
    staging = f"{real_out}.partial-{os.getpid()}"

    tasks = []
    log_names = set()
    for config in configs:
        for trace_path in trace_paths:
            name = log_name(config, trace_path)
            if name in log_names:
                raise RunSpecError(
                    f"two sessions would write sessions/{name}: policies, scenarios "
                    f"(as printed with %g) and trace file names must be unique"
                )
            log_names.add(name)
            label = os.path.splitext(os.path.basename(trace_path))[0]
            tasks.append((manifest, config, traces[trace_path], label,
                          os.path.join(staging, "sessions", name)))

    if os.name == "posix":  # elsewhere os.kill(pid, 0) may end the process instead of probing it
        prefix = f"{real_out}.partial-"
        for stale in glob.glob(glob.escape(prefix) + "[0-9]*"):
            try:
                os.kill(int(stale[len(prefix):]), 0)
            except ProcessLookupError:  # its run is gone: killed outright, or it would have removed it
                shutil.rmtree(stale, ignore_errors=True)
            except (ValueError, OverflowError, OSError):  # not a pid, or a live run of another user
                pass
    try:
        os.makedirs(os.path.join(staging, "sessions"))
        jobs = spec.jobs if spec.jobs is not None else (os.cpu_count() or 1)
        jobs = max(1, min(jobs, len(tasks)))
        if jobs == 1:
            outcomes = [_run_one(t) for t in tasks]
        else:
            with Pool(processes=jobs) as pool:
                outcomes = pool.map(_run_one, tasks)
        reports, aggregates, failures, files = render_batch(
            configs, trace_paths, outcomes, echo, manifest if spec.synthesize is not None else None)
        for relpath, text in files.items():
            path = os.path.join(staging, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_text_atomically(path, text)
        # A manifest the spec reads from the earlier batch is carried over.
        source = spec.manifest_path and os.path.realpath(os.path.join(spec.base_dir, spec.manifest_path))
        if source and os.path.commonpath([real_out, source]) == real_out:
            kept = os.path.join(staging, os.path.relpath(source, real_out))
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            shutil.copyfile(source, kept)
        if os.path.exists(real_out):  # os.replace cannot replace a non-empty directory
            os.rename(real_out, f"{real_out}.old-{os.getpid()}")
        os.rename(staging, real_out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    for old in glob.glob(glob.escape(real_out) + ".old-[0-9]*"):  # also one a killed run left
        shutil.rmtree(old, ignore_errors=True)
    return BatchResult(out_dir, reports, aggregates, failures)


def _check_replaceable(out: str, spec: RunSpec, trace_paths: list, echo: dict) -> None:
    """Raise RunSpecError unless real path `out` holds neither the spec's directory
    nor a trace file, and is missing, empty or an earlier batch: one whose
    run_config.json parses to an object with `echo`'s keys."""
    for path in (spec.base_dir, *trace_paths):
        if os.path.commonpath([out, os.path.realpath(path)]) == out:
            raise RunSpecError(f"output directory {out} holds {path}, which the batch would replace")
    if not os.path.exists(out) or os.path.isdir(out) and not os.listdir(out):
        return
    try:
        with open(os.path.join(out, "run_config.json"), "r", encoding="utf-8") as fh:
            if json.load(fh).keys() == echo.keys():
                return
    except (OSError, ValueError, RecursionError, AttributeError):  # none, unreadable, or not an object
        pass
    raise RunSpecError(f"output directory {out} is neither empty nor an earlier batch: "
                       f"it holds no run_config.json that abrsim run wrote")


def render_batch(configs, trace_paths, outcomes, echo, manifest=None):
    """The reports, aggregates and failures, and every artifact but the logs as
    {path relative to the output directory: text}; no I/O.  `outcomes` holds
    `_run_one`'s results in task order, `echo` run_config.json's object and
    `manifest` a synthesized manifest, if any."""
    reports, aggregates, failures, starved = [], [], [], []
    outcome = iter(outcomes)
    for config in configs:
        where = {"policy": config.policy, "BS": config.buffer_capacity_s, "Lc": config.critical_threshold_s}
        complete = []
        for trace_path in trace_paths:
            report, error = next(outcome)
            if error is None:
                reports.append(report)
                if not report.partial:
                    complete.append(report)
                    continue
            kind, detail = ("truncated", report.diagnostic) if error is None else ("error", error)
            failures.append({**where, "trace": trace_path, "kind": kind, "detail": detail})
        if complete:
            aggregates.append(aggregate(complete))
        else:
            starved.append({**where, "trace": "*", "kind": "no_complete_sessions",
                            "detail": "nothing to aggregate"})
    failures += starved

    files = {"sessions.csv": sessions_csv(reports), "aggregates.csv": aggregates_csv(aggregates)}
    for m in HEADLINE_METRICS:
        rows = (f"{a.policy},{a.buffer_capacity_s:g},{a.critical_threshold_s:g},{getattr(a, m.attr)!r}\n"
                for a in aggregates)
        files[f"plots/{m.plot}.csv"] = f"policy,BS,Lc,{m.column}\n" + "".join(rows)
    files["comparison.txt"] = emit_comparison_table(aggregates)
    files["run_config.json"] = json.dumps(echo, indent=1) + "\n"
    if failures:
        files["failures.json"] = json.dumps(failures, indent=1) + "\n"
    if manifest is not None:
        files["manifest.json"] = json.dumps(manifest.to_dict(), indent=1) + "\n"
    return reports, aggregates, failures, files


def emit_comparison_table(aggregates) -> str:
    """Aligned per-scenario table; best value per column marked with `*`.

    Lower is better for rebuffering and instability, higher for SSIM and
    bitrate; ties are all marked.
    """
    if not aggregates:
        return "no aggregates\n"
    lines: list[str] = []
    groups: dict[tuple, list] = {}  # scenario -> its aggregates, scenarios in first-seen order
    for agg in aggregates:
        groups.setdefault((agg.buffer_capacity_s, agg.critical_threshold_s), []).append(agg)
    for (bs, lc), group in groups.items():
        counts = {a.session_count for a in group}
        count_note = f"sessions={counts.pop()}" if len(counts) == 1 else "sessions=mixed"
        lines.append(f"BS={bs:g}s Lc={lc:g}s loop={'on' if group[0].loop_trace else 'off'} {count_note}")
        best = {m.attr: m.best(getattr(a, m.attr) for a in group) for m in HEADLINE_METRICS}
        rows = [["policy"] + [m.column for m in HEADLINE_METRICS]]
        for agg in group:
            row = [agg.policy]
            for m in HEADLINE_METRICS:
                value = getattr(agg, m.attr)
                row.append(m.fmt.format(value) + ("*" if value == best[m.attr] else ""))
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        for r in rows:
            lines.append("  ".join([r[0].ljust(widths[0]), *(v.rjust(w) for v, w in zip(r[1:], widths[1:]))]))
        lines.append("")
    return "\n".join(lines)
