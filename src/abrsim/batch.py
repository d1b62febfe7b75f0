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

Sessions are independent, so they fan out over a process pool; results are
collected and written in spec order, which keeps every output byte-stable
across runs.  Paths inside a spec resolve relative to the spec file.
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass, field, replace
from multiprocessing import Pool

from .abr import POLICIES, make_policy
from .manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    ManifestError,
    SaturationProfile,
    VideoManifest,
    load_manifest,
    parse_json,
    read_text,
    save_manifest,
    synthesize_manifest,
    write_text_atomically,
)
from .metrics import (
    HEADLINE_METRICS,
    AggregateReport,
    SessionReport,
    aggregate,
    aggregates_csv,
    sessions_csv,
)
from .simulator import JsonlWriter, SessionConfig, run_session
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
    batch starts, because code (the CLI's overrides among it) may change it.
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
        try:
            scenarios.append((float(pair[0]), float(pair[1])))
        except (TypeError, ValueError, OverflowError):
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
    # A file's scenario values must be JSON numbers (a bool is none); code and
    # --scenarios may still set numeric strings, which `validate_runspec` converts.
    scenarios = doc.get("scenarios")
    for pair in scenarios if isinstance(scenarios, list) else ():
        if isinstance(pair, list) and len(pair) == 2 and not {*map(type, pair)} <= {int, float}:
            raise RunSpecError(f"{path}: scenario values must be numbers, got {pair!r}")
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
    """The manifest a `synthesize` recipe (a spec's, or `synth-manifest`'s flags) describes.

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

    Per-session problems (unreadable trace, starved session) are collected
    into the failure list instead of aborting the batch; spec-level problems
    (invalid spec, no manifest, no matching traces, two sessions sharing a
    log name) raise before any output directory is created.  Rerun into the
    directory of an earlier batch, it then removes the earlier batch's logs,
    plots, failures.json and manifest.json that it did not write itself.
    """
    configs = validate_runspec(spec)
    manifest = resolve_manifest(spec)
    for bs, _ in spec.scenarios:
        if bs <= manifest.chunk_duration_s:
            raise RunSpecError(
                f"buffer capacity {bs:g}s must exceed the manifest's "
                f"{manifest.chunk_duration_s:g}s chunk duration"
            )
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
    out_dir = os.path.join(spec.base_dir, spec.output_dir)
    sessions_dir = os.path.join(out_dir, "sessions")
    plots_dir = os.path.join(out_dir, "plots")

    tasks = []
    log_names = set()
    for config in configs:
        for trace_path in trace_paths:
            label = os.path.splitext(os.path.basename(trace_path))[0]
            name = (f"{config.policy}_bs{config.buffer_capacity_s:g}_"
                    f"lc{config.critical_threshold_s:g}_{label}.jsonl")
            if name in log_names:
                raise RunSpecError(
                    f"two sessions would write sessions/{name}: policies, scenarios "
                    f"(as printed with %g) and trace file names must be unique"
                )
            log_names.add(name)
            tasks.append((manifest, config, traces[trace_path], label, os.path.join(sessions_dir, name)))

    # Every spec field that shapes the results: not where they go, nor how many workers.
    echo = {name: getattr(spec, attr) for name, (attr, _, _) in _SPEC_FIELDS.items()
            if name not in ("output_dir", "jobs")}
    echo["traces"] = trace_paths
    try:  # an earlier batch's run_config.json: what that batch wrote may go stale
        with open(os.path.join(out_dir, "run_config.json"), "r", encoding="utf-8") as fh:
            rerun = json.load(fh).keys() == echo.keys()
    except (OSError, ValueError, RecursionError, AttributeError):  # none, unreadable, or not an object
        rerun = False
    os.makedirs(sessions_dir, exist_ok=True)
    os.makedirs(plots_dir, exist_ok=True)
    if spec.synthesize is not None:
        save_manifest(manifest, os.path.join(out_dir, "manifest.json"))

    jobs = spec.jobs if spec.jobs is not None else (os.cpu_count() or 1)
    jobs = max(1, min(jobs, len(tasks)))
    if jobs == 1:
        outcomes = [_run_one(t) for t in tasks]
    else:
        with Pool(processes=jobs) as pool:
            outcomes = pool.map(_run_one, tasks)

    # Tasks run config by config, one per trace: each config's sessions are
    # one run of consecutive outcomes.
    reports: list[SessionReport] = []
    aggregates: list[AggregateReport] = []
    failures: list[dict] = []
    starved: list[dict] = []
    outcome = iter(outcomes)
    for config in configs:
        where = {"policy": config.policy, "BS": config.buffer_capacity_s,
                 "Lc": config.critical_threshold_s}
        complete = []
        for trace_path in trace_paths:
            report, error = next(outcome)
            if error is not None:
                failures.append({**where, "trace": trace_path, "kind": "error", "detail": error})
                continue
            reports.append(report)
            if report.partial:
                failures.append({**where, "trace": trace_path, "kind": "truncated",
                                 "detail": report.diagnostic})
            else:
                complete.append(report)
        if complete:
            aggregates.append(aggregate(complete))
        else:
            starved.append({**where, "trace": "*", "kind": "no_complete_sessions",
                            "detail": "nothing to aggregate"})
    failures += starved

    write_text_atomically(os.path.join(out_dir, "sessions.csv"), sessions_csv(reports))
    write_text_atomically(os.path.join(out_dir, "aggregates.csv"), aggregates_csv(aggregates))
    for metric in HEADLINE_METRICS:
        lines = [f"policy,BS,Lc,{metric.column}"]
        for agg in aggregates:
            lines.append(
                f"{agg.policy},{agg.buffer_capacity_s:g},{agg.critical_threshold_s:g},"
                f"{getattr(agg, metric.attr)!r}"
            )
        write_text_atomically(os.path.join(plots_dir, metric.plot + ".csv"), "\n".join(lines) + "\n")
    write_text_atomically(os.path.join(out_dir, "comparison.txt"), emit_comparison_table(aggregates))

    write_text_atomically(os.path.join(out_dir, "run_config.json"), json.dumps(echo, indent=1) + "\n")
    if failures:
        write_text_atomically(os.path.join(out_dir, "failures.json"), json.dumps(failures, indent=1) + "\n")
    if rerun:
        written = {task[4] for task, (_, error) in zip(tasks, outcomes) if error is None}
        written.update(os.path.join(plots_dir, m.plot + ".csv") for m in HEADLINE_METRICS)
        written.update(os.path.join(out_dir, name) for name, wrote in (
            ("failures.json", failures), ("manifest.json", spec.synthesize is not None)) if wrote)
        _remove_stale(out_dir, written, spec)
    return BatchResult(out_dir, reports, aggregates, failures)


def _remove_stale(out_dir: str, written: set, spec: RunSpec) -> None:
    """Delete the logs, plots, failures.json and manifest.json that are not in
    `written`, except a manifest.json the spec reads as its manifest."""
    paths = [os.path.join(out_dir, name) for name in ("failures.json", "manifest.json")]
    for sub, suffix in (("sessions", ".jsonl"), ("plots", ".csv")):
        folder = os.path.join(out_dir, sub)
        paths += [os.path.join(folder, name) for name in os.listdir(folder) if name.endswith(suffix)]
    source = spec.manifest_path and os.path.join(spec.base_dir, spec.manifest_path)
    for path in paths:
        if path not in written and os.path.isfile(path) and not (source and os.path.samefile(path, source)):
            os.remove(path)


def emit_comparison_table(aggregates) -> str:
    """Aligned per-scenario table; best value per column marked with `*`.

    Lower is better for rebuffering and instability, higher for SSIM and
    bitrate; ties are all marked.
    """
    if not aggregates:
        return "no aggregates\n"
    lines: list[str] = []
    scenarios = []
    for agg in aggregates:
        key = (agg.buffer_capacity_s, agg.critical_threshold_s)
        if key not in scenarios:
            scenarios.append(key)
    for bs, lc in scenarios:
        group = [a for a in aggregates if (a.buffer_capacity_s, a.critical_threshold_s) == (bs, lc)]
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
            lines.append(
                r[0].ljust(widths[0]) + "  " + "  ".join(v.rjust(w) for v, w in zip(r[1:], widths[1:]))
            )
        lines.append("")
    return "\n".join(lines)
