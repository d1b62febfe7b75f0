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
import os
from dataclasses import dataclass, field, replace
from multiprocessing import Pool

from .abr import POLICIES, make_policy
from .manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    SaturationProfile,
    VideoManifest,
    load_manifest,
    save_manifest,
    synthesize_manifest,
)
from .metrics import (
    HEADLINE_METRICS,
    AggregateReport,
    SessionReport,
    aggregate,
    aggregates_csv,
    sessions_csv,
)
from .simulator import JsonlWriter, SessionConfig, run_session, write_text_atomically
from .trace import TraceError, load_trace


class RunSpecError(ValueError):
    """Run spec failed to parse or validate."""


@dataclass
class RunSpec:
    trace_globs: list
    policies: list
    scenarios: list  # (buffer_capacity_s, critical_threshold_s) pairs
    output_dir: str
    manifest_path: str | None = None
    synthesize: dict | None = None
    seed: int = 0
    jobs: int | None = None
    loop_traces: bool = False
    policy_params: dict = field(default_factory=dict)
    base_dir: str = "."

    def __post_init__(self) -> None:
        if (self.manifest_path is None) == (self.synthesize is None):
            raise RunSpecError("spec needs exactly one of `manifest` or `synthesize`")
        scenarios = []
        for pair in self.scenarios:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise RunSpecError(f"scenario must be a [BS, Lc] pair, got {pair!r}")
            try:
                scenarios.append((float(pair[0]), float(pair[1])))
            except (TypeError, ValueError):
                raise RunSpecError(f"scenario values must be numbers, got {pair!r}") from None
        self.scenarios = scenarios
        validate_runspec(self)
        if not self.output_dir:
            raise RunSpecError("spec names no output directory")


def validate_runspec(spec: RunSpec) -> list[SessionConfig]:
    """Reject a spec that names no work, or work no session could run.

    Returns one config per scenario x policy, scenario-major, in spec order.
    Runs when a spec is built and again when a batch starts, because callers
    (the CLI's overrides among them) may change fields in between.
    """
    if not spec.trace_globs:
        raise RunSpecError("spec names no traces")
    if not spec.policies:
        raise RunSpecError("spec names no policies")
    if not spec.scenarios:
        raise RunSpecError("spec names no scenarios")
    if spec.jobs is not None and (type(spec.jobs) is not int or spec.jobs < 1):
        raise RunSpecError(f"jobs must be an integer >= 1, got {spec.jobs!r}")
    params = spec.policy_params
    if not isinstance(params, dict) or not all(isinstance(p, dict) for p in params.values()):
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


# JSON types a spec field may hold when present; the values themselves are
# checked once the spec is built.  `jobs` and `policy_params` are checked
# whole by `validate_runspec`, which also sees the CLI's overrides.
_SPEC_FIELD_TYPES = {
    "manifest": ((str, type(None)), "a path"),
    "synthesize": ((dict, type(None)), "an object"),
    "traces": ((str, list), "a glob or a list of globs"),
    "policies": (list, "a list of policy ids"),
    "scenarios": (list, "a list of [BS, Lc] pairs"),
    "output_dir": ((str, type(None)), "a path"),
    "seed": (int, "an integer"),
    "loop_traces": (bool, "true or false"),
}


def load_runspec(path: str) -> RunSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise RunSpecError(f"{path}: cannot read spec: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise RunSpecError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RunSpecError(f"{path}: spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RunSpecError(f"{path}: spec must be a JSON object")
    unknown = set(doc) - set(_SPEC_FIELD_TYPES) - {"jobs", "policy_params"}
    if unknown:
        raise RunSpecError(f"{path}: unknown spec fields: {', '.join(sorted(unknown))}")
    for name, (types, what) in _SPEC_FIELD_TYPES.items():
        if name in doc and not isinstance(doc[name], types):
            raise RunSpecError(f"{path}: {name} must be {what}, got {doc[name]!r}")
    traces = doc.get("traces", [])
    if isinstance(traces, str):
        traces = [traces]
    if not all(isinstance(t, str) for t in traces):
        raise RunSpecError(f"{path}: traces must be a glob or a list of globs, got {traces!r}")
    try:
        return RunSpec(
            trace_globs=list(traces),
            policies=list(doc.get("policies", [])),
            scenarios=list(doc.get("scenarios", [])),
            output_dir=doc.get("output_dir", ""),
            manifest_path=doc.get("manifest"),
            synthesize=doc.get("synthesize"),
            seed=doc.get("seed", 0),
            jobs=doc.get("jobs"),
            loop_traces=doc.get("loop_traces", False),
            policy_params=doc.get("policy_params", {}),
            base_dir=os.path.dirname(os.path.abspath(path)) or ".",
        )
    except RunSpecError as exc:
        raise RunSpecError(f"{path}: {exc}") from exc


def resolve_manifest(spec: RunSpec) -> VideoManifest:
    if spec.manifest_path is not None:
        return load_manifest(os.path.join(spec.base_dir, spec.manifest_path))
    recipe = dict(spec.synthesize)
    recipe.setdefault("jitter_seed", spec.seed)
    try:
        ladder = BitrateLadder(tuple(recipe.pop("ladder_kbps", NETFLIX_LADDER_KBPS)))
        chunk_count = int(recipe.pop("chunk_count", 0))
        chunk_duration = float(recipe.pop("chunk_duration_s", 0.0))
        profile = SaturationProfile(**recipe)
    except TypeError as exc:
        raise RunSpecError(f"bad synthesize fields: {exc}") from exc
    if chunk_count < 1 or chunk_duration <= 0:
        raise RunSpecError("synthesize needs chunk_count >= 1 and chunk_duration_s > 0")
    return synthesize_manifest(ladder, chunk_count, chunk_duration, profile)


def resolve_trace_paths(spec: RunSpec) -> list[str]:
    """Sorted unique matches of the trace globs; every glob must match a file."""
    paths: set[str] = set()
    for pattern in spec.trace_globs:
        matches = glob.glob(os.path.join(spec.base_dir, pattern))
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
    log name) raise before any output directory is created.
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
    out_dir = os.path.join(spec.base_dir, spec.output_dir) if not os.path.isabs(spec.output_dir) else spec.output_dir
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

    echo = {
        "manifest": spec.manifest_path,
        "synthesize": spec.synthesize,
        "traces": trace_paths,
        "policies": list(spec.policies),
        "scenarios": [list(s) for s in spec.scenarios],
        "loop_traces": spec.loop_traces,
        "seed": spec.seed,
        "policy_params": spec.policy_params,
    }
    write_text_atomically(os.path.join(out_dir, "run_config.json"), json.dumps(echo, indent=1) + "\n")
    if failures:
        write_text_atomically(os.path.join(out_dir, "failures.json"), json.dumps(failures, indent=1) + "\n")
    return BatchResult(out_dir, reports, aggregates, failures)


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
