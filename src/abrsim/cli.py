"""Command line surface.

Subcommands: run (batch from a spec file), simulate (one session, events to
stdout), synth-manifest, validate, replay.  Exit codes: 0 success, 1 partial
(some sessions failed, or a replay mismatched), 2 invalid input.

The output directory for `run` resolves as: --output-dir flag, else the
ABRSIM_OUTPUT_DIR environment variable, else the spec file's output_dir.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .abr import POLICIES
from .batch import RunSpecError, load_runspec, run_batch
from .manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    ManifestError,
    SaturationProfile,
    load_manifest,
    save_manifest,
    synthesize_manifest,
)
from .simulator import (
    JsonlWriter,
    SessionConfig,
    SessionEventLog,
    replay_diff,
    run_session,
    write_text_atomically,
)
from .trace import TraceError, load_trace

OUTPUT_DIR_ENV = "ABRSIM_OUTPUT_DIR"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # every abrsim input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abrsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch of sessions from a spec file")
    p_run.add_argument("--spec", required=True, help="run spec JSON")
    p_run.add_argument("--output-dir", help="override the spec's output directory")
    p_run.add_argument("--manifest", help="override the spec's manifest path")
    p_run.add_argument("--traces", action="append", help="override trace globs (repeatable)")
    p_run.add_argument("--policies", help="comma-separated policy ids")
    p_run.add_argument("--scenarios", help="BS:Lc pairs, e.g. 120:12,240:12")
    p_run.add_argument("--jobs", type=int, help="parallel worker processes")
    p_run.add_argument("--seed", type=int, help="override the spec seed")
    loop = p_run.add_mutually_exclusive_group()
    loop.add_argument("--loop", dest="loop", action="store_true", default=None)
    loop.add_argument("--no-loop", dest="loop", action="store_false", default=None)
    p_run.set_defaults(handler=cmd_run)

    p_sim = sub.add_parser("simulate", help="run one session, stream its event log to stdout")
    p_sim.add_argument("--manifest", required=True)
    p_sim.add_argument("--trace", required=True)
    p_sim.add_argument("--policy", default="sba", choices=list(POLICIES))
    p_sim.add_argument("--bs", type=float, default=120.0, help="buffer capacity in seconds")
    p_sim.add_argument("--lc", type=float, default=12.0, help="critical buffer threshold in seconds")
    p_sim.add_argument("--loop", action="store_true", help="loop the trace")
    p_sim.add_argument("--policy-params", default="{}", help="policy parameters as JSON")
    p_sim.add_argument("--log", help="also write the event log to this file")
    p_sim.set_defaults(handler=cmd_simulate)

    p_synth = sub.add_parser("synth-manifest", help="generate a synthetic manifest")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--chunks", type=int, required=True)
    p_synth.add_argument("--chunk-duration", type=float, default=4.0)
    p_synth.add_argument("--ladder", help="comma-separated kbps, default a production ladder")
    p_synth.add_argument("--q-floor", type=float, default=0.70)
    p_synth.add_argument("--q-ceiling", type=float, default=0.985)
    p_synth.add_argument("--knee", type=float, default=1200.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--spread", type=float, default=0.5)
    p_synth.set_defaults(handler=cmd_synth_manifest)

    p_val = sub.add_parser("validate", help="validate manifests and traces")
    p_val.add_argument("--manifest", action="append", default=[], help="manifest path (repeatable)")
    p_val.add_argument("--trace", action="append", default=[], help="trace path (repeatable)")
    p_val.set_defaults(handler=cmd_validate)

    p_replay = sub.add_parser("replay", help="verify an event log against its manifest")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--manifest", required=True)
    p_replay.set_defaults(handler=cmd_replay)
    return parser


def cmd_run(args) -> int:
    spec = load_runspec(args.spec)
    # Spec-relative paths resolve against the spec file; flag-supplied ones against
    # the working directory, which a trace glob escapes so its name matches literally.
    if args.manifest:
        spec.manifest_path = os.path.abspath(args.manifest)
        spec.synthesize = None
    if args.traces:
        spec.trace_globs = [os.path.normpath(os.path.join(glob.escape(os.getcwd()), g)) for g in args.traces]
    if args.policies:
        spec.policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if args.scenarios:
        spec.scenarios = _parse_scenarios(args.scenarios)
    if args.jobs is not None:
        spec.jobs = args.jobs
    if args.seed is not None:
        spec.seed = args.seed
    if args.loop is not None:
        spec.loop_traces = args.loop
    out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    if out_dir:
        spec.output_dir = os.path.abspath(out_dir)
    result = run_batch(spec)
    done = len(result.session_reports)
    print(f"{done} sessions, {len(result.aggregates)} aggregate rows -> {result.output_dir}")
    if result.failures:
        print(f"{len(result.failures)} failures recorded in failures.json", file=sys.stderr)
        return 1
    return 0


def _parse_scenarios(text: str) -> list:
    """`BS:Lc` pairs as pairs of strings; `validate_runspec` checks the numbers."""
    pairs = [tuple(part.strip().split(":")) for part in text.split(",") if part.strip()]
    for pair in pairs:
        if len(pair) != 2:
            raise RunSpecError(f"bad scenario {':'.join(pair)!r}, expected BS:Lc")
    return pairs


def cmd_simulate(args) -> int:
    manifest = load_manifest(args.manifest)
    trace = load_trace(args.trace)
    try:
        params = json.loads(args.policy_params)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--policy-params is not valid JSON: {exc}") from exc
    config = SessionConfig(
        policy=args.policy,
        buffer_capacity_s=args.bs,
        critical_threshold_s=args.lc,
        loop_trace=args.loop,
        policy_params=params,
    )
    writer, report = run_session(manifest, trace, config, JsonlWriter())
    text = "".join(writer.lines)
    sys.stdout.write(text)
    if args.log:
        write_text_atomically(args.log, text)
    summary = (
        f"rebuffering={report.rebuffering_total_s:.3f}s instability={report.instability:g} "
        f"mean_ssim={report.mean_ssim:.4f} mean_bitrate={report.mean_bitrate_kbps:.1f}kbps"
    )
    print(("PARTIAL " if report.partial else "") + summary, file=sys.stderr)
    return 1 if report.partial else 0


def cmd_synth_manifest(args) -> int:
    ladder = BitrateLadder(
        tuple(float(r) for r in args.ladder.split(",")) if args.ladder else NETFLIX_LADDER_KBPS
    )
    profile = SaturationProfile(
        q_floor=args.q_floor,
        q_ceiling=args.q_ceiling,
        knee_kbps=args.knee,
        jitter_seed=args.seed,
        per_chunk_spread=args.spread,
    )
    manifest = synthesize_manifest(ladder, args.chunks, args.chunk_duration, profile)
    save_manifest(manifest, args.out)
    print(f"wrote {args.out}: {manifest.chunk_count} chunks x {manifest.ladder.count} levels")
    return 0


def cmd_validate(args) -> int:
    if not args.manifest and not args.trace:
        print("error: nothing to validate, pass --manifest and/or --trace", file=sys.stderr)
        return 2
    bad = 0
    for path in args.manifest:
        try:
            m = load_manifest(path)
            print(f"{path}: ok ({m.chunk_count} chunks x {m.ladder.count} levels)")
        except ManifestError as exc:
            print(f"{path}: INVALID: {exc}")
            bad += 1
    for path in args.trace:
        try:
            t = load_trace(path)
            print(f"{path}: ok ({len(t.samples)} samples, {t.duration_s:g}s)")
        except TraceError as exc:
            print(f"{path}: INVALID: {exc}")
            bad += 1
    return 2 if bad else 0


def cmd_replay(args) -> int:
    log = SessionEventLog.read(args.log)
    manifest = load_manifest(args.manifest)
    diffs = replay_diff(log, manifest, SessionConfig.from_header(log.header))
    if not diffs:
        print(f"{args.log}: verified")
        return 0
    print(f"{args.log}: MISMATCH")
    for line in diffs:
        print(f"  {line}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
