"""Command line surface.

Subcommands: run (batch from a spec file), simulate (one session, events to
stdout; a flag left out keeps SessionConfig's default), synth-manifest (from
a spec's `synthesize` recipe), validate, replay.  Exit codes: 0 success, 1
partial (some sessions failed, or a replay mismatched), 2 invalid input.

`run` takes every setting that shapes results from its spec file; only where
a batch goes (--output-dir, over the spec's output_dir) and --jobs are flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from .abr import POLICIES
from .batch import load_runspec, manifest_from_recipe, run_batch
from .manifest import ManifestError, load_manifest, parse_json, save_manifest, write_text_atomically
from .simulator import JsonlWriter, SessionConfig, SessionEventLog, replay_diff, run_session
from .trace import TraceError, load_trace


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
    p_run.add_argument("--jobs", type=int, help="parallel worker processes")
    p_run.set_defaults(handler=cmd_run)

    p_sim = sub.add_parser("simulate", help="run one session, stream its event log to stdout",
                           argument_default=argparse.SUPPRESS)
    p_sim.add_argument("--manifest", required=True)
    p_sim.add_argument("--trace", required=True)
    p_sim.add_argument("--policy", choices=list(POLICIES))
    p_sim.add_argument("--bs", dest="buffer_capacity_s", type=float, help="buffer capacity in seconds")
    p_sim.add_argument("--lc", dest="critical_threshold_s", type=float, help="critical threshold in seconds")
    p_sim.add_argument("--loop", dest="loop_trace", action="store_true", help="loop the trace")
    p_sim.add_argument("--policy-params", help="policy parameters as JSON")
    p_sim.add_argument("--log", default=None, help="also write the event log to this file")
    p_sim.set_defaults(handler=cmd_simulate)

    p_synth = sub.add_parser("synth-manifest", help="generate a synthetic manifest")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--recipe", required=True, help="a run spec's `synthesize` object, as JSON")
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
    if args.jobs is not None:
        spec.jobs = args.jobs
    if args.output_dir:
        spec.output_dir = os.path.abspath(args.output_dir)
    result = run_batch(spec)
    done = len(result.session_reports)
    print(f"{done} sessions, {len(result.aggregates)} aggregate rows -> {result.output_dir}")
    if result.failures:
        print(f"{len(result.failures)} failures recorded in failures.json", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    manifest = load_manifest(args.manifest)
    trace = load_trace(args.trace)
    given = {name: value for name, value in vars(args).items() if name in SessionConfig.__dataclass_fields__}
    if "policy_params" in given:
        given["policy_params"] = parse_json(given["policy_params"], ValueError, "--policy-params")
    writer, report = run_session(manifest, trace, SessionConfig(**given), JsonlWriter())
    text = "".join(writer.lines)
    if args.log:  # before stdout, so a run that cannot keep its log prints none
        write_text_atomically(args.log, text)
    sys.stdout.write(text)
    summary = (
        f"rebuffering={report.rebuffering_total_s:.3f}s instability={report.instability:g} "
        f"mean_ssim={report.mean_ssim:.4f} mean_bitrate={report.mean_bitrate_kbps:.1f}kbps"
    )
    print(("PARTIAL " if report.partial else "") + summary, file=sys.stderr)
    return 1 if report.partial else 0


def cmd_synth_manifest(args) -> int:
    recipe = parse_json(args.recipe, ValueError, "--recipe")
    if not isinstance(recipe, dict):
        raise ValueError(f"--recipe must be an object, got {recipe!r}")
    manifest = manifest_from_recipe(recipe)
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
