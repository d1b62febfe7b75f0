#!/usr/bin/env python3
"""abrsim benchmark: bundled batch (serial and pool), long sessions, log replay.

    python3 perfbench/run.py                                  # every workload, one process
    python3 perfbench/run.py --workload long-session --seed 3 --seconds 20
    python3 perfbench/run.py --workload bundled-batch --trace 1   # per-layer split
    python3 perfbench/run.py --check                          # quick self-test, reduced sizes

Every workload is a closed loop with one caller: the next iteration starts
when the previous one has finished.  Each iteration's outputs pass the
correctness gate before the next one starts; the gate's work is not timed.
With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported,
with `--trace 1` its per-layer metrics, from spans recorded around the
package's public functions (see spans.py).  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Exit codes: 0 correct, 1 the correctness gate failed, 2 the checkout holds
no abrsim sources or scenario (nothing is measured or printed then).

Timings, spans and environment stamps go to perfbench/.run/results/; batch
artifacts go to a fresh temporary directory under perfbench/.run/ that is
deleted after each iteration, so nothing is ever written under scenarios/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import math
import multiprocessing.pool
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from multiprocessing.reduction import ForkingPickler

from hostspeed import SpeedProbe, UnitSpeed
from spans import Tracer, installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "scenarios", "comparison", "runspec.json")
RUN_DIR = os.path.join(HERE, ".run")
RESULTS_DIR = os.path.join(RUN_DIR, "results")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

WORKLOAD_NAMES = ("bundled-batch", "bundled-batch-pool", "long-session", "replay-verify")
PACKAGE_MODULES = ("manifest", "trace", "estimators", "abr", "simulator", "metrics", "batch")
POLICIES = ("sba", "bba", "festive", "osmf")
CHUNK_DURATION_S = 4.0
LONG_TRACE_S = 600.0
LONG_CHUNKS = 9600
SWEEP_CHUNKS = (150, 600, 2400, 9600)
SWEEP_MIN_S = 0.3
# Reduced sizes for --check.
CHECK_TRACES = 3
CHECK_LONG_CHUNKS = 600
# Set-up is repeated and its median reported; writing the replay logs is a
# whole batch, so that workload repeats it fewer times.
# Replay-verify probes host speed between groups of this many logs.
LAP_LOGS = 48
SETUP_REPEATS = {"bundled-batch": 5, "bundled-batch-pool": 5, "long-session": 5, "replay-verify": 3}
# Files whose bytes the roadmap pins across refactors: event logs, CSVs,
# plots and the comparison table.  `.report.json` is compared between runs
# but not against the golden file; run_config.json embeds absolute paths.
SHARED_STABLE = ("sessions.csv", "aggregates.csv", "comparison.txt")

# (module, attribute path, span name[, record first argument]), patched under
# the names their callers look them up by.
TRACE_TARGETS = (
    ("batch", "run_batch", "batch.run_batch"),
    ("batch", "load_manifest", "manifest.load"),
    ("batch", "load_trace", "trace.load", True),
    ("batch", "run_session", "simulator.run_session"),
    ("batch", "aggregate", "metrics.aggregate"),
    ("batch", "sessions_csv", "metrics.csv"),
    ("batch", "aggregates_csv", "metrics.csv"),
    ("batch", "emit_comparison_table", "batch.comparison_table"),
    ("simulator", "run_session", "simulator.run_session"),
    ("simulator", "decide", "abr.decide"),
    ("simulator", "download_finish_time", "trace.finish_time"),
    ("simulator", "session_metrics", "metrics.session_metrics"),
    ("simulator", "replay_diff", "simulator.replay_diff"),
    ("simulator", "SessionEventLog.to_jsonl", "simulator.to_jsonl"),
    ("simulator", "SessionEventLog.write", "simulator.log_write"),
    ("simulator", "SessionEventLog.read", "simulator.log_read"),
    ("simulator", "SessionEventLog.from_jsonl", "simulator.from_jsonl"),
    ("estimators", "estimated_bandwidth_kbps", "estimators"),
    ("estimators", "mean_ssim_delta", "estimators"),
    ("estimators", "record_download", "estimators"),
    ("estimators", "record_display_transition", "estimators"),
    ("metrics", "SessionReport.to_dict", "metrics.report_to_dict"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, no scenario)."""


class Gate:
    """Correctness bookkeeping: sessions attempted and sessions that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, bad: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(bad)
        self.problems.extend(bad[: max(0, 20 - len(self.problems))])

    @property
    def failed_capped(self) -> int:
        return min(self.failed, self.attempted)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class References:
    """Digests every later output is compared with, shared across workloads."""

    def __init__(self, golden: dict | None) -> None:
        self.golden = golden
        self.batch: dict | None = None
        self.batch_from = ""


# --------------------------------------------------------------------------
# Loading the program


def import_abrsim():
    """Import the checkout's abrsim afresh; returns its modules by layer name."""
    if not os.path.isfile(os.path.join(SRC, "abrsim", "__init__.py")):
        raise SetupError(f"no abrsim sources under {SRC}")
    if not os.path.isfile(SPEC_PATH):
        raise SetupError(f"no bundled run spec at {SPEC_PATH}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "abrsim" or m.startswith("abrsim.")]:
        del sys.modules[name]
    package = importlib.import_module("abrsim")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported abrsim from {package.__file__}, not from {SRC}")
    return {name: importlib.import_module("abrsim." + name) for name in PACKAGE_MODULES}


def load_golden() -> dict | None:
    """Golden digests for this interpreter's float behaviour, when recorded."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = "{}.{}".format(*sys.version_info[:2])
    return doc["files"] if version in doc["python"] else None


# --------------------------------------------------------------------------
# Artifacts and digests


def artifact_digests(out_dir: str) -> tuple[dict, int]:
    """sha256 per output file (relative path) and total bytes of all files."""
    digests, total = {}, 0
    for dirpath, _, files in os.walk(out_dir):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            total += len(data)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            if rel != "run_config.json":
                digests[rel] = hashlib.sha256(data).hexdigest()
    return digests, total


def is_stable(rel: str) -> bool:
    return rel.endswith(".jsonl") or rel in SHARED_STABLE or rel.startswith("plots/")


def unit_of(rel: str) -> str:
    if rel.startswith("sessions/"):
        base = rel[len("sessions/"):]
        for suffix in (".report.json", ".jsonl"):
            if base.endswith(suffix):
                return base[: -len(suffix)]
        return base
    return "shared files"


def mismatched(digests: dict, reference: dict, keys) -> list[str]:
    """Sessions (or 'shared files') whose digest differs from the reference."""
    return sorted({unit_of(k) for k in keys if digests.get(k) != reference.get(k)})


def digest_of(digests: dict) -> str:
    text = "".join(f"{k}={digests[k]}\n" for k in sorted(digests))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# Workloads


class Workload:
    """setup (timed as set-up), then per iteration: prepare (untimed), run
    (timed), verify (untimed correctness gate); finish after the loop."""

    artifact = ""  # digest of the outputs, for the environment stamp
    bytes_written = 0  # by the last iteration
    calibrated = True  # iteration times are rescaled by host speed (hostspeed.py)

    def after_setup(self, gate: Gate) -> None:
        pass

    def finish(self, gate: Gate) -> None:
        pass

    def close(self) -> None:
        pass


class BundledBatch(Workload):
    """run_batch on the bundled comparison spec, into a fresh temp directory."""

    def __init__(self, jobs: int, label: str) -> None:
        self.jobs = jobs
        self.label = label

    def setup(self, ab, seed: int, refs: References, reduced: bool) -> None:
        # The bundled scenario is the input; the seed does not change it.
        self.ab, self.refs, self.reduced = ab, refs, reduced
        spec = ab["batch"].load_runspec(SPEC_PATH)
        traces = ab["batch"].resolve_trace_paths(spec)
        self.traces = traces[:CHECK_TRACES] if reduced else None
        self.sessions = len(spec.policies) * len(spec.scenarios) * len(self.traces or traces)

    def prepare(self):
        spec = self.ab["batch"].load_runspec(SPEC_PATH)
        if self.traces is not None:
            spec.trace_globs = list(self.traces)
        spec.output_dir = tempfile.mkdtemp(prefix="batch-")
        spec.jobs = self.jobs
        return spec

    def run(self, spec, lap):
        return self.ab["batch"].run_batch(spec)

    def verify(self, spec, result, gate: Gate) -> None:
        gate.add(self.sessions, self.check_output(spec.output_dir, result))
        shutil.rmtree(spec.output_dir)

    def check_output(self, out_dir: str, result) -> list[str]:
        digests, self.bytes_written = artifact_digests(out_dir)
        bad = [
            f"{f.get('kind')}: {f.get('policy')} BS={f.get('BS')} {os.path.basename(str(f.get('trace')))}"
            for f in result.failures
        ]
        logs = sum(1 for k in digests if k.endswith(".jsonl"))
        if logs != self.sessions:
            bad.append(f"{logs} event logs written for {self.sessions} sessions")
        golden = self.refs.golden
        if golden is not None:
            keys = [k for k in digests if k.endswith(".jsonl")] if self.reduced else (
                {k for k in digests if is_stable(k)} | set(golden))
            bad += [f"{u}: differs from golden.json" for u in mismatched(digests, golden, keys)]
        if self.refs.batch is None:
            self.refs.batch, self.refs.batch_from = digests, self.label
        else:
            keys = set(digests) | set(self.refs.batch)
            bad += [f"{u}: differs from {self.refs.batch_from}"
                    for u in mismatched(digests, self.refs.batch, keys)]
        self.artifact = digest_of({k: v for k, v in digests.items() if is_stable(k)})
        return bad

    def finish(self, gate: Gate) -> None:
        """The pool run is compared with a serial run of the same spec."""
        if self.jobs == 1 or self.refs.batch_from == "bundled-batch":
            return
        serial = BundledBatch(1, "bundled-batch")
        serial.setup(self.ab, 0, self.refs, self.reduced)
        spec = serial.prepare()
        serial.verify(spec, serial.run(spec, no_lap), gate)


class LongSession(Workload):
    """All four policies over one long synthesized session, in memory."""

    # Its time goes to C-level slice-and-sum, which the host's slow phases
    # affect differently from the calibration kernel: over three sets of ten
    # runs the rescaled medians spread by up to 25%, the raw ones by 15%.
    calibrated = False

    def setup(self, ab, seed: int, refs: References, reduced: bool) -> None:
        self.ab = ab
        self.chunks = CHECK_LONG_CHUNKS if reduced else LONG_CHUNKS
        self.manifest, self.trace = long_inputs(ab, seed, self.chunks)
        self.reference: dict | None = None

    def prepare(self):
        return [self.ab["simulator"].SessionConfig(policy=p, loop_trace=True) for p in POLICIES]

    def run(self, configs, lap):
        run_session = self.ab["simulator"].run_session
        return [run_session(self.manifest, self.trace, c) for c in configs]

    def verify(self, configs, outputs, gate: Gate) -> None:
        bad, digests = [], {}
        for config, (log, report) in zip(configs, outputs):
            if report.partial:
                bad.append(f"{config.policy}: session truncated: {report.diagnostic}")
            elif len(report.displayed) != self.chunks:
                bad.append(f"{config.policy}: {len(report.displayed)} of {self.chunks} chunks displayed")
            digests[config.policy] = hashlib.sha256(repr((log.records, report)).encode()).hexdigest()
        if self.reference is None:
            self.reference = digests
        bad += [f"{p}: log differs from the first iteration"
                for p in POLICIES if digests.get(p) != self.reference.get(p)]
        self.artifact = digest_of(digests)
        gate.add(len(configs), bad)


class ReplayVerify(Workload):
    """Read and replay-verify every event log the bundled batch writes."""

    def setup(self, ab, seed: int, refs: References, reduced: bool) -> None:
        self.ab = ab
        self.batch = BundledBatch(1, "replay-verify set-up")
        self.batch.setup(ab, seed, refs, reduced)
        self.spec = self.batch.prepare()
        self.result = self.batch.run(self.spec, no_lap)
        self.manifest = ab["manifest"].load_manifest(
            os.path.join(self.spec.base_dir, self.spec.manifest_path))
        self.logs = sorted(glob.glob(os.path.join(self.spec.output_dir, "sessions", "*.jsonl")))

    def after_setup(self, gate: Gate) -> None:
        bad = self.batch.check_output(self.spec.output_dir, self.result)
        gate.add(0, [f"set-up batch: {b}" for b in bad])
        self.artifact = self.batch.artifact

    def prepare(self):
        return None

    def run(self, _, lap):
        simulator = self.ab["simulator"]
        bad = []
        for idx, path in enumerate(self.logs):
            if idx and idx % LAP_LOGS == 0:
                lap()
            try:
                log = simulator.SessionEventLog.read(path)
                diffs = simulator.replay_diff(log, self.manifest, config_from_header(simulator, log.header))
            except (ValueError, KeyError, TypeError) as exc:
                diffs = [f"unreadable log: {exc}"]
            if diffs:
                bad.append(f"{os.path.basename(path)}: {diffs[0]}")
        return bad

    def verify(self, _, bad: list[str], gate: Gate) -> None:
        if len(self.logs) != self.batch.sessions:
            bad = bad + [f"{len(self.logs)} logs to replay for {self.batch.sessions} sessions"]
        gate.add(len(self.logs), bad)

    def close(self) -> None:
        shutil.rmtree(self.spec.output_dir, ignore_errors=True)


def make_workload(name: str):
    if name == "bundled-batch":
        return BundledBatch(1, name)
    if name == "bundled-batch-pool":
        return BundledBatch(pool_jobs(), name)
    if name == "long-session":
        return LongSession()
    return ReplayVerify()


def pool_jobs() -> int:
    # At least two workers, so the pool path runs even on one CPU.
    return max(2, os.cpu_count() or 1)


def long_inputs(ab, seed: int, chunks: int):
    m = ab["manifest"]
    manifest = m.synthesize_manifest(
        m.BitrateLadder(m.NETFLIX_LADDER_KBPS), chunks, CHUNK_DURATION_S,
        m.SaturationProfile(jitter_seed=seed))
    return manifest, ab["trace"].synthesize_oscillating_trace(seed, duration_s=LONG_TRACE_S)


def config_from_header(simulator, header: dict):
    """The session config a log header records, as `abrsim replay` rebuilds it."""
    return simulator.SessionConfig(
        policy=header["policy"],
        buffer_capacity_s=header["buffer_capacity_s"],
        critical_threshold_s=header["critical_threshold_s"],
        loop_trace=header.get("loop_trace", False),
        policy_params=header.get("policy_params", {}),
        resume_threshold_s=header.get("resume_threshold_s", 0.0),
    )


# --------------------------------------------------------------------------
# Measuring


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0  # ru_maxrss is in KiB on Linux


def no_lap() -> None:
    pass


class Stopwatch:
    """Times one section in laps; the host-speed probe runs, untimed, between laps.

    Keeps host wall and CPU seconds, and the same at the reference speed.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.host_wall = self.host_cpu = self.wall = self.cpu = 0.0
        self.probe.start()
        self._t0, self._cpu0 = time.perf_counter(), cpu_seconds()

    def lap(self) -> None:
        wall, cpu = time.perf_counter() - self._t0, cpu_seconds() - self._cpu0
        speed = self.probe.stop()
        self.host_wall += wall
        self.host_cpu += cpu
        self.wall += wall * speed
        self.cpu += cpu * speed
        self._t0, self._cpu0 = time.perf_counter(), cpu_seconds()


def set_up(name: str, seed: int, refs: References, reduced: bool, probe: SpeedProbe):
    """Import the package and build the inputs, several times; keep the last.

    Returns the package, the workload, and host and reference seconds per set-up.
    """
    host, ref, workload = [], [], None
    for _ in range(1 if reduced else SETUP_REPEATS[name]):
        if workload is not None:
            workload.close()
        watch = Stopwatch(probe)
        ab = import_abrsim()
        workload = make_workload(name)
        workload.setup(ab, seed, refs, reduced)
        watch.lap()
        host.append(watch.host_wall)
        ref.append(watch.wall)
    return ab, workload, host, ref


def measure(workload, gate: Gate, seconds: float, probe: SpeedProbe) -> dict:
    """Closed loop for `seconds` (at least one iteration): per-iteration samples."""
    samples = {"host_wall_s": [], "host_cpu_s": [], "wall_s": [], "cpu_s": []}
    start = time.perf_counter()
    while not samples["wall_s"] or time.perf_counter() - start < seconds:
        prepared = workload.prepare()
        watch = Stopwatch(probe)
        output = workload.run(prepared, watch.lap)
        watch.lap()
        for key, value in (("host_wall_s", watch.host_wall), ("host_cpu_s", watch.host_cpu),
                           ("wall_s", watch.wall), ("cpu_s", watch.cpu)):
            samples[key].append(value)
        workload.verify(prepared, output, gate)
    return samples


def traced_iteration(workload, ab, gate: Gate, tracer: Tracer, probe: SpeedProbe):
    """One iteration with every trace target wrapped.

    Returns host wall seconds, host speed, the layer split in reference
    seconds, and the targets the program lacks.
    """
    with installed(tracer, ab, TRACE_TARGETS) as missing:
        prepared = workload.prepare()
        tracer.clear()
        probe.start()
        t0 = time.perf_counter()
        with tracer.span("bench.iteration"):
            output = workload.run(prepared, no_lap)
        wall = time.perf_counter() - t0
        speed = probe.stop()
    split = layer_split(tracer.summary(), tracer.first_args.get("trace.load", []))
    split["bench.unattributed_s"] = wall - split.pop("bench.self_sum_s")
    split = {k: v * speed if k.endswith("_s") else v for k, v in split.items()}
    workload.verify(prepared, output, gate)
    return wall, speed, split, missing


def layer_split(summary: dict, loaded_paths: list) -> dict:
    def get(name: str, key: str = "self_s") -> float:
        return summary.get(name, {}).get(key, 0)

    loads = get("trace.load", "calls")
    return {
        "estimators.self_s": get("estimators"),
        "estimators.calls": get("estimators", "calls"),
        "abr.self_s": get("abr.decide"),
        "abr.calls": get("abr.decide", "calls"),
        "trace.finish_time.self_s": get("trace.finish_time"),
        "trace.finish_time.calls": get("trace.finish_time", "calls"),
        "trace.load_s": get("trace.load"),
        "trace.loads": loads,
        "trace.load_useful_ratio": len(set(loaded_paths)) / loads if loads else 0.0,
        "manifest.load_s": get("manifest.load"),
        "simulator.engine_self_s": get("simulator.run_session") + get("simulator.replay_diff"),
        "simulator.to_jsonl_s": get("simulator.to_jsonl"),
        "simulator.log_write_s": get("simulator.log_write"),
        "simulator.log_read_s": get("simulator.log_read"),
        "simulator.from_jsonl_s": get("simulator.from_jsonl"),
        "simulator.replay_diff_s": get("simulator.replay_diff", "total_s"),
        "metrics.report_to_dict_s": get("metrics.report_to_dict"),
        "metrics.session_metrics_s": get("metrics.session_metrics"),
        "metrics.aggregate_s": get("metrics.aggregate"),
        "metrics.csv_s": get("metrics.csv"),
        "batch.self_s": get("batch.run_batch"),
        "batch.comparison_table_s": get("batch.comparison_table"),
        "bench.self_s": get("bench.iteration"),
        "bench.self_sum_s": sum(row["self_s"] for row in summary.values()),
    }


def outside_engine_share(workload, ab, gate: Gate) -> float:
    """(run_batch - sum of run_session) / run_batch, with only those two spans."""
    tracer = Tracer()
    with installed(tracer, ab, [("batch", "run_session", "simulator.run_session")]):
        prepared = workload.prepare()
        with tracer.span("batch.run_batch"):
            output = workload.run(prepared, no_lap)
        workload.verify(prepared, output, gate)
    summary = tracer.summary()
    whole = summary["batch.run_batch"]["total_s"]
    engine = summary.get("simulator.run_session", {}).get("total_s", 0.0)
    return (whole - engine) / whole


def task_payload_bytes(workload: BundledBatch, ab, gate: Gate) -> float:
    """Mean pickled size of one task as Pool.map ships it, over one pool batch."""
    sizes: list[int] = []

    class MeasuringPool(multiprocessing.pool.Pool):
        def map(self, func, iterable, chunksize=None):
            tasks = list(iterable)
            sizes.extend(len(ForkingPickler.dumps(task)) for task in tasks)
            return super().map(func, tasks, chunksize)

    original = vars(ab["batch"]).get("Pool")
    if original is None:
        return 0.0
    ab["batch"].Pool = MeasuringPool
    try:
        prepared = workload.prepare()
        workload.verify(prepared, workload.run(prepared, no_lap), gate)
    finally:
        ab["batch"].Pool = original
    return statistics.fmean(sizes) if sizes else 0.0


def chunk_cost_sweep(ab, seed: int, sizes, probe: SpeedProbe) -> dict:
    """Untraced sba run_session cost per chunk as the session grows, at reference speed."""
    trace = ab["trace"].synthesize_oscillating_trace(seed, duration_s=LONG_TRACE_S)
    config = ab["simulator"].SessionConfig(policy="sba", loop_trace=True)
    out = {}
    for chunks in sizes:
        manifest, _ = long_inputs(ab, seed, chunks)
        times: list[float] = []
        probe.start()
        while sum(times) < SWEEP_MIN_S:
            t0 = time.perf_counter()
            ab["simulator"].run_session(manifest, trace, config)
            times.append(time.perf_counter() - t0)
        speed = probe.stop()
        out[f"simulator.us_per_chunk.n{chunks}"] = statistics.median(times) * speed / chunks * 1e6
    out["simulator.us_per_chunk.growth"] = (
        out[f"simulator.us_per_chunk.n{sizes[-1]}"] / out[f"simulator.us_per_chunk.n{sizes[0]}"])
    return out


# --------------------------------------------------------------------------
# One workload, end to end


def run_workload(name: str, seed: int, seconds: float, trace: bool, refs: References,
                 reduced: bool = False) -> dict:
    gate = Gate()
    probe = SpeedProbe()
    ab, workload, host_setup, setup = set_up(name, seed, refs, reduced, probe)
    if not workload.calibrated:
        probe = UnitSpeed()
    try:
        workload.after_setup(gate)
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "samples": {"host_setup_s": host_setup, "setup_s": setup}}
        if trace:
            traced = traced_run(name, workload, ab, gate, seconds, seed, refs, reduced, probe)
            report["samples"].update(traced.pop("samples"))
            report.update(traced)
        else:
            report["samples"].update(measure(workload, gate, seconds, probe))
        workload.finish(gate)
    finally:
        workload.close()
    rss_self, rss_children = peak_rss_mb()
    samples = report["samples"]
    report["end_to_end"] = {
        "wall_s": statistics.median(samples["wall_s"]),
        "cpu_s": statistics.median(samples["cpu_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": max(rss_self, rss_children),
    }
    report["bytes_written_mb"] = workload.bytes_written / 1e6
    report["failed_share"] = gate.failed_capped / max(gate.attempted, 1)
    report["gate"] = {"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed_capped, "problems": gate.problems}
    if trace:
        report["per_layer"].update({
            "batch.bytes_written_mb": report["bytes_written_mb"],
            "bench.peak_rss_self_mb": rss_self,
            "bench.peak_rss_children_mb": rss_children,
        })
    report["stamp"] = environment_stamp(workload.artifact)
    return report


def traced_run(name, workload, ab, gate, seconds, seed, refs, reduced, probe) -> dict:
    # The traced run is serial: spans are recorded in this process only.
    phase = workload
    if name == "bundled-batch-pool":
        phase = BundledBatch(1, "bundled-batch")
        phase.setup(ab, seed, refs, reduced)
    # Untraced and traced iterations alternate, so drift in machine speed
    # cancels out of the paired overhead.
    tracer = Tracer()
    samples: dict = {}
    traced, splits = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for key, values in measure(phase, gate, 0.0, probe).items():
            samples.setdefault(key, []).extend(values)
        wall, speed, split, missing = traced_iteration(phase, ab, gate, tracer, probe)
        traced.append(wall * speed)
        splits.append(split)
    samples["traced_wall_s"] = traced
    untraced = samples["wall_s"]
    per_layer = {key: statistics.median(s[key] for s in splits) for key in splits[0]}
    per_layer.update({
        "bench.untraced_wall_s": statistics.median(untraced),
        "bench.traced_wall_s": statistics.median(traced),
        "bench.trace_overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
        "batch.outside_engine_share": (
            outside_engine_share(phase, ab, gate) if isinstance(phase, BundledBatch) else 0.0),
        "batch.task_payload_bytes": (
            task_payload_bytes(workload, ab, gate) if name == "bundled-batch-pool" else 0.0),
    })
    per_layer.update(chunk_cost_sweep(ab, seed, SWEEP_CHUNKS, probe))
    write_spans(name, seed, tracer.spans)
    return {"samples": samples, "per_layer": per_layer,
            "unwrapped_targets": missing}


def write_spans(name: str, seed: int, spans: list) -> None:
    """Spans of the last traced iteration: name, start, end (s from its start), parent."""
    origin = min((s[1] for s in spans), default=0.0)
    path = os.path.join(RESULTS_DIR, f"{name}-seed{seed}.spans.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for idx, (span_name, start, end, parent) in enumerate(spans):
            fh.write(f"{idx}\t{span_name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def environment_stamp(artifact: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pool_jobs": pool_jobs(),
        "platform": platform.platform(),
        "git_head": git_head(),
        "source_sha256": source_digest(),
        "artifact_sha256": artifact,
    }


def git_head() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/abrsim/*.py, naming the code even where git is absent."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "abrsim", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Reporting


def load_metric_units() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return f"n={n}; p{pct:g} {ordered[math.ceil(pct / 100.0 * n) - 1]:.6g}"
    return f"n={n}; max {ordered[-1]:.6g}; p75 needs n>=40"


def print_report(report: dict, e2e_units: dict, layer_units: dict) -> dict:
    """Print every metric with its unit; return the JSON `metrics` object."""
    name = report["workload"]
    e2e = report["end_to_end"]
    samples = report["samples"]
    notes = {
        metric: f"{tail_note(samples[metric])}; host {statistics.median(samples['host_' + metric]):.6g} s"
        for metric in ("wall_s", "cpu_s", "setup_s")
    }
    speeds = [r / h for r, h in zip(samples["wall_s"], samples["host_wall_s"])]
    notes["wall_s"] += f" at speed {statistics.median(speeds):.3f}"
    notes["peak_rss_mb"] = "max of self and children, from getrusage"
    for metric, unit in e2e_units.items():
        print(f"{name:<20} {metric:<32} {e2e[metric]:>14.6g} {unit:<6} {notes.get(metric, '')}")
    print(f"{name:<20} {'bytes_written_mb':<32} {report['bytes_written_mb']:>14.6g} {'MB':<6} per iteration")
    print(f"{name:<20} {'failed_share':<32} {report['failed_share']:>14.6g} {'share':<6} "
          f"{report['gate']['failed']} of {report['gate']['attempted']} sessions")
    for problem in report["gate"]["problems"]:
        print(f"{name:<20} FAILED: {problem}")
    if not report["trace"]:
        return {m: {"value": e2e[m], "unit": u} for m, u in e2e_units.items()}
    layers = report["per_layer"]
    unknown = set(layers) ^ set(layer_units)
    if unknown:
        raise RuntimeError(f"per-layer metrics and BENCHMARK.json disagree on {sorted(unknown)}")
    for metric, unit in layer_units.items():
        print(f"{name:<20} {metric:<32} {layers[metric]:>14.6g} {unit}")
    for target in report["unwrapped_targets"]:
        print(f"{name:<20} not traced (absent from the program): {target}", file=sys.stderr)
    return {m: {"value": layers[m], "unit": u} for m, u in layer_units.items()}


def save_report(report: dict) -> None:
    path = os.path.join(
        RESULTS_DIR, f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


# --------------------------------------------------------------------------
# Self-check


def tamper_is_caught(seed: int, refs: References) -> list[str]:
    """Negative control: a one-digit change to one log must fail the gate."""
    ab = import_abrsim()
    replay = ReplayVerify()
    replay.setup(ab, seed, refs, reduced=True)
    try:
        replay.after_setup(Gate())
        victim = replay.logs[0]
        with open(victim, "r", encoding="utf-8") as fh:
            text = fh.read()
        at = text.index('"throughput_kbps": ') + len('"throughput_kbps": ')
        digit = "2" if text[at] == "1" else "1"
        with open(victim, "w", encoding="utf-8") as fh:
            fh.write(text[:at] + digit + text[at + 1:])
        problems = []
        gate = Gate()
        replay.verify(None, replay.run(None, no_lap), gate)
        if gate.failed == 0:
            problems.append("replay-verify accepted a tampered log")
        digests, _ = artifact_digests(replay.spec.output_dir)
        if not mismatched(digests, refs.batch, set(digests)):
            problems.append("artifact digests did not change when a log was tampered with")
        return problems
    finally:
        replay.close()


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run every workload once at reduced size, traced and untraced, "
                             "plus a tampered-log negative control")
    args = parser.parse_args(argv)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="tmp-", dir=RUN_DIR)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        try:
            e2e_units, layer_units = load_metric_units()
            refs = References(load_golden())
            import_abrsim()
        except (SetupError, OSError) as exc:
            print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
            return 2
        names = WORKLOAD_NAMES if args.check or args.workload == "all" else (args.workload,)
        seconds = 0.0 if args.check else args.seconds
        trace = args.check or bool(args.trace)
        reports = []
        for name in names:
            report = run_workload(name, args.seed, seconds, trace, refs, reduced=args.check)
            save_report(report)
            reports.append(report)
        extra_problems = tamper_is_caught(args.seed, refs) if args.check else []
        for problem in extra_problems:
            print(f"self-check FAILED: {problem}")
        metrics = {}
        for report in reports:
            printed = print_report(report, e2e_units, layer_units)
            if len(reports) == 1:
                metrics = printed
            else:
                metrics.update({f"{report['workload']}/{k}": v for k, v in printed.items()})
        for report in reports:
            print(f"{report['workload']:<20} stamp {json.dumps(report['stamp'], sort_keys=True)}")
        attempted = sum(r["gate"]["attempted"] for r in reports)
        failed = sum(r["gate"]["failed"] for r in reports)
        correct = all(r["gate"]["correct"] for r in reports) and not extra_problems
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
