"""Trace-driven simulator for DASH adaptive-bitrate policies.

The package replays bandwidth traces against video manifests that carry a
per-chunk, per-level SSIM table, runs one of four adaptation policies, and
reports rebuffering, switching instability, mean SSIM, and mean bitrate.
"""

from .abr import POLICIES, Decision, Observation, decide, make_policy
from .batch import (
    BatchResult,
    RunSpec,
    RunSpecError,
    emit_comparison_table,
    load_runspec,
    run_batch,
)
from .estimators import (
    SsimVariationHistory,
    ThroughputHistory,
    estimated_bandwidth_kbps,
    mean_ssim_delta,
    record_display_transition,
    record_download,
)
from .manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    ManifestError,
    SaturationProfile,
    VideoManifest,
    load_manifest,
    manifest_from_dict,
    save_manifest,
    synthesize_manifest,
)
from .metrics import (
    AGGREGATE_CSV_COLUMNS,
    AggregateReport,
    SESSION_CSV_COLUMNS,
    SessionReport,
    aggregate,
    aggregates_csv,
    session_metrics,
    sessions_csv,
)
from .simulator import (
    LogFormatError,
    SessionConfig,
    SessionEventLog,
    replay_diff,
    run_session,
)
from .trace import (
    BandwidthTrace,
    TraceError,
    TraceExhaustedError,
    download_finish_time,
    load_trace,
    save_trace,
    synthesize_oscillating_trace,
    transferred_kilobits,
)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATE_CSV_COLUMNS",
    "AggregateReport",
    "BandwidthTrace",
    "BatchResult",
    "BitrateLadder",
    "Decision",
    "LogFormatError",
    "ManifestError",
    "NETFLIX_LADDER_KBPS",
    "Observation",
    "POLICIES",
    "RunSpec",
    "RunSpecError",
    "SESSION_CSV_COLUMNS",
    "SaturationProfile",
    "SessionConfig",
    "SessionEventLog",
    "SessionReport",
    "SsimVariationHistory",
    "ThroughputHistory",
    "TraceError",
    "TraceExhaustedError",
    "VideoManifest",
    "aggregate",
    "aggregates_csv",
    "decide",
    "download_finish_time",
    "emit_comparison_table",
    "estimated_bandwidth_kbps",
    "load_manifest",
    "load_runspec",
    "load_trace",
    "make_policy",
    "manifest_from_dict",
    "mean_ssim_delta",
    "record_display_transition",
    "record_download",
    "replay_diff",
    "run_batch",
    "run_session",
    "save_manifest",
    "save_trace",
    "session_metrics",
    "sessions_csv",
    "synthesize_manifest",
    "synthesize_oscillating_trace",
    "transferred_kilobits",
]
