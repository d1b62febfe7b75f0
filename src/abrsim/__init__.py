"""Trace-driven simulator for DASH adaptive-bitrate policies.

The package replays bandwidth traces against video manifests that carry a
per-chunk, per-level SSIM table, runs one of four adaptation policies, and
reports rebuffering, switching instability, mean SSIM, and mean bitrate.
The names below are the documented library API; everything else lives in
the submodules (abr, batch, estimators, manifest, metrics, simulator, trace).
"""

from .abr import POLICIES, decide, make_policy
from .batch import load_runspec, run_batch
from .manifest import load_manifest
from .metrics import aggregate, session_metrics
from .simulator import SessionConfig, replay_diff, run_session
from .trace import load_trace

__version__ = "0.1.0"

__all__ = [
    "POLICIES",
    "SessionConfig",
    "aggregate",
    "decide",
    "load_manifest",
    "load_runspec",
    "load_trace",
    "make_policy",
    "replay_diff",
    "run_batch",
    "run_session",
    "session_metrics",
]
