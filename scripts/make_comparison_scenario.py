"""Regenerate the bundled comparison scenario under scenarios/comparison/.

The scenario is frozen in the repository; this script exists so the
artifacts can be rebuilt from scratch.  Same seeds, same files.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from abrsim.manifest import (
    NETFLIX_LADDER_KBPS,
    BitrateLadder,
    SaturationProfile,
    save_manifest,
    synthesize_manifest,
)
from abrsim.trace import save_trace, synthesize_oscillating_trace

CHUNKS = 150
CHUNK_DURATION_S = 4.0
MANIFEST_SEED = 42
TRACE_SEEDS = range(24)
TRACE_DURATION_S = 600.0


def main() -> None:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios", "comparison")
    root = os.path.normpath(root)
    traces_dir = os.path.join(root, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    manifest = synthesize_manifest(
        BitrateLadder(NETFLIX_LADDER_KBPS),
        CHUNKS,
        CHUNK_DURATION_S,
        SaturationProfile(jitter_seed=MANIFEST_SEED),
    )
    save_manifest(manifest, os.path.join(root, "manifest.json"))

    for seed in TRACE_SEEDS:
        trace = synthesize_oscillating_trace(seed=seed, duration_s=TRACE_DURATION_S)
        save_trace(trace, os.path.join(traces_dir, f"trace_{seed:02d}.csv"))

    spec = {
        "manifest": "manifest.json",
        "traces": ["traces/trace_*.csv"],
        "policies": ["sba", "bba", "festive", "osmf"],
        "scenarios": [[120, 12], [240, 12]],
        "output_dir": "out",
        "loop_traces": True,
        "seed": MANIFEST_SEED,
    }
    with open(os.path.join(root, "runspec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
        fh.write("\n")
    print(f"wrote scenario under {root}")


if __name__ == "__main__":
    main()
