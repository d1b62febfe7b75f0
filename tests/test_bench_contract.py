"""The benchmark's view of the code.

`perfbench/run.py` imports this checkout afresh, builds the long-session
inputs, rebuilds a session config from a log header and wraps its
`TRACE_TARGETS` to split time by layer.  Its frozen header reader must give
the config the library's `open_log` gives, so the two cannot drift.  A target the code no longer has is
skipped silently and its layer reads 0, so this test pins the set of
unresolved targets: a rename that drops another layer fails here.  It runs
the benchmark's own functions in a subprocess, as the benchmark does, and
changes nothing under perfbench/.
"""

import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# Targets that name code abrsim no longer has: the per-chunk estimators were
# folded into the engine's running means, and reports are no longer dicts.
KNOWN_UNRESOLVED = {
    "estimators.estimated_bandwidth_kbps",
    "estimators.mean_ssim_delta",
    "estimators.record_download",
    "estimators.record_display_transition",
    "metrics.SessionReport.to_dict",
}

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
from spans import Tracer, installed

ab = run.import_abrsim()
simulator = ab["simulator"]
manifest, trace = run.long_inputs(ab, 731, 150)
config = simulator.SessionConfig(policy="sba", loop_trace=True)
tracer = Tracer()
with installed(tracer, ab, run.TRACE_TARGETS) as missing:
    log, report = simulator.run_session(manifest, trace, config)
print(json.dumps({
    "chunks": manifest.chunk_count,
    "displayed": len(report.displayed),
    "partial": report.partial,
    "header_config_matches": run.config_from_header(simulator, log.header) == config,
    "open_log_matches": simulator.open_log(log, manifest) == run.config_from_header(simulator, log.header),
    "spans": sorted({span[0] for span in tracer.spans}),
    "missing": missing,
}))
"""


def test_benchmark_imports_the_checkout_and_resolves_its_trace_targets():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave no cache files in perfbench/
    done = subprocess.run([sys.executable, "-c", PROBE, PERFBENCH], capture_output=True, text=True,
                          env=env, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert (seen["chunks"], seen["displayed"], seen["partial"]) == (150, 150, False)
    assert seen["header_config_matches"]
    assert seen["open_log_matches"]
    assert {"simulator.run_session", "abr.decide", "trace.finish_time",
            "metrics.session_metrics"} <= set(seen["spans"])
    assert set(seen["missing"]) == KNOWN_UNRESOLVED
