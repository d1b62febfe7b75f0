#!/usr/bin/env python3
"""Write perfbench/golden.json: digests of the byte-stable bundled batch outputs.

    python3.10 perfbench/make_golden.py --check   # prints the digest, writes nothing
    python3.11 perfbench/make_golden.py 3.10 3.11 # records it for those interpreters

The golden file pins the event logs, CSVs, plots and comparison table that
the roadmap requires to stay byte-identical.  Record it only for the Python
versions that produce these exact bytes: from 3.12 on, builtin `sum()` uses
compensated summation and the last bits of some floats differ.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def stable_digests() -> dict:
    ab = run.import_abrsim()
    spec = ab["batch"].load_runspec(run.SPEC_PATH)
    os.makedirs(run.RUN_DIR, exist_ok=True)
    spec.output_dir = tempfile.mkdtemp(prefix="golden-", dir=run.RUN_DIR)
    spec.jobs = 1
    try:
        result = ab["batch"].run_batch(spec)
        if result.failures:
            raise SystemExit(f"bundled batch failed: {result.failures[:3]}")
        digests, _ = run.artifact_digests(spec.output_dir)
    finally:
        shutil.rmtree(spec.output_dir)
    return {k: v for k, v in sorted(digests.items()) if run.is_stable(k)}


def main(argv: list[str]) -> int:
    digests = stable_digests()
    print(f"python {sys.version.split()[0]}: {len(digests)} files, digest {run.digest_of(digests)}")
    if argv == ["--check"]:
        return 0
    if not argv:
        raise SystemExit("name the Python versions (major.minor) these bytes hold for")
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"python": argv, "files": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
