#!/usr/bin/env python3
"""Check that the bundled batch is byte-identical on every CPython 3.10 to 3.13.

    python3 scripts/check_golden.py

Runs `perfbench/make_golden.py --check` under each interpreter it finds, as
`python3.X` on PATH or under pyenv (`$PYENV_ROOT`, default `~/.pyenv`), and
compares the digest each run prints with the digest of the files pinned in
`perfbench/golden.json`.  Names every interpreter it ran and every version it
could not find.  Exits 0 only when at least one interpreter ran and every run
printed the pinned digest over the pinned number of files.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
VERSIONS = ("3.10", "3.11", "3.12", "3.13")

sys.path.insert(0, PERFBENCH)
from run import GOLDEN_PATH, digest_of  # noqa: E402  (perfbench/run.py, as make_golden.py uses it)


def pinned() -> tuple[int, str]:
    """File count and digest of perfbench/golden.json, as make_golden.py prints them."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    return len(files), digest_of(files)


def find_interpreter(version: str) -> str | None:
    """The first `pythonX.Y` on PATH or under pyenv that runs as that version."""
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which(f"python{version}")]
    candidates += sorted(glob.glob(os.path.join(pyenv, "versions", f"{version}.*", "bin", f"python{version}")))
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                                   capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return exe
    return None


def main() -> int:
    count, digest = pinned()
    print(f"pinned: {count} files, digest {digest}")
    ran = bad = 0
    for version in VERSIONS:
        exe = find_interpreter(version)
        if exe is None:
            print(f"python{version}: not found")
            continue
        ran += 1
        proc = subprocess.run([exe, os.path.join(PERFBENCH, "make_golden.py"), "--check"],
                              cwd=ROOT, capture_output=True, text=True)
        match = re.search(r"^python (\S+): (\d+) files, digest ([0-9a-f]+)$", proc.stdout, re.M)
        ok = proc.returncode == 0 and match is not None and match.group(2, 3) == (str(count), digest)
        bad += not ok
        print(f"{exe}: {'ok' if ok else 'MISMATCH'}: {match.group(0) if match else 'no digest printed'}")
        if proc.returncode != 0:
            print(proc.stderr.strip()[-2000:], file=sys.stderr)
    if not ran:
        print("no CPython 3.10 to 3.13 found")
    return 1 if bad or not ran else 0


if __name__ == "__main__":
    sys.exit(main())
