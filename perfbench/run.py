#!/usr/bin/env python3
"""Build the benchmark from source, then replace this process with it.

Usage (from the repository root):

    python3 perfbench/run.py --workload edit-loop|serve-warm|hw-sweep \\
        --seed N --seconds S --trace 0|1

The build honours CARGO_TARGET_DIR (default: perfbench/target). Build
output goes to stderr, so the benchmark's JSON result stays the last
line of stdout. Exec'ing the binary keeps each workload in its own
process, which is what its peak-RSS metric measures.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def revision():
    """A digest of the sources the benchmark builds, uncommitted edits
    included."""
    digest = hashlib.sha256()
    tops = ("Cargo.toml", "Cargo.lock", "crates", "vendor",
            "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src")
    for top in tops:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml", ".lc", ".lock"):
                digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
                digest.update(f.read_bytes())
    return "src:" + digest.hexdigest()[:16]


def main():
    os.chdir(ROOT)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or BENCH / "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        stdout=sys.stderr, env={**os.environ, "CARGO_TARGET_DIR": str(target)},
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = str(target / "release" / "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--revision", revision()])


if __name__ == "__main__":
    sys.exit(main())
