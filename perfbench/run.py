#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload read_mostly_uniform --seed 1 --seconds 10 --trace 0

The build's output goes to stderr; stdout carries only the benchmark's
report, whose last line is one JSON object. The exit code is the
benchmark's (non-zero on a failed build, a failed check or bad arguments).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "Cargo.toml"
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=HERE,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    root = HERE.parent
    for top in ("crates", "vendor", "perfbench/src"):
        for p in sorted((root / top).rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml"):
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    binary = target / "release" / "perfbench"
    env = dict(os.environ, BENCH_COMMIT=source_id())
    try:
        run = subprocess.run([str(binary)] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
