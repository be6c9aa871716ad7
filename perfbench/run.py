#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_observed --seed 1 --seconds 10 --trace 0

Workloads: serve_observed, launch_churn, scale_10440. `--trace 0` measures
the end-to-end metrics; `--trace 1` is the traced run that gives the
per-layer metrics. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

The script builds `perfbench/` (its own Cargo package) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), pins `TSM_THREADS` to
1 (one executor worker, on the calling thread), stamps the run with the rustc version, the
git commit and a fingerprint of the sources, and runs the binary. Records,
Perfetto traces and self-time tables go to `perfbench/out/`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE_DIRS = ("crates", "stubs", "src", "perfbench")
SKIP_DIRS = {"out", "target", ".bench_build"}


def source_fingerprint():
    """Hash of every manifest and Rust source the benchmark builds from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml")]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            paths.extend(
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith((".rs", ".toml", ".lock"))
            )
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    """First line of `cmd`'s output, or None if it cannot run."""
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip().splitlines()[0] if out.stdout.strip() else None


def git_commit():
    """The checkout's commit, if the checkout itself is a git work tree."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "none"
    return command_output(["git", "rev-parse", "HEAD"]) or "none"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # One executor worker: chips then run inline on the calling thread.
    # On a 2-vCPU host a wider pool was no faster, and its per-level
    # barrier turned a descheduled vCPU into a stalled execute, so the
    # run-to-run spread of the host metrics grew past their bounds. The
    # traced run of scale_10440 widens the pool itself to time it.
    env.update(
        TSM_THREADS="1",
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]) or "unknown",
        PERFBENCH_COMMIT=git_commit(),
        PERFBENCH_SOURCE=source_fingerprint(),
    )
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(HERE, "out")
    return subprocess.run([binary, "--out", out_dir] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
