#!/usr/bin/env python3
"""Build and run the exact-solver benchmark for one workload.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build/ (or into
$CARGO_TARGET_DIR when that is set), then runs it with the same
arguments. Everything the run writes, the spill store's segment files
included, stays under that directory. The program's standard output is
passed through: JSON lines with the run's provenance and a summary, then
as the last line the result object. The exit code is the program's: 0
only when every solve matched its reference; build failures and a
missing source tree exit 2, a run past its time limit exits 3.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_sha256():
    """Digest of the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd, timeout, env, stdout):
    """Run cmd to completion; on timeout kill its process group and wait."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail(f"{ROOT} holds no solver sources (dune-project, lib/)")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp_dir)

    code = run(
        ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
         "--profile", "release", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, env, stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed" if code is not None else "build timed out")

    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    code = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, env, stdout=None,
    )
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
