#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (release, default
features) into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
cell. The benchmark's last stdout line is the result JSON; on any failure
nothing is printed as a result and the exit code is non-zero. Spans, the
ladder's raw reps and a copy of each result go to `perfbench/out/`.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# A cell gets this long before it is killed; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench/src"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml") and "target" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed, no result", file=sys.stderr)
        return 2
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_REV"] = source_rev()
    binary = target / "release" / "clof-perfbench"
    try:
        run = subprocess.run(
            [str(binary), *sys.argv[1:], "--out", str(BENCH / "out")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed and reaped the child.
        sys.stdout.write(exc.stdout or "")
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if run.returncode != 0:
        # Keep the diagnostics, but never a result-shaped last line.
        sys.stderr.write(run.stdout)
        return run.returncode
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
