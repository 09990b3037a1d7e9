#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --self-test

Builds perfbench/ (which pulls in the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs the benchmark binary, whose last stdout line is the result JSON.
`--workload all` runs every workload untraced and traced and prints both
metric tables. Build output goes to stderr so stdout stays the benchmark's.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["sweep_heavy", "sweep_wide", "service_query"]


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_id() -> str:
    """The commit when the tree is a git checkout, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(out: Path) -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(out), "-j", jobs])


def run_build_step(cmd) -> None:
    step = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def run_bench(out: Path, workload: str, seed: int, seconds: float, trace: int,
              capture: bool = False):
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out / "out"), "--source", source_id()]
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    build(out)
    if args.self_test:
        return subprocess.run([str(out / "perfbench_test")]).returncode
    if args.workload != "all":
        return run_bench(out, args.workload, args.seed, args.seconds,
                         args.trace).returncode

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run_bench(out, workload, args.seed, args.seconds, trace, capture=True)
            sys.stderr.write(res.stderr)
            lines = res.stdout.splitlines()
            print("== %s (%s)" % (workload, "per-layer, traced" if trace else
                                  "end-to-end, untraced"))
            print("\n".join(lines[:-1]))
            print("exit %d; result: %s" % (res.returncode, lines[-1] if lines else "none"))
            status = status or res.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
