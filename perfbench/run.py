#!/usr/bin/env python3
"""perfbench entry point: build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --test        # build and run the benchmark's own tests

Run it from the repository root. The first call configures and builds
poqsim, the poqnet library and the poqbench binary (Release) into
.bench_build/; later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is always poqbench's JSON result.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = ".bench_build"
WORKLOADS = ["serve_converge", "serve_paper"]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no poqnet sources next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs, "--target", *targets],
        check=True,
        stdout=sys.stderr,
    )


def main():
    os.chdir(ROOT)
    testing = sys.argv[1:] == ["--test"]
    try:
        build(["perfbench_test"] if testing else ["poqbench", "poqsim"])
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    if testing:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    args = sys.argv[1:]
    # `--workload all` runs every workload in turn with the same options.
    workloads = [None]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        workloads = [(at, name) for name in WORKLOADS]
    worst = 0
    for workload in workloads:
        if workload is not None:
            args[workload[0]] = workload[1]
        # Relative paths keep the daemon's AF_UNIX socket path short.
        command = [
            os.path.join(BUILD_DIR, "poqbench"),
            *args,
            "--poqsim",
            os.path.join(BUILD_DIR, "poqnet", "poqsim"),
            "--work-dir",
            work_dir,
        ]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
