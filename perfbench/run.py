#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload relay_small|fanin_wide|sim_cluster \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output is logged there, not printed.
The last stdout line is the perfbench binary's JSON result. Exit status is
the binary's, or 1 if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("perfbench: build failed (%s); see %s\n"
                                 % (" ".join(step[:2]), log_path))
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return False
    return True


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(os.getcwd(), build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return 1
    if argv == ["--selftest"]:
        return subprocess.call([os.path.join(build_dir, "perfbench_selftest")])
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench")] + argv + ["--trace-dir", trace_dir]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
