#!/usr/bin/env python3
"""Correctness smoke of the repository benchmark.

Usage: check_perfbench_correct.py

Runs, from the repository root,

    python3 perfbench/run.py --workload fanin_wide --seed 1 --seconds 2 --trace 0

and fails unless the run's last stdout line is a JSON object with
"correct": true and "failed": 0. perfbench exits 0 even when its output
checks fail (the benchmark harness reads the verdict from the JSON), so
the exit status alone cannot gate CI. The command is fixed; the script
takes no arguments. Exits 0 on a correct run, 1 otherwise (2 on usage).
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = [sys.executable, "perfbench/run.py", "--workload", "fanin_wide",
           "--seed", "1", "--seconds", "2", "--trace", "0"]


def main(argv):
    if len(argv) > 1:
        print("usage: check_perfbench_correct.py (takes no arguments)", file=sys.stderr)
        return 2
    proc = subprocess.run(COMMAND, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        print("perfbench failed (exit %d, %d output lines): %s"
              % (proc.returncode, len(lines), " ".join(COMMAND)), file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        print("perfbench's last line is not JSON (%s): %s" % (err, lines[-1]), file=sys.stderr)
        return 1
    correct = result.get("correct") is True
    failed = result.get("failed")
    print("perfbench %s: correct=%s attempted=%s failed=%s"
          % (" ".join(COMMAND[2:]), result.get("correct"), result.get("attempted"), failed))
    if not correct or failed != 0:
        print("perfbench run is not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
