#!/usr/bin/env python3
"""Assert decotrace (post-hoc) and decomon (streaming) agree on one run.

Usage: check_reader_agreement.py DECOTRACE_JSON DECOMON_JSON

DECOTRACE_JSON is `decotrace --json` over a run's --trace-out dump,
DECOMON_JSON is `decomon --once --json` over the same run's
--telemetry-out stream. Both readers fold every trace with the same
landmark fold (obs::TraceFold), so on a loss-free stream they must
report the same flows with:

  traces                       equal per flow
  n, min_ns, max_ns            equal per phase
  p50_ns, p99_ns               equal per phase wherever decomon marks
                               the phase `exact` (no telemetry window
                               truncated its value list)

A loss-free stream means decomon saw no evicted open trace
(`evicted == 0`); otherwise the comparison is meaningless and the check
fails. Exits 0 on agreement, 1 on any mismatch.
"""
import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        post = {flow["flow"]: flow for flow in json.load(f)["flows"]}
    with open(argv[2]) as f:
        health = json.load(f)
    live = {flow["flow"]: flow for flow in health["flows"]}

    errors = []
    if health["evicted"] != 0:
        errors.append(f"decomon evicted {health['evicted']} open trace(s)")
    if not post:
        errors.append("decotrace reported no flows")
    if sorted(post) != sorted(live):
        errors.append(f"flow keys differ: decotrace {sorted(post)} vs decomon {sorted(live)}")
    exact_checked = 0
    for key in sorted(set(post) & set(live)):
        a, b = post[key], live[key]
        if a["traces"] != b["traces"]:
            errors.append(f"{key}: traces {a['traces']} vs {b['traces']}")
        if sorted(a["phases"]) != sorted(b["phases"]):
            errors.append(f"{key}: phases {sorted(a['phases'])} vs {sorted(b['phases'])}")
        for phase in sorted(set(a["phases"]) & set(b["phases"])):
            pa, pb = a["phases"][phase], b["phases"][phase]
            fields = ["n", "min_ns", "max_ns"]
            if pb["exact"]:
                fields += ["p50_ns", "p99_ns"]
                exact_checked += 1
            for field in fields:
                if pa[field] != pb[field]:
                    errors.append(f"{key}/{phase}: {field} {pa[field]} vs {pb[field]}")

    for e in errors:
        print("reader mismatch:", e, file=sys.stderr)
    if errors:
        return 1
    print(f"readers agree: {len(post)} flow(s), {exact_checked} exact phase(s) "
          f"compared on percentiles")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
