#!/usr/bin/env python3
"""Compare fresh BENCH_kernels.json runs against a baseline and flag perf
regressions.

Usage:
  tools/bench_diff.py BASELINE.json CANDIDATE.json [CANDIDATE.json ...]
                      [--threshold 0.5]

Rows are matched on (kernel, shape, threads) and compared on
`speedup_vs_naive` — a machine-relative metric, so a committed baseline
from one box is still meaningful on another (absolute seconds are not).
Naive rows (threads == 0) are the 1.0 reference by construction and are
skipped. With several candidate files (back-to-back runs of one build),
each row is gated on the median of its candidate speedups: one noisy run
of an oversubscribed row cannot fail the gate by itself, while a kernel
that really fell off a cliff is slow in most runs.

Exit status is 1 when:
  * any candidate reports parity_failures > 0 (wrong answers trump any
    timing), or
  * any matched row's median speedup dropped by more than --threshold
    relative to the baseline, i.e. median < baseline * (1 - threshold), or
  * a baseline row is missing from a candidate (a dropped kernel or
    shape must not leave the gate silently).

The default threshold (0.5) is deliberately loose: micro-benchmarks on a
shared/virtualised box jitter by tens of percent, and this gate exists to
catch "the kernel fell off a cliff" (a lost fast path, a serialized
parallel path), not 10% scheduler noise. Rows present only in the
candidate are reported but never fail the gate — benchmarks grow over
time; retiring a row means regenerating the committed baseline.
"""

import argparse
import json
import statistics
import sys


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for entry in doc.get("entries", []):
        threads = entry.get("threads", 0)
        if threads == 0:
            continue  # naive reference row: speedup 1.0 by definition
        key = (entry.get("kernel", "?"), entry.get("shape", "?"), threads)
        rows[key] = float(entry.get("speedup_vs_naive", 0.0))
    return doc, rows


def main():
    parser = argparse.ArgumentParser(
        description="Diff micro_kernels JSON reports for regressions.")
    parser.add_argument("baseline")
    parser.add_argument("candidates", nargs="+", metavar="candidate")
    parser.add_argument(
        "--threshold", type=float, default=0.5,
        help="max allowed relative drop in speedup_vs_naive (default 0.5 "
             "= candidate may not be slower than half the baseline ratio)")
    args = parser.parse_args()

    _, base = load_rows(args.baseline)
    failures = []
    runs = []
    for path in args.candidates:
        cand_doc, rows = load_rows(path)
        parity = int(cand_doc.get("parity_failures", 0))
        if parity > 0:
            failures.append(f"{path} reports {parity} parity failure(s)")
        runs.append(rows)

    # A row is compared only when every run has it; one missing from any
    # run counts as gone.
    in_all = set.intersection(*(set(rows) for rows in runs))
    cand = {key: statistics.median(rows[key] for rows in runs)
            for key in in_all}
    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    print(f"bench_diff: {len(runs)} candidate run(s), {len(shared)} shared "
          f"rows, {len(only_base)} baseline-only, {len(only_cand)} "
          f"candidate-only (median speedup gated; drop > "
          f"{args.threshold:.0%} fails)")
    worst = None
    for key in shared:
        b, c = base[key], cand[key]
        ratio = c / b if b > 0 else float("inf")
        flag = ""
        if b > 0 and c < b * (1.0 - args.threshold):
            flag = "  << REGRESSION"
            failures.append(
                f"{key[0]} {key[1]} @{key[2]}t: speedup {b:.2f} -> {c:.2f} "
                f"({ratio:.0%} of baseline)")
        if worst is None or ratio < worst[0]:
            worst = (ratio, key, b, c)
        print(f"  {key[0]:<20} {key[1]:<24} {key[2]:>2}t  "
              f"base {b:6.2f}x  cand {c:6.2f}x  ({ratio:6.1%}){flag}")
    for key in only_base:
        print(f"  {key[0]:<20} {key[1]:<24} {key[2]:>2}t  "
              f"base {base[key]:6.2f}x  cand      -  << ROW GONE")
        failures.append(f"{key[0]} {key[1]} @{key[2]}t: baseline row "
                        f"missing from a candidate run")
    for key in only_cand:
        print(f"  {key[0]:<20} {key[1]:<24} {key[2]:>2}t  "
              f"base      -  cand {cand[key]:6.2f}x  (new row)")

    if worst is not None:
        _, key, b, c = worst
        print(f"bench_diff: worst shared row {key[0]} {key[1]} @{key[2]}t "
              f"({b:.2f}x -> {c:.2f}x)")
    if failures:
        print("bench_diff: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
