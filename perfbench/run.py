#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. The first call configures and builds the
`ceaff_perfbench` binary (perfbench/CMakeLists.txt, compiling the library
from src/) under $CARGO_TARGET_DIR, default `.bench_build`; later calls
rebuild incrementally. Workloads and metrics are described in
perfbench/README.md and declared in BENCHMARK.json.

--trace 0 runs one untraced pass and reports the end-to-end metrics; every
workload measures each of them.
--trace 1 runs an untraced pass and then a traced pass of the same seed. It
reports the per-layer metrics of the traced pass, plus, for every
end-to-end metric, `trace_overhead.<metric>` = traced minus untraced. A
layer the workload does not call reads 0.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("align", "topk_local", "topk_sharded", "delta_ingest")
# Quality is a pure function of the seed: tracing must not move it.
QUALITY = ("quality",)
PASS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def host_facts(since=None):
    """nproc and load average; with `since`, the share of CPU time the
    hypervisor stole since that cpu_ticks() snapshot."""
    nproc = len(os.sched_getaffinity(0))
    load = " ".join("%.2f" % x for x in os.getloadavg())
    facts = "host nproc %d loadavg %s" % (nproc, load)
    if since is not None:
        steal, total = cpu_ticks()
        if total > since[1]:
            facts += " steal %.1f%%" % (
                100.0 * (steal - since[0]) / (total - since[1]))
    return facts


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src: run from a full checkout" % ROOT)
    out = build_dir()
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out, "--target", "ceaff_perfbench",
                "-j", jobs]
    # Configure once per tree; `cmake --build` re-configures by itself when
    # a CMakeLists changes. A tree another checkout configured is started
    # over.
    home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + os.path.join(ROOT, "perfbench")
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            configured = home in f.read().splitlines()
    except OSError:
        configured = False
    if not configured and \
            subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(out, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "ceaff_perfbench")


def run_pass(binary, args, traced):
    """One process, one pass; returns the parsed result object."""
    scratch = os.path.dirname(build_dir())
    tag = "%s-%d-%d" % (args.workload, args.seed, int(traced))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--work_dir",
           os.path.join(scratch, "work", "%s-%d" % (tag, os.getpid()))]
    if traced:
        os.makedirs(os.path.join(scratch, "trace"), exist_ok=True)
        cmd += ["--trace_out", os.path.join(scratch, "trace", tag + ".jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s pass timed out" % tag)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s pass exited %d without a result" % (tag, proc.returncode))
    verdict = "correct" if result["correct"] else \
        "CHECKS FAILED " + "; ".join(result["check_failures"])
    print("pass %s: %s" % (tag, verdict))
    return result


def declared_units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own test)")
    args = parser.parse_args()

    binary = build()
    print(host_facts())
    start_ticks = cpu_ticks()
    untraced = run_pass(binary, args, traced=False)
    correct = untraced["correct"]
    attempted, failed = untraced["attempted"], untraced["failed"]
    if args.trace == 0:
        metrics = untraced["end_to_end"]
        kind = "end_to_end"
    else:
        traced = run_pass(binary, args, traced=True)
        correct = correct and traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = dict(traced["per_layer"])
        for name, m in untraced["end_to_end"].items():
            delta = traced["end_to_end"][name]["value"] - m["value"]
            metrics["trace_overhead." + name] = {"value": delta,
                                                 "unit": m["unit"]}
            if name in QUALITY and delta != 0:
                print("CHECK FAILED: %s differs between the traced and the "
                      "untraced pass" % name)
                correct = False
        kind = "per_layer"
    print(host_facts(since=start_ticks))

    units = declared_units(kind)
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail("metric %s (%s) is not declared in BENCHMARK.json %s"
                 % (name, m["unit"], kind))
    for name, unit in units.items():
        if name in metrics:
            continue
        if kind == "end_to_end":
            fail("the %s pass did not measure %s" % (args.workload, name))
        # Layers this workload never calls: no spans, no counts.
        metrics[name] = {"value": 0, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
