#!/usr/bin/env python3
"""Run one workload of the pdnn benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the harness from source into the build directory ($CARGO_TARGET_DIR
when set, else .bench_build); later calls only re-check the build. Before each
run the harness's own arithmetic is checked (perfbench_selftest).

The workloads, metrics and bounds are listed in BENCHMARK.json at the checkout
root; perfbench/README.md explains what each metric measures and which
end-to-end metric each per-layer metric should move.

Output: every metric by name with its unit, the host block, and as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}. The full
result, host block included, is also written to <build>/results/, and with
--trace 1 a Chrome trace-event file to <build>/traces/ (opens in Perfetto).

Exit codes: 0 all answers correct; 1 a wrong answer or a failed self-check;
2 usage, build or harness error (no result printed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: harness self-check failed", file=sys.stderr)
        sys.exit(1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(build_dir, "traces", tag + ".json")]
    # A traced run measures the budget in two halves; each may overrun by its
    # last training repetition, and set-up, model preparation and the probe
    # come on top. At most 170 s for budgets up to 40 s.
    timeout_s = max(170, 2 * args.seconds + 90)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout_s, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {timeout_s:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no JSON result")

    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    with open(os.path.join(build_dir, "results", tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in got:
            value = got[name]["value"]
            if got[name]["unit"] != m["unit"] or not isinstance(value, (int, float)):
                fail(f"metric {name}: harness gave {got[name]}, BENCHMARK.json says {m['unit']}")
        elif args.trace:
            value = 0  # this layer is not on this workload's path
        else:
            fail(f"harness did not report end-to-end metric {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    print("host: " + json.dumps(result["host"], sort_keys=True))
    if result["kept_share"] < 1:
        print(f"measured on {result['kept_share']:.0%} of the run "
              "(the rest had too much CPU time stolen by the hypervisor)")
    if not result["valid"]:
        print("INVALID RUN (not comparable, not a regression): " + result["invalid_reason"])
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        note = "" if args.trace == 0 or name in got else "  (not on this workload's path)"
        print(f"{name:<{width}} = {m['value']:.6g} {m['unit']}{note}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
