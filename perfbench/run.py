#!/usr/bin/env python3
"""Run one workload of the TagMatch benchmark.

    python3 perfbench/run.py --workload match_closed --seed 2017 --seconds 10 --trace 0

Builds the library, tagmatch_server and the harness from this checkout
(CMake, into $CARGO_TARGET_DIR or .bench_build), runs the harness, checks
its result line against BENCHMARK.json and prints it again as the last line
of standard output. Build output goes to standard error. Exits non-zero when
the build, the run or the check fails. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("match_closed", "match_open", "pubsub_churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the harness and the server."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target", "perfbench_harness",
                    "tagmatch_server"], check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "tagmatch", "src", "tools", "tagmatch_server"))


def check(result, trace):
    """Returns an error message if `result` breaks the BENCHMARK.json contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            return "%s has unit %r, expected %r" % (name, m.get("unit"), want[name])
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            return "%s has no finite value" % name
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.abspath(build_dir)
    try:
        harness, server = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--server", server]
    # The program sometimes aborts under load with "std::future_error:
    # Promise already satisfied", a bug of the program, not of the harness
    # (README.md, "Run-to-run spread"). Such a run is started once more, and
    # the crash is reported on standard output; a second crash fails the run.
    for attempt in range(2):
        # Its own process group, so a run that hangs is killed together with
        # the tagmatch_server it started.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S // 2)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print("perfbench: run exceeded %d s" % (RUN_TIMEOUT_S // 2), file=sys.stderr)
            return 3
        if proc.returncode >= 0 or attempt == 1:
            break
        print("perfbench: the harness was killed by signal %d; running it once more"
              % -proc.returncode)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        print("perfbench: harness exited with %d" % proc.returncode, file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: last line is not JSON: %r" % lines[-1], file=sys.stderr)
        return 3
    error = check(result, args.trace == 1)
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
