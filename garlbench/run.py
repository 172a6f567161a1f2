#!/usr/bin/env python3
"""Entry point of the garl benchmark (see README.md in this directory).

    python3 garlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (and the garl libraries it links) from the sources of
the checkout it sits in, into .bench_build/ (or $CARGO_TARGET_DIR), runs the
benchmark's self-test, then one run of one workload with the workload's
GARL_NUM_THREADS. The last line of stdout is the run's JSON result; build
logs and progress go to stderr. Exits non-zero without a result when the
sources are missing, the build or self-test fails, or the run does not end
in time.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pool size per workload (GARL_NUM_THREADS counts the calling thread).
# serve-kaist: 2 workers plus the server's dispatcher; with the open-loop
# generator that is 4 threads on a 4-core machine.
THREADS = {"train-kaist": 4, "rollout-ucla": 4, "serve-kaist": 3}

# A run must end within 180 s, counted from when the build is up to date;
# the first run in a checkout, which builds everything, within 900 s.
RUN_DEADLINE_S = 170.0
FIRST_RUN_DEADLINE_S = 895.0
BUILD_DEADLINE_S = 850.0
RECENT_UNTRACED = 3  # untraced runs the tracing overhead is measured against


def log(message):
    print("garlbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "garlbench")


def run_quiet(cmd, deadline_s):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=deadline_s)
    except (OSError, subprocess.TimeoutExpired) as error:
        log("build step failed: %s" % error)
        return False
    return done.returncode == 0


def build(started):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no garl sources next to the benchmark (%s/src); cannot build"
            % ROOT)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"],
                         BUILD_DEADLINE_S - (time.time() - started)):
            return None
    if not run_quiet(["cmake", "--build", out, "-j", jobs],
                     BUILD_DEADLINE_S - (time.time() - started)):
        return None
    selftest = os.path.join(out, "garlbench_selftest")
    if not run_quiet([selftest], 60):
        log("self-test failed")
        return None
    return out


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_workload(binary, args, deadline_s):
    env = dict(os.environ)
    env["GARL_NUM_THREADS"] = str(THREADS[args.workload])
    env["GARLBENCH_COMMIT"] = commit()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        log("run did not end within %.0f s; killed" % deadline_s)
        return None, None
    finally:
        # Also reached when run.py itself is interrupted or terminated.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log("run failed with exit code %d" % proc.returncode)
        return None, None
    return lines[:-1], lines[-1]


def valid_result(line, names):
    """The parsed result when it has the contract's shape and exactly the
    declared metrics, each a finite number; None otherwise."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    # A run cut short by an operation bound reports no metrics.
    if result["metrics"] and set(result["metrics"]) != set(names):
        return None
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if (name not in names or isinstance(value, bool) or
                not isinstance(value, (int, float)) or
                not math.isfinite(value)):
            return None
    return result


def end_to_end_line(lines):
    for line in lines:
        if line.startswith("garlbench: end-to-end "):
            return json.loads(line[len("garlbench: end-to-end "):])
    return None


def record_and_report_overhead(args, lines, result):
    """Keeps each run's end-to-end numbers in the build directory and, for a
    traced run, prints how far its headline metric is from the median of the
    latest untraced runs of the same workload and length: the tracing
    overhead. Only recent runs count, since a shared machine's speed drifts
    over minutes."""
    e2e = end_to_end_line(lines)
    if e2e is None:
        return
    path = os.path.join(build_dir(), "results.jsonl")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "end_to_end": e2e, "correct": result["correct"],
              "failed": result["failed"]}
    with open(path, "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    if not args.trace:
        return
    metric = "op_ms"  # every workload's headline end-to-end metric
    untraced = []
    with open(path) as records:
        for line in records:
            old = json.loads(line)
            if (old["workload"] == args.workload and not old["trace"] and
                    old["seconds"] == args.seconds and
                    metric in old["end_to_end"]):
                untraced.append(old["end_to_end"][metric]["value"])
    if not untraced:
        print("garlbench: tracing overhead: no untraced %s run of this "
              "length here yet" % args.workload)
        return
    untraced = untraced[-RECENT_UNTRACED:]
    base = statistics.median(untraced)
    traced = e2e[metric]["value"]
    print("garlbench: tracing overhead on %s: traced %.6g vs untraced "
          "median %.6g over %d runs (%+.2f%%)"
          % (metric, traced, base, len(untraced),
             100.0 * (traced - base) / base))


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    started = time.time()
    # SIGTERM unwinds like Ctrl-C, so the run's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(THREADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build(started)
    if out is None:
        return 1
    deadline_s = min(RUN_DEADLINE_S,
                     FIRST_RUN_DEADLINE_S - (time.time() - started))
    lines, last = run_workload(os.path.join(out, "garlbench"), args,
                               deadline_s)
    if last is None:
        return 1
    names = metric_names(args.trace)
    result = valid_result(last, names)
    if result is None:
        log("malformed result line: %s" % last)
        return 1
    for line in lines:
        print(line)
    record_and_report_overhead(args, lines, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
