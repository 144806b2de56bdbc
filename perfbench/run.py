#!/usr/bin/env python3
"""The SEANCE benchmark: builds perfbench/ against ../src, then runs it.

Run from the repository root:

  python3 perfbench/run.py --workload harder-batch --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --steadiness --runs 5

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
build output to stderr.  A benchmark run's last stdout line is its JSON
result; README.md explains the workloads and metrics.  --steadiness runs two
interleaved sets of every workload over the same seeds and prints each
end-to-end metric's median, quartiles and spread per set against the bound
in BENCHMARK.json, setup_s included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["harder-batch", "hardest-batch"]


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, builds incrementally; returns the build directory."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no SEANCE sources at %s" % os.path.join(ROOT, "src"))
    bdir = os.path.join(build_root(), "perfbench")
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], stdout=sys.stderr, check=True,
                   env=env)
    return bdir


def bench_command(bdir, workload, seed, seconds, trace):
    return [os.path.join(bdir, "seance_perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--golden", os.path.join(ROOT, "tests", "data", "golden_corpus.csv"),
            "--out-dir", build_root()]


def run_once(bdir, workload, seed, seconds, trace):
    """One benchmark process; returns its parsed JSON result."""
    out = subprocess.run(bench_command(bdir, workload, seed, seconds, trace),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(bdir, runs, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    log_path = os.path.join(build_root(), "steadiness.jsonl")
    results = {(s, w): [] for s in "AB" for w in WORKLOADS}
    with open(log_path, "w") as log:
        for r in range(runs):
            for s in "AB":
                for w in WORKLOADS:
                    res = run_once(bdir, w, r + 1, seconds, 0)
                    results[(s, w)].append(res)
                    log.write(json.dumps({"set": s, "workload": w, "seed": r + 1,
                                          "result": res}) + "\n")
                    log.flush()
                    print("set %s %-13s seed %2d correct=%s" % (s, w, r + 1, res["correct"]),
                          file=sys.stderr)
    steady = True
    for w in WORKLOADS:
        print("%s (%d seeds per set)" % (w, runs))
        print("  %-18s %4s %14s %14s %14s %8s %8s %8s" %
              ("metric", "set", "q1", "median", "q3", "spread", "bound", "drift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in "AB":
                vals = [res["metrics"][name]["value"] for res in results[(s, w)]]
                q1, q2, q3, sp = spread(vals)
                med[s] = q2
                worse = (q2 - med["A"]) / med["A"] if med["A"] else 0.0
                if m["better"] == "higher":
                    worse = -worse
                ok_spread = sp <= bound / 3
                ok_drift = worse <= bound / 3
                steady = steady and ok_spread and ok_drift
                print("  %-18s %4s %14.6g %14.6g %14.6g %8.4f %8.3f %8.4f%s" %
                      (name, s, q1, q2, q3, sp, bound, worse,
                       "" if ok_spread and ok_drift else "  <-- above a third of the bound"))
    print("all spreads and drifts below a third of their bounds" if steady
          else "NOT steady: see the marked lines")
    print("per-run results: %s" % log_path)
    return 0 if steady else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed phase length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.steadiness):
        ap.error("one of --workload, --selftest or --steadiness is required")

    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    bdir = build()
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode
    if args.steadiness:
        return steadiness(bdir, args.runs, args.seconds)
    sys.stdout.flush()
    return subprocess.run(bench_command(bdir, args.workload, args.seed, args.seconds,
                                        args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
