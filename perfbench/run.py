#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout.  The script builds
perfbench/main.exe with dune (the first build also builds the
libraries it needs), runs one workload and passes its output through.
The last line of the output is the result: a JSON object with the keys
correct, attempted, failed and metrics.  Before printing, the script
checks that the result names exactly the metrics BENCHMARK.json lists
for the run (end_to_end untraced, per_layer traced).  It exits
non-zero without a result line when the sources, the build or the run
fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in wanted if k in got and got[k] != wanted[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s" % (
            missing, extra, units)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found; run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("dune-project or lib/ missing: the benchmark builds the repository's libraries")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune_command() + ["build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("run exited with code %d" % run.returncode, run.returncode)
    problem = check_result(lines[-1], spec, args.trace == 1)
    if problem:
        sys.stderr.write(run.stdout)
        fail(problem, 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
