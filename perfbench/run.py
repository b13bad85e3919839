#!/usr/bin/env python3
"""Builds the simulator from source, runs one benchmark workload and prints
the result as the last line of standard output.

    python3 perfbench/run.py --workload star_incast_256 --seed 1 --seconds 40 --trace 0

Run from the repository root. The build lands in .bench_build/. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones. Every cell's simulated outputs are checked against the references in
perfbench/reference.json when the seed has one; regenerate them with

    python3 perfbench/run.py --record-seeds 0-31

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import concurrent.futures
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["star_incast_256", "paper_grid_7w", "spine_striped_4x16"]
# Relative tolerance of the reference check: equality up to the last bits of
# a double printed with 17 significant digits.
TOLERANCE = 1e-9
RUN_TIMEOUT_S = 150
# setup_s is the median over this many processes (it varies more between
# processes than within one).
SETUP_PROCESSES = 5


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", BUILD] + generator)
        step(["cmake", "--build", BUILD, "-j", str(min(os.cpu_count() or 1, 4))])


def step(cmd):
    # Build chatter goes to stderr: stdout's last line is the result. The
    # compiler's temporary files stay inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850).returncode:
        fail("build step failed: " + " ".join(cmd))


def drive(args):
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary failed (exit %d): %s" % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def summary(cell):
    return [cell["name"], cell["end_ns"], cell["rate_mean"], cell["rate_min"], cell["rate_max"]]


def differs(a, b):
    if a[0] != b[0]:
        return True
    return any(abs(x - y) > TOLERANCE * max(abs(x), abs(y)) for x, y in zip(a[1:], b[1:]))


def load_references():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)["seeds"]


def record(seed_range):
    lo, _, hi = seed_range.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    jobs = [(w, s) for w in WORKLOADS for s in seeds]
    refs = {w: {} for w in WORKLOADS}
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        runs = pool.map(lambda j: drive(["--workload", j[0], "--seed", str(j[1]), "--record"]), jobs)
        for (workload, seed), result in zip(jobs, runs):
            bad = [c for c in result["cells"] if c["error"]]
            if bad:
                fail("%s seed %d: %s: %s" % (workload, seed, bad[0]["name"], bad[0]["error"]))
            refs[workload][str(seed)] = [summary(c) for c in result["cells"]]
            print("recorded %s seed %d" % (workload, seed), file=sys.stderr)
    with open(REFERENCE, "w") as f:
        f.write('{"reference_seed": 1, "heldout_seed": 2,\n "seeds": {')
        for i, workload in enumerate(WORKLOADS):
            f.write('%s\n  "%s": {' % ("," if i else "", workload))
            for j, seed in enumerate(sorted(refs[workload], key=int)):
                f.write('%s\n   "%s": %s' % ("," if j else "", seed,
                                            json.dumps(refs[workload][seed])))
            f.write("}")
        f.write("}}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-seeds", metavar="A-B",
                        help="record reference outputs for seeds A..B of every workload")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found at " + SPEC)
    build()
    if args.record_seeds:
        record(args.record_seeds)
        return
    if args.workload is None:
        parser.error("--workload is required")

    with open(SPEC) as f:
        spec = json.load(f)
    result = drive(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
    cells = result["cells"]
    failed = result["failed"]
    bad = set()
    for cell in cells:
        if cell["error"]:
            bad.add(cell["name"])
            print("FAILED %s: %s" % (cell["name"], cell["error"]))
    refs = load_references().get(args.workload, {}).get(str(args.seed))
    if refs is None:
        print("no recorded reference for %s seed %d: checked completion, audit, "
              "pass-to-pass and entry-point identity only" % (args.workload, args.seed),
              file=sys.stderr)
    elif len(refs) != len(cells):
        failed += result["attempted"]
        bad.update(c["name"] for c in cells)
        print("FAILED reference: %d cells recorded, %d ran" % (len(refs), len(cells)))
    else:
        for cell, ref in zip(cells, refs):
            if differs(summary(cell), ref):
                print("FAILED %s: simulated outputs %s differ from reference %s"
                      % (cell["name"], summary(cell), ref))
                if cell["name"] not in bad:
                    failed += result["passes"]
                bad.add(cell["name"])

    measured = dict(result["metrics"])
    if not args.trace:
        setups = [drive(["--workload", args.workload, "--seed", str(args.seed),
                         "--setup-only"])["setup_s"] for _ in range(SETUP_PROCESSES)]
        measured["setup_s"] = statistics.median(setups)
    measured["cells_ok_share"] = (len(cells) - len(bad)) / len(cells)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
