#!/usr/bin/env python3
"""Self-test of the benchmark, at quick size (under a minute).

Run from the repository root:

    python3 perfbench/test/selftest.py

For every workload named in BENCHMARK.json it checks that
- an untraced run prints, as its last line, a correct JSON result whose
  metrics are exactly the end_to_end names, each with its declared unit;
- a traced run does the same for the per_layer names;
- two runs of one seed give identical virtual-time metrics, and two
  different seeds give different ones;
and that the benchmark, copied without the system it measures, exits
non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
VIRTUAL = ["commit_tps", "resp_p50_ms", "resp_p99_ms"]

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, seed, trace):
    args = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_result(res, declared, label):
    expect(res is not None, label + ": exits 0 with a JSON last line")
    if res is None:
        return
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}, label + ": result keys")
    expect(res["correct"] is True and res["failed"] == 0, label + ": outputs checked correct")
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1, label + ": attempted >= 1")
    names = {m["name"]: m["unit"] for m in declared}
    got = res["metrics"]
    stray = sorted(set(got) ^ set(names))
    expect(not stray, label + ": metric names match BENCHMARK.json" + (" %s" % stray if stray else ""))
    wrong = [name for name, unit in names.items() if name in got
             and not (got[name].get("unit") == unit
                      and isinstance(got[name].get("value"), (int, float)))]
    expect(not wrong, label + ": every metric has its declared unit and a number"
           + (" %s" % wrong if wrong else ""))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first = result(run(ROOT, name, 1, 0))
        check_result(first, bench["end_to_end"], name + " untraced")
        check_result(result(run(ROOT, name, 1, 1)), bench["per_layer"], name + " traced")
        again = result(run(ROOT, name, 1, 0))
        other = result(run(ROOT, name, 2, 0))
        if first and again and other:
            virt = lambda r: [r["metrics"][k]["value"] for k in VIRTUAL]
            expect(virt(first) == virt(again), name + ": same seed, same virtual metrics")
            expect(virt(first) != virt(other), name + ": other seed, other virtual metrics")
    bare = os.path.join(ROOT, "perfbench", "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    proc = run(bare, bench["workloads"][0]["name"], 1, 0)
    expect(proc.returncode != 0 and result(proc) is None and not proc.stdout.strip(),
           "without the system: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
