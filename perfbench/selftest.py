#!/usr/bin/env python3
"""Self-test of the harvest-day benchmark.

    python3 perfbench/selftest.py

Runs a quarter-length day of every workload through perfbench/run.py
and checks that:
  - every metric BENCHMARK.json declares prints, with its unit, and
    no other metric does (end-to-end at --trace 0, per-layer at 1);
  - metric names match [A-Za-z0-9_.-]+;
  - the correctness gate trips on a wrong expected timeline hash:
    exit code 1 and no result line;
  - bad command lines (unknown flag, unknown workload, missing
    argument) exit 2.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SEED = "42"

failures = []


def expect(cond, what):
    if not cond:
        print("FAIL " + what)
        failures.append(what)


def run(args):
    return subprocess.run(RUN + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_metrics(workload, trace, declared):
    args = ["--workload", workload, "--seed", SEED, "--seconds", "1",
            "--trace", str(trace), "--short"]
    r = run(args)
    tag = f"{workload} --trace {trace}"
    expect(r.returncode == 0, f"{tag}: exit 0 (got {r.returncode})")
    res = result_line(r.stdout)
    expect(res is not None, f"{tag}: last stdout line is JSON")
    if res is None:
        sys.stderr.write(r.stderr[-2000:])
        return
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys")
    expect(res.get("correct") is True, f"{tag}: correct is true")
    expect(isinstance(res.get("attempted"), int) and res["attempted"] >= 1
           and isinstance(res.get("failed"), int),
           f"{tag}: attempted/failed are whole numbers")
    got = res.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    expect(set(got) == set(want),
           f"{tag}: metric set matches BENCHMARK.json "
           f"(missing {sorted(set(want) - set(got))}, "
           f"extra {sorted(set(got) - set(want))})")
    for name, unit in want.items():
        m = got.get(name)
        expect(isinstance(m, dict) and m.get("unit") == unit and
               isinstance(m.get("value"), (int, float)),
               f"{tag}: {name} prints a number in {unit}")
    for name in got:
        expect(NAME_RE.fullmatch(name) is not None,
               f"{tag}: name {name} matches [A-Za-z0-9_.-]+")
    print(f"done {tag}: {len(got)} metrics")


def check_gate_trips(workload):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = ROOT / target / f"selftest-expected-{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"short": {workload: {SEED: {
        "hash": "0000000000000000", "final_test_acc": 0.0,
        "epochs_trained": 0}}}}))
    r = run(["--workload", workload, "--seed", SEED, "--seconds", "1",
             "--trace", "0", "--short", "--expected", str(path)])
    expect(r.returncode == 1 and result_line(r.stdout) is None,
           f"{workload}: wrong expected hash fails the run "
           f"(exit {r.returncode})")
    path.unlink()
    print(f"done {workload}: gate trip")


def check_cli():
    base = ["--workload", "rack-harvest", "--seed", SEED, "--seconds",
            "1", "--trace", "0"]
    for what, args in (("unknown flag", base + ["--bogus", "1"]),
                       ("unknown workload",
                        ["--workload", "nope"] + base[2:]),
                       ("missing --trace", base[:-2]),
                       ("abbreviated flag", ["--work"] + base[1:])):
        r = run(args)
        expect(r.returncode == 2 and not r.stdout.strip(),
               f"{what} exits 2 (got {r.returncode})")
    print("done command-line checks")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_cli()
    for w in bench["workloads"]:
        check_metrics(w["name"], 0, bench["end_to_end"])
        check_metrics(w["name"], 1, bench["per_layer"])
        check_gate_trips(w["name"])
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
