#!/usr/bin/env python3
"""Harvest-day benchmark: build, run one workload, gate, report.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/harvest_bench from the checkout's sources (CMake,
Release) into $CARGO_TARGET_DIR (default .bench_build), runs the
workload, checks its outputs and prints one JSON object as the last
line of stdout:

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Any failed check prints the reason on stderr and
exits 1 without a result; a bad command line exits 2.

Self-test options (not used by benchmark runs):
  --short            quarter-length day
  --expected <file>  expected-outputs table to gate against
"""

import argparse
import bisect
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rack-harvest", "fleet-harvest", "chaos-day")
BINARY_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# src/ modules the benchmark links, as their C++ namespaces.
MODULES = ("tensor", "nn", "quant", "data", "sim", "collectives", "core",
           "ckpt", "fault", "membership", "obs", "trace", "util")


class GateError(Exception):
    """An output of the program is wrong: never report a number."""


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--short", action="store_true")
    p.add_argument("--expected", type=Path,
                   default=HERE / "expected.json")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise GateError(f"no product sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT)
        if r.returncode != 0:
            raise GateError(f"build step failed: {' '.join(cmd)}")
    return out / "harvest_bench"


def run_binary(binary, args):
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", "traced" if args.trace else "e2e"]
    if args.short:
        cmd.append("--short")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, cwd=ROOT, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError(f"harvest_bench exceeded {BINARY_TIMEOUT_S} s")
    if r.returncode != 0:
        raise GateError(f"harvest_bench exited {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise GateError("harvest_bench printed no result")
    return json.loads(lines[-1])


def check(cond, what):
    if not cond:
        raise GateError(what)


def gate(raw, args):
    """Every check that makes the run's numbers trustworthy."""
    days = raw["days"]
    check(days, "no harvest day ran")
    first = days[0]
    for d in days:
        tag = f"{d['kind']} day"
        check(d["epochs"] > 0, f"{tag}: no epoch trained")
        check(0.1 < d["final_acc"] <= 1.0,
              f"{tag}: final accuracy {d['final_acc']} is at chance")
        check(d["energy_j"] > 0 and d["training_hours"] > 0,
              f"{tag}: no simulated time or energy")
        prof = d["profile"]
        if d["kind"] != "unprofiled":
            check(prof["conservation_ok"],
                  f"{tag}: profiler conservation violated "
                  f"(worst error {prof['worst_conservation_error']})")
            check(prof["hash"] == d["hash"],
                  f"{tag}: profiler saw hash {prof['hash']}, "
                  f"day returned {d['hash']}")
        # Repeated, traced and unprofiled days replay the same day.
        for key in ("hash", "epochs", "final_acc", "training_hours",
                    "energy_j"):
            check(d[key] == first[key],
                  f"{tag}: {key} {d[key]} differs from the "
                  f"{first['kind']} day's {first[key]}")

    if raw["workload"] == "chaos-day":
        # The fault paths this workload exists for must have run.
        for key in ("power_losses", "replica_writes", "partitions"):
            check(first[key] >= 1, f"chaos day: no {key}")

    table = json.loads(args.expected.read_text())
    variant = "short" if args.short else "full"
    want = table.get(variant, {}).get(args.workload, {}).get(
        str(args.seed))
    if want is not None:
        check(first["hash"] == want["hash"],
              f"timeline hash {first['hash']} != expected {want['hash']}")
        check(first["final_acc"] == want["final_test_acc"],
              f"final_test_acc {first['final_acc']} != expected "
              f"{want['final_test_acc']}")
        check(first["epochs"] == want["epochs_trained"],
              f"epochs_trained {first['epochs']} != expected "
              f"{want['epochs_trained']}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def sim_epoch_s(d):
    return d["training_hours"] * 3600.0 / d["epochs"]


def failed_op_share(d):
    """Typed sync failures plus lost checkpoints per sync step and
    checkpoint write attempted."""
    failed = d["sync_failures"] + d["ckpt_lost"]
    syncs = d["counters"]["trainer_steps_total"]
    writes = d["ckpt_taken"] + d["ckpt_retries"] + d["ckpt_lost"]
    return failed / (syncs + writes)


def end_to_end(raw):
    days = raw["days"]
    d = days[0]
    train_s = d["training_hours"] * 3600.0
    useful_s = train_s - d["lost_work_epochs"] * sim_epoch_s(d)
    spent_s = train_s + d["recovery_s"] + d["restore_s"]
    setups = [a + b for a, b in zip(raw["dataset_s"], raw["trainer_s"])]
    return {
        "epochs_per_s": metric(statistics.median(
            x["epochs"] / x["wall_s"] for x in days), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        "sim_epoch_s": metric(sim_epoch_s(d), "sim_s"),
        "epochs_trained": metric(d["epochs"], "count"),
        "final_test_acc": metric(d["final_acc"], "share"),
        "energy_j_per_epoch": metric(d["energy_j"] / d["epochs"], "J"),
        "sim_goodput_share": metric(useful_s / spent_s, "share"),
        "op_success_share": metric(1.0 - failed_op_share(d), "share"),
    }


def host_shares(binary, raw):
    """Host CPU-time samples of the traced day, charged per module.

    Each sample goes to the first frame of its stack -- the interrupted
    function, then its callers -- whose function name mentions a src/
    module namespace (the bare socflow namespace is util), so time in
    libc or libm counts toward the module that called it. Stacks with
    no such frame are "other" when interrupted in the executable and
    "runtime" when in a shared library.
    """
    out = subprocess.run(["nm", "-C", "--defined-only", "-n", str(binary)],
                         stdout=subprocess.PIPE, text=True, check=True)
    addrs, names = [], []
    for line in out.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])

    def function(frame, is_return_address):
        if not frame.startswith("exe:"):
            return ""
        # A return address points past its call: look one byte back.
        offset = int(frame[4:], 16) - (1 if is_return_address else 0)
        i = bisect.bisect_right(addrs, offset) - 1
        return names[i] if i >= 0 else ""

    counts = dict.fromkeys(MODULES + ("other", "runtime"), 0)
    crc32 = 0
    for sample in raw["host_samples"]:
        stack = sample["stack"]
        owners = ((module_of(f), f) for f in
                  (function(fr, k > 0) for k, fr in enumerate(stack)))
        owner, name = next(((m, f) for m, f in owners if m), (None, ""))
        if owner is None:
            owner = "other" if stack[0].startswith("exe:") else "runtime"
        counts[owner] += sample["n"]
        crc32 += sample["n"] if name.startswith("socflow::crc32(") else 0
    total = sum(counts.values())
    check(total > 0, "host sampler recorded nothing")
    m = {f"host.{k}_pct": metric(100.0 * v / total, "%")
         for k, v in counts.items()}
    m["host.util_crc32_pct"] = metric(100.0 * crc32 / total, "%")
    m["host.samples"] = metric(total, "count")
    return m


def module_of(function):
    """The src/ module a demangled function name belongs to, or None."""
    at = function.find("socflow::")
    if at < 0:
        return None
    ns = function[at + len("socflow::"):].split("::", 1)[0]
    return ns if ns in MODULES else "util"


def per_layer(binary, raw):
    by_kind = {d["kind"]: d for d in raw["days"]}
    day, traced = by_kind["untraced"], by_kind["traced"]
    unprof = by_kind["unprofiled"]
    rp = raw["replay"]
    m = {}

    units = {"_ms": "ms", "_gflops": "GFLOP/s", "_melem_s": "Melem/s",
             "_mb_s": "MB/s"}
    for name, value in rp.items():
        unit = [u for suffix, u in units.items() if name.endswith(suffix)]
        check(len(unit) == 1, f"replay {name} has no unit")
        m[name] = metric(value, unit[0])

    counters = day["counters"]
    for name, key in (
            ("sim.flow_simulations", "flow_network_simulations_total"),
            ("sim.flows", "flow_network_flows_total"),
            ("core.topology_rebuilds", "trainer_topology_rebuilds_total"),
            ("collectives.retries", "collective_retries_total")):
        m[name] = metric(counters[key], "count")
    for name, key in (("ckpt.replica_writes", "replica_writes"),
                      ("collectives.chunks_retransmitted",
                       "chunks_retransmitted"),
                      ("membership.fenced_stale", "fenced_stale"),
                      ("ckpt.lost_work_epochs", "lost_work_epochs")):
        m[name] = metric(day[key], "count")
    m["obs.trace_events"] = metric(traced["trace_events"], "count")
    m["fault.recovery_sim_s"] = metric(
        day["recovery_s"] + day["restore_s"], "sim_s")
    m["collectives.failed_op_share"] = metric(failed_op_share(day),
                                              "share")

    m["obs.profiler_overhead_pct"] = metric(
        100.0 * (day["wall_s"] - unprof["wall_s"]) / unprof["wall_s"], "%")
    m["bench.trace_overhead_pct"] = metric(
        100.0 * (traced["wall_s"] - day["wall_s"]) / day["wall_s"], "%")

    prof = day["profile"]
    per_epoch = max(prof["epochs"], 1)
    for name, phase in (("forward_s", "forward"),
                        ("backward_s", "backward"),
                        ("update_s", "update"),
                        ("wave1_sync_s", "wave1_sync"),
                        ("wave2_sync_s", "wave2_sync"),
                        ("hier_sync_s", "hierarchical_sync"),
                        ("recovery_s", "recovery"),
                        ("paused_s", "paused")):
        m["phase." + name] = metric(
            prof["exclusive_s"][phase] / per_epoch, "sim_s")
    m["phase.overlap_ratio"] = metric(prof["overlap_ratio"], "share")

    spans = {}
    for sp in raw["spans"]:
        spans.setdefault(sp["name"], []).append(sp["end_s"] - sp["start_s"])
    m["data.make_dataset_s"] = metric(
        statistics.median(spans["data.make_dataset"]), "s")
    m["core.trainer_ctor_s"] = metric(
        statistics.median(spans["core.trainer_ctor"]), "s")
    m["trace.harvest_day_s"] = metric(
        spans["trace.harvest_day.untraced"][0], "s")

    m.update(host_shares(binary, raw))
    return m


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
        raw = run_binary(binary, args)
        gate(raw, args)
        metrics = per_layer(binary, raw) if args.trace else end_to_end(raw)
        for name in metrics:
            check(NAME_RE.fullmatch(name), f"bad metric name {name}")
    except GateError as e:
        print(f"perfbench: FAIL: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": len(raw["days"]),
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
