#!/usr/bin/env python3
"""Repository benchmark: fleet/toolchain throughput end to end, per-layer traced.

Run from the repository root:

    python3 perfbench/run.py --workload suite_mpu --seed 1 --seconds 10 --trace 0

It builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build, then runs the workload in a child process:

  --trace 0  the untraced run through the public entry points (RunFleet,
             RunCampaign, BuildFirmware); prints every end-to-end metric.
  --trace 1  the untraced run plus a separate traced run of one unit of the
             same work; prints every per-layer metric.

Workloads (one fixed unit of work, repeated until --seconds have passed and
at least three times):

  suite_mpu     nine-app suite, MPU model, FRAM ws=1, 100 devices x 10 s
                simulated, one thread. Memory-bound device runs dominate.
  churn_mixed   four-cohort population, 2400 devices x 1 s simulated,
                min(4, nproc) threads, checkpoint every 64 devices. Per-device
                fixed costs (clone, merge, checkpoint, executor) dominate.
  ota_campaign  staged 5/50/100 OTA campaign, nine-app v1 -> four-app v2,
                600 devices x (2 s + 1 s health window), min(4, nproc)
                threads. Bootloader MAC verify is dispatch-bound ALU code.
  toolchain     single-thread BuildFirmware of the nine-app suite and every
                benchmark app under each memory model (check optimizer on),
                then a smoke fleet of 16 devices x 4 s per model for the
                built suite images.

Host-speed normalization. On a shared machine the host's speed drifts by
up to 2x over minutes (other tenants' load), which moves every raw time
metric with it. The runner therefore times a fixed reference kernel
(ReferenceSeconds in main.cc, no repository code) before and after every
unit and every build round, and each time metric is reported at the
reference speed: a sample's time is scaled by REFERENCE_S / (the mean of the
reference times around it), a rate by the inverse. A change to the program
moves the sample and not the reference; a slower host moves both. The raw
figures stay in the per-run record, and the median reference time is printed
with the host context and reported as host.ref_ms with --trace 1.
  sim_mips, sim_s_per_s  the median over units of simulated instructions
                         (device-seconds) per host-second of the unit's run
                         phase;
  build_ms_p50, _p95     the median and 95th percentile of per-round host time
                         per image (each round builds every image of the
                         workload once; the sample count is printed with the
                         host context);
  setup_s                the median over units of firmware build(s) +
                         template boot(s) + snapshot capture.
sim_cycles_per_device (simulated, deterministic per seed), peak_rss_mb (this
process only) and ok_share (operations that did not fail or mismatch) are
not normalized.

Correctness: every unit's FleetDigest/CampaignDigest and fault-ledger digest
(FNV-1a 64) must match perfbench/pins.json for pinned seeds, and every
toolchain FirmwareImageHash must match its pin. On a seed with no pinned
digest the traced run's totals and digests must equal the untraced run's.
`--pin` records the current digests for the given seed (after the
traced-vs-untraced agreement check passes).

Paper accuracy: paper.table1.* are the Table-1 memory-access and
context-switch cycles of the simulated design (exact counts, FRAM wait states
0, check optimizer off as in the paper's toolchain) beside the MSP430FR5969
silicon values (*.silicon). Absolute error is expected: the naive code
generator spills every temporary, so each operation carries more loop
machinery than TI-GCC code; the orderings are the reproduction criterion.

The last stdout line is one JSON object with keys correct, attempted, failed,
metrics. The line before it gives the host context (nproc, jobs used, build
type, compiler, AMULET_SCOPE, AMULET_CHECK_OPT, median reference time). A full
record of each run, raw per-unit times and reference times included, is
written to <build dir>/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("suite_mpu", "churn_mixed", "ota_campaign", "toolchain")
DEFAULT_SEED = 20180711
DEFAULT_ROLLOUT_SEED = 0xB007
HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
# The child gets this long after its measuring time to set up, run a traced
# unit and exit; the whole benchmark must end within 180 s.
CHILD_SLACK_S = 60
# Reference-kernel time that time metrics are scaled to (see above). Any fixed
# value works; it only sets the scale of the reported figures.
REFERENCE_S = 0.03


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, jobs):
    """Configures (once) and builds the runner; returns its path or None."""
    cmd_cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd_cfg += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(cmd_cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner", "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_runner")


def run_child(runner, args, mode, jobs, scratch, timeout):
    cmd = [runner, "--workload", args.workload, "--mode", mode, "--seed", str(args.seed),
           "--rollout-seed", str(args.rollout_seed), "--seconds", str(args.seconds),
           "--jobs", str(jobs), "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{mode} run timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{mode} run failed with exit code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))]


def pin_key(args):
    if args.workload == "ota_campaign":
        return f"{args.seed}/{args.rollout_seed}"
    return str(args.seed)


def load_pins():
    with open(PINS) as f:
        return json.load(f)


# Totals the traced run must reproduce exactly.
AGREEMENT_FIELDS = ("devices", "instructions", "cycles", "data_accesses", "faults",
                    "digest", "ledger")


def check(args, untraced, traced, pins):
    """Returns (attempted, failed, problems)."""
    problems = []
    units = untraced["units"]
    attempted = sum(u["devices"] for u in units) + untraced["builds"]
    failed = untraced["build_failures"]
    first = units[0]

    expected = pins["digests"].get(args.workload, {}).get(pin_key(args))
    for u in units:
        reference = expected or {"digest": first["digest"], "ledger": first["ledger"]}
        if u["digest"] != reference["digest"] or u["ledger"] != reference["ledger"]:
            failed += u["devices"]
    if expected and failed:
        problems.append("digest differs from the pinned digest")

    pinned_builds = pins["builds"] if args.workload == "toolchain" else {}
    if pinned_builds and set(untraced["build_hashes"]) != set(pinned_builds):
        problems.append("toolchain builds differ from the pinned set")
    for key, value in untraced["build_hashes"].items():
        if key in pinned_builds and value != pinned_builds[key]:
            failed += untraced["build_counts"].get(key, 0)
            problems.append(f"firmware hash of {key} differs from its pin")

    if traced is not None:
        for field in AGREEMENT_FIELDS:
            if traced["unit"][field] != first[field]:
                problems.append(f"traced {field} {traced['unit'][field]} != untraced {first[field]}")
        if not traced["replay_matches"]:
            problems.append("replayed AFT phases disagree with BuildFirmware's check stats")
        for key, value in traced["build_hashes"].items():
            if untraced["build_hashes"].get(key) != value:
                problems.append(f"traced firmware hash of {key} differs")
        if problems and not expected:
            failed = attempted
    return attempted, failed, problems


def end_to_end(untraced, attempted, failed):
    units = untraced["units"]
    # Host speed of each sample relative to the reference: above 1 when slower.
    slow = [u["ref_s"] / REFERENCE_S for u in units]
    builds = [ms * REFERENCE_S / ref
              for ms, ref in zip(untraced["build_ms"], untraced["build_ref_s"])]
    return {
        "sim_mips": statistics.median(
            u["instructions"] / u["run_s"] / 1e6 * k for u, k in zip(units, slow)),
        "sim_s_per_s": statistics.median(
            u["sim_seconds"] / u["run_s"] * k for u, k in zip(units, slow)),
        "setup_s": statistics.median(u["setup_s"] / k for u, k in zip(units, slow)),
        "build_ms_p50": statistics.median(builds),
        "build_ms_p95": quantile(builds, 0.95),
        "sim_cycles_per_device": units[0]["cycles"] / units[0]["devices"],
        "peak_rss_mb": untraced["peak_rss_kb"] / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(untraced, traced):
    m = dict(traced["layers"])
    units = untraced["units"]
    baseline = statistics.median(u["wall_s"] for u in units)
    if untraced["round_s"]:
        baseline += statistics.median(untraced["round_s"])
    m["trace.overhead"] = traced["unit"]["wall_s"] / baseline
    m["host.ref_ms"] = statistics.median(u["ref_s"] for u in units) * 1e3
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rollout-seed", type=int, default=DEFAULT_ROLLOUT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's digests in perfbench/pins.json")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32 or not 0 <= args.rollout_seed < 2**32 or args.seconds <= 0:
        parser.error("seeds must be 32-bit unsigned and --seconds positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = min(4, os.cpu_count() or 1)
    runner = build(build_dir, jobs)
    if runner is None:
        log("build failed")
        return 1
    scratch = os.path.join(build_dir, "scratch", args.workload)
    os.makedirs(scratch, exist_ok=True)
    pins = load_pins()
    timeout = args.seconds + CHILD_SLACK_S

    untraced = run_child(runner, args, "untraced", jobs, scratch, timeout)
    if untraced is None:
        return 1
    pinned = pin_key(args) in pins["digests"].get(args.workload, {})
    traced = None
    if args.trace == 1 or not pinned or args.pin:
        traced = run_child(runner, args, "traced", jobs, scratch, timeout)
        if traced is None:
            return 1
    attempted, failed, problems = check(args, untraced, traced, pins)
    for problem in problems:
        log(problem)

    if args.pin:
        if problems:
            log("not pinning: the traced and untraced runs disagree")
            return 1
        first = untraced["units"][0]
        pins["digests"].setdefault(args.workload, {})[pin_key(args)] = {
            "digest": first["digest"], "ledger": first["ledger"]}
        if args.workload == "toolchain":
            pins["builds"] = untraced["build_hashes"]
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"pinned {args.workload} seed {pin_key(args)}")

    with open(SPEC) as f:
        declared = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
    if args.trace == 0:
        values = end_to_end(untraced, attempted, failed)
    else:
        values = per_layer(untraced, traced)
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        log("metrics missing from the run: " + ", ".join(missing))
        return 1
    host = dict(untraced["host"], workload=args.workload, seed=args.seed,
                rollout_seed=args.rollout_seed, units=len(untraced["units"]),
                build_samples=len(untraced["build_ms"]), pinned=pinned,
                ref_ms=statistics.median(u["ref_s"] for u in untraced["units"]) * 1e3)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"host": host, "result": result, "untraced": untraced, "traced": traced}, f)
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
