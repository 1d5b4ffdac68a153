#!/usr/bin/env python3
"""socbuf end-to-end benchmark: one preset workload per invocation.

    python3 socbench/run.py --workload paper-suite --seed 2005 \
        --seconds 20 --trace 0

Run from the repository root. Builds socbench/ (Release) into
.bench_build/socbench, writes the workload's scenario document with
--seed in every spec's sim.seed, runs socbench_driver on it and prints,
as the last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. See README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("paper-suite", "np-cluster-scaling", "insertion-search")
# Workers every workload runs with (SessionOptions::threads).
THREADS = 4
# Time the driver may take beyond --seconds: set-up, the cold batch, the
# last warm batch that overruns --seconds and, with --trace 1, the replay.
DRIVER_ALLOWANCE_S = 150


def fail(message):
    print(f"socbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(target)
    if not base.is_absolute():
        base = ROOT / base
    return base / "socbench"


def build():
    """Configure once, then bring socbench_driver and socbuf_cli up to date."""
    out = build_dir()
    if not (ROOT / "src").is_dir() or not (ROOT / "scenarios").is_dir():
        fail(f"{ROOT} holds no socbuf sources (src/, scenarios/)")
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(THREADS)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    cache = (out / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail("build directory is not a Release build")
    return out


def write_inputs(out, workload, seed, overrides=None):
    """The workload's scenario document with `seed` in every spec.

    `overrides` (smoke size) applies horizon / replications / iterations
    the way `socbuf_cli run --horizon/--replications/--iterations` does.
    """
    source = ROOT / "scenarios" / f"{workload}.json"
    doc = json.loads(source.read_text())
    specs = doc["scenarios"] if "scenarios" in doc else [doc]
    for spec in specs:
        spec["sim"]["seed"] = seed
        if overrides:
            horizon = overrides["horizon"]
            spec["sim"]["horizon"] = horizon
            if spec["sim"]["warmup"] >= horizon:
                spec["sim"]["warmup"] = horizon / 10
            spec["replications"] = overrides["replications"]
            spec["sizing_iterations"] = overrides["iterations"]
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    tag = "-smoke" if overrides else ""
    path = inputs / f"{workload}-seed{seed}{tag}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def run_driver(out, workload, seed, seconds, trace, threads=THREADS,
               overrides=None, report_out=None):
    """Run socbench_driver; return its human-readable lines and result."""
    spec_file = write_inputs(out, workload, seed, overrides)
    cmd = [str(out / "socbench_driver"), "--spec-file", str(spec_file),
           "--preset", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads)]
    if trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if report_out:
        cmd += ["--report-out", str(report_out)]
    timeout = seconds + DRIVER_ALLOWANCE_S
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout:g} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout[-4000:])
        fail(f"driver exited with {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    attempted = raw["attempted"]
    return {
        "wall_s": metric(raw["wall_s"], "s"),
        "first_result_s": metric(raw["first_result_s"], "s"),
        "setup_s": metric(raw["setup_s"], "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        "loss_after_sizing": metric(raw["loss_after_sizing"], "packets"),
        "success_rate": metric((attempted - raw["failed"]) / attempted,
                               "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [0, 3600]")

    out = build()
    lines, raw = run_driver(out, args.workload, args.seed, args.seconds,
                            args.trace == 1)
    for line in lines:
        print(line)

    correct = bool(raw["correct"])
    if args.trace:
        measured = raw["per_layer"]
        print(f"cache.hit_rate base: {raw['cache_lookup_base']} lookups")
    else:
        measured = end_to_end(raw)
        print(f"error_rate: {raw['failed']}/{raw['attempted']} batches; "
              f"wall_s median of {raw['warm_batches']} warm batches "
              f"(cold batch {raw['cold_batch_s']:.3f} s excluded)")
    # Report exactly the metrics BENCHMARK.json declares for this mode.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        m = measured.get(entry["name"])
        if m is None or m["unit"] != entry["unit"] or not isinstance(
                m["value"], (int, float)) or not math.isfinite(m["value"]):
            correct = False
            print(f"metric {entry['name']} missing, mis-unit or not finite")
            continue
        metrics[entry["name"]] = m
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
