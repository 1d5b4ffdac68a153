#!/usr/bin/env python3
"""Smoke test of the benchmark at the CTest smoke size.

    python3 socbench/smoke.py

Runs every workload at seed 2005 with horizon 300, 1 replication and 2
sizing iterations (the scenario-file smoke test's size) and checks:
  * every batch passes the driver's output check;
  * the report is byte-identical (ignoring `workers`) at threads 1 and 4;
  * the report is byte-identical with tracing on and off;
  * loss_after_sizing equals the post-sizing loss summed over the runs of
    `socbuf_cli run <workload> --horizon 300 --replications 1
    --iterations 2 --json FILE` (the built-in preset at its own seed).
Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build and driver helpers)

SEED = 2005
SMOKE = {"horizon": 300, "replications": 1, "iterations": 2}


def main():
    out = run.build()
    smoke = out / "smoke"
    smoke.mkdir(parents=True, exist_ok=True)
    failures = []
    for workload in run.WORKLOADS:
        reports = {}
        raws = {}
        for threads, trace in ((1, False), (4, False), (4, True)):
            path = smoke / f"{workload}-threads{threads}-trace{int(trace)}.json"
            _, raw = run.run_driver(out, workload, SEED, 0, trace, threads,
                                    SMOKE, path)
            if not raw["correct"] or raw["failed"]:
                failures.append(f"{workload}: output check failed at "
                                f"threads {threads}, trace {int(trace)}")
            reports[(threads, trace)] = path.read_bytes()
            raws[(threads, trace)] = raw
        if reports[(1, False)] != reports[(4, False)]:
            failures.append(f"{workload}: report differs at threads 1 and 4")
        if reports[(4, False)] != reports[(4, True)]:
            failures.append(f"{workload}: report differs with tracing on")

        cli_json = smoke / f"{workload}-cli.json"
        cmd = [str(out / "socbuf_cli"), "run", workload, "--horizon",
               str(SMOKE["horizon"]), "--replications",
               str(SMOKE["replications"]), "--iterations",
               str(SMOKE["iterations"]), "--threads", str(run.THREADS),
               "--json", str(cli_json)]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            failures.append(f"{workload}: socbuf_cli exited "
                            f"{done.returncode}")
            continue
        cli_loss = 0.0
        for r in json.loads(cli_json.read_text())["runs"]:
            cli_loss += r["post_total"]
        bench_loss = raws[(4, False)]["loss_after_sizing"]
        status = "ok" if cli_loss == bench_loss else "MISMATCH"
        print(f"{workload}: loss_after_sizing {bench_loss!r}, "
              f"socbuf_cli {cli_loss!r} {status}")
        if cli_loss != bench_loss:
            failures.append(f"{workload}: loss_after_sizing differs from "
                            f"socbuf_cli")
    for f in failures:
        print("FAIL", f)
    print("smoke: " + ("FAIL" if failures else "PASS"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
