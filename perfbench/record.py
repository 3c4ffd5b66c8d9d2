#!/usr/bin/env python3
"""Run every workload, check the runs, and record the baseline.

    python3 perfbench/record.py --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 30

Run from the repository root.  Each run is its own ``perfbench/run.py``
process: untraced once per seed, then traced once with the first seed.  The
command prints every metric with its unit, the median and the quartile spread
over the seeds, and exits non-zero if any run failed its output checks, if a
spread exceeds the metric's bound in ``BENCHMARK.json``, or if the traced run
trained different bits from the untraced run of the same seed.  With
``--write`` it stores the machine, the environment, each workload's overrides,
rationale, config hashes, fingerprints and metrics in ``perfbench/baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[int, dict, dict]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    detail = next((json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), {})
    return proc.returncode, json.loads(lines[-1]), detail


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "system": platform.platform()}


def git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("+dirty-src" if dirty.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--write", action="store_true", help="store the result in perfbench/baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems: list[str] = []
    record = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git_commit(),
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }

    for name in args.workloads.split(","):
        w = WORKLOADS[name]
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        entry = {
            "why": w.why,
            "overrides": list(w.overrides),
            "warmup": w.warmup,
            "horizon": w.horizon,
            "config_hash": {},
            "fingerprints": {},
            "train_loss_final": {},
            "samples": {},
            "raw_p50": {},
            "calibration_unit_ms": {},
        }
        for seed in seeds:
            code, result, detail = run(name, seed, seconds, trace=False)
            if code != 0 or not result["correct"]:
                problems.append(f"{name} seed {seed}: exit {code}, failures {detail.get('failures')}")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            entry["config_hash"][seed] = detail.get("config_hash")
            entry["fingerprints"][seed] = detail.get("fingerprints")
            entry["train_loss_final"][seed] = detail.get("train_loss_final")
            entry["samples"][seed] = detail.get("samples")
            entry["raw_p50"][seed] = detail.get("raw_p50")
            entry["calibration_unit_ms"][seed] = detail.get("calibration_unit_ms")
            record.setdefault("environment", detail.get("environment"))
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

        code, traced, tdetail = run(name, seeds[0], seconds, trace=True)
        if code != 0 or not traced["correct"]:
            problems.append(f"{name} traced: exit {code}, failures {tdetail.get('failures')}")
        if tdetail.get("fingerprints") != entry["fingerprints"][seeds[0]]:
            problems.append(f"{name}: traced run trained different bits from the untraced run")

        entry["end_to_end"] = {}
        print(f"\n{name}: {len(seeds)} seeds, {seconds:g} s each")
        for metric, vals in values.items():
            s = spread(vals)
            entry["end_to_end"][metric] = {"unit": units[metric], **s}
            flag = ""
            if s["spread"] > bounds[metric]:
                flag = "  SPREAD ABOVE BOUND"
                problems.append(f"{name} {metric}: spread {s['spread']:.3f} > bound {bounds[metric]}")
            print(f"  {metric:28s} {s['median']:12.5g} {units[metric]:8s} spread {s['spread']:.3f} (bound {bounds[metric]}){flag}")
        entry["per_layer"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in traced["metrics"].items()}
        entry["trace_seed"] = seeds[0]
        entry["self_ms_per_step"] = tdetail.get("self_ms_per_step")
        print(f"  traced (seed {seeds[0]}): overhead {traced['metrics']['trace.overhead_ms']['value']:.3f} ms/step\n")
        record["workloads"][name] = entry

    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
