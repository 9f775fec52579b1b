"""Run the benchmark over several seeds and summarize it into one JSON file.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/results/BENCH_baseline.json

For every workload (or each ``--workload``) this runs ``run.py --trace 0``
once per seed, one after another, and then one ``--trace 1`` run on the first
seed. The summary holds, per end-to-end metric, the median, quartiles and
spread (quartile distance over median, from ``statistics.quantiles(n=4)``),
each run's sample counts (set-ups, rounds, captions), the per-layer metrics of
the traced run, operation counts, and the environment record. Compare two commits by running this on each with the
same seeds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    counts = next(json.loads(line[len("samples: "):]) for line in lines if line.startswith("samples: "))
    return json.loads(lines[-1]), json.loads(lines[-2])["environment"], counts


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]

    summary = {"seeds": [first, last], "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        correct = True
        counts = []
        for seed in range(first, last + 1):
            started = time.perf_counter()
            result, env, samples = run(name, seed, spec["run_seconds"], 0)
            counts.append(samples)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"({time.perf_counter() - started:.1f} s)", flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        traced, _, traced_counts = run(name, first, spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "correct": correct and traced["correct"],
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": {metric: summarize(v) for metric, v in values.items()},
            "samples": counts,
            "per_layer": {metric: m["value"] for metric, m in traced["metrics"].items()},
            "traced_samples": traced_counts,
            "environment": env,
        }
        for metric, s in summary["workloads"][name]["end_to_end"].items():
            print(f"  {metric:26s} median {s['median']:12.6g}  spread {s['spread']:.4f}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
