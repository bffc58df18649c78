"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0] [--write bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
BENCHMARK.json's ``run_seconds``. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(interquartile distance / median) next to the metric's bound. With
``--trace 1`` it does the same for the per-layer metrics, which have no bound.
``--write`` stores the summary, with every run's values, under the key
``trace0`` or ``trace1`` of a JSON file, keeping what it holds for other
workloads and the other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="inclusive range such as 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, help="write the summary JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        provenance = None
        for seed in args.seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]))
            provenance = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("provenance: "))
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(name)
            verdict = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
            print(f"{workload} {name}: median {median:.6g} {first['unit']} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{verdict}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload} error_rate: {failed / attempted:g} ({failed} failed of {attempted} attempted)")
        summary["workloads"][workload] = {
            "seeds": args.seeds,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "provenance_of_last_run": provenance,
        }
    if args.write:
        recorded = json.loads(args.write.read_text()) if args.write.is_file() else {}
        previous = recorded.get(f"trace{args.trace}", {}).get("workloads", {})
        summary["workloads"] = {**previous, **summary["workloads"]}
        recorded[f"trace{args.trace}"] = summary
        args.write.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
