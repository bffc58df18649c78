"""Self-test of the benchmark at a tiny input size (never a workload).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both modes and on every workload, and that a tampered artifact and a non-zero
exit each count as a failure in ``error_rate``. Takes about two minutes.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import run
from workloads import WORKLOADS

TINY = {
    "pipeline-thermal": ("sim_duration_s=0.05",),
    "stages-readback": ("sim_duration_s=0.05",),
    "fock-oracle-hires": ("n_angles=90", "marginal_grid_points=129"),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def measure(wl, trace: bool) -> dict:
    return run.run_benchmark(wl, seed=1, seconds=1, trace=trace, ctx=run.make_context())["result"]


def check_metrics(spec: dict) -> None:
    for name, overrides in TINY.items():
        wl = replace(WORKLOADS[name], overrides=overrides)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            outcome = run.run_benchmark(wl, seed=1, seconds=1, trace=trace, ctx=run.make_context())
            result = outcome["result"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(emitted == expected, f"{name} trace={int(trace)} emitted {emitted}, expected {expected}")
            expect(result["failed"] == 0, f"{name} trace={int(trace)}: tiny run failed its checks")
            printed = io.StringIO()
            run.report(outcome, printed)
            lines = printed.getvalue().splitlines()
            for metric, unit in expected.items():
                expect(any(l.startswith(f"{metric} = ") and f" {unit} (" in l for l in lines), f"{metric} not printed")
            expect(any(l.startswith("error_rate = ") for l in lines), "error_rate not printed")
            expect(json.loads(lines[-1]) == result, "last line is not the result")
            print(f"selftest: {name} trace={int(trace)}: {len(expected)} metrics emitted with units")


def check_failures() -> None:
    fock = replace(WORKLOADS["fock-oracle-hires"], overrides=TINY["fock-oracle-hires"])

    def tamper_then_check(out_dir: Path, root: Path) -> list[str]:
        with (out_dir / "wigner.csv").open("a") as fh:
            fh.write("0\n")
        return fock.check(out_dir, root)

    result = measure(replace(fock, check=tamper_then_check), trace=False)
    expect(result["failed"] == result["attempted"] == 1, f"tampered artifact not counted: {result}")
    expect(not result["correct"], "tampered run reported correct")
    print("selftest: tampered artifact counted as a failure")

    result = measure(replace(fock, overrides=fock.overrides + ("n_angles=2",)), trace=False)
    expect(result["failed"] == result["attempted"] == 1, f"non-zero exit not counted: {result}")
    print("selftest: non-zero exit counted as a failure")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    expect(set(listed) <= set(WORKLOADS), f"BENCHMARK.json names unknown workloads: {listed}")
    for w in spec["workloads"]:
        expect(w["why"] == WORKLOADS[w["name"]].why, f"BENCHMARK.json why of {w['name']} differs")
    check_failures()
    check_metrics(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
