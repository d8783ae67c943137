"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the N=1/N=2 variant of every workload (``run.py --small``) untraced and
traced, and checks that the result line has exactly the contract keys, that
every metric declared in ``BENCHMARK.json`` appears with its unit, that all
outputs passed their checks, that the time outside every traced span
(``trace.unattributed_s``) is under 1 % of the traced wall time, and that the
layer self times plus the wrapper cost and that remainder add up to it. It also checks that
the benchmark refuses to run from a directory holding only ``BENCHMARK.json``
and ``perfbench/``. Takes about a minute.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import MODULES, per_layer_spec
from run import HERE, ROOT, STATE
from child import WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared != per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from layers.per_layer_spec()")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from child.WORKLOADS")
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result.get("metrics", {})
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not (result.get("correct") is True and result.get("failed") == 0
                    and result.get("attempted", 0) >= 1):
                problems.append(f"{label}: outputs failed their checks: "
                                + proc.stdout.strip().splitlines()[-2][-400:])
            got = {name: m.get("unit") for name, m in metrics.items()}
            if got != expected[trace]:
                problems.append(f"{label}: metric names/units differ: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not all(isinstance(m.get("value"), (int, float))
                       and math.isfinite(m["value"]) for m in metrics.values()):
                problems.append(f"{label}: non-numeric metric value")
            if trace and not problems:
                wall = metrics["trace.wall_s"]["value"]
                rest = metrics["trace.unattributed_s"]["value"]
                if not 0 <= rest <= 0.01 * wall:
                    problems.append(f"{label}: unattributed {rest:.3g} s of {wall:.3g} s")
                total = sum(metrics[f"{m}.self_s"]["value"] for m in MODULES)
                total += metrics["trace.wrapper_s"]["value"] + rest
                if abs(total - wall) > 1e-6 * max(wall, 1.0):
                    problems.append(f"{label}: self times + wrapper + unattributed "
                                    f"= {total:.6f} s, wall {wall:.6f} s")
            print(f"{label}: ok" if not problems else f"{label}: checked", flush=True)
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".state", "__pycache__"))
        proc = run_bench(bare, "dense6", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without package sources")
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
