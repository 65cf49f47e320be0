"""Benchmark self-test: every workload at a tiny size, in seconds.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload named in ``BENCHMARK.json`` it runs ``run.py --tiny``
untraced and traced, and checks that the printed result line names
exactly the metrics (and units) ``BENCHMARK.json`` declares, that every
output check passed and that ``failed`` is 0. Exits non-zero on the
first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expected_metrics(entries: list[dict]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "2", "--seconds", "0.5", "--trace", str(trace), "--tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    wanted = {0: expected_metrics(spec["end_to_end"]), 1: expected_metrics(spec["per_layer"])}
    for workload in names:
        for trace in (0, 1):
            result = run_tiny(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{workload}: result keys {sorted(result)}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(printed))
                extra = sorted(set(printed) - set(wanted[trace]))
                raise SystemExit(
                    f"{workload} trace={trace}: metrics differ from BENCHMARK.json "
                    f"(missing {missing}, extra {extra}, or units differ)"
                )
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace={trace}: {result}")
            print(
                f"ok {workload} trace={trace}: {len(printed)} metrics, "
                f"{result['attempted']} runs, failed_share 0"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
