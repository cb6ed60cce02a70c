"""Short self-check of the benchmark.

Usage (from the repository root):

    python3 bench/selfcheck.py

Runs every workload briefly, untraced and traced, and asserts that each
metric named in BENCHMARK.json is reported with its unit, that no item
failed, and that the layers each library workload exists to exercise
were called.  It also checks that the benchmark refuses to run, without
printing a result, in a copy holding only BENCHMARK.json and bench/.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Long enough for one full block of each library workload's item mix.
SECONDS = {"analyze-n2": 2, "chained": 5, "polytope": 3, "cli-cold": 5}
# Layers that must show calls on the workload built to exercise them.
CALLED = {
    "analyze-n2": ("chsh.violated_symmetry", "chsh.decompose_222", "chsh.decompose_local_222",
                   "chsh.estimator_weights", "metrics.kl_minimize", "metrics.tv_closest_local",
                   "metrics.face_projection", "efficiency.critical_efficiency",
                   "efficiency.apply_efficiency", "exactlin.simplex_feasible", "core.validate"),
    "chained": ("chained.identify_gpr", "chained.chained_value", "chained.decompose_chained",
                "chained.tightness_witness", "efficiency.critical_efficiency"),
    "polytope": ("polytope.enumerate_vertices", "polytope.is_extremal", "exactlin.rank",
                 "exactlin.solve_square"),
    "cli-cold": (),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(SECONDS[workload]), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True, result
    assert record["failed_ratio"] == {"value": 0.0, "unit": "ratio"}, record["failed_ratio"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == expected, f"{workload}: metrics differ: {set(reported) ^ set(expected)}"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        idle = [name for name in CALLED[workload]
                if result["metrics"][f"{name}.calls_per_item"]["value"] == 0]
        assert not idle, f"{workload}: no calls recorded for {idle}"
    print(f"ok  {workload:<11} trace={trace}  items={result['attempted']}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("analyze-n2", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
    print("ok  refuses to run without the sources")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace in (0, 1):
            check_run(workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
