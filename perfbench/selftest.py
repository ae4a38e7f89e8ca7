#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload it makes two short traced runs with
the same seed and checks that

* both runs are correct: no failed check, and every traced result was
  bit-identical to the untraced result of the same operation, i.e. the
  tracing proxy and wrappers are transparent;
* the deterministic counters repeat exactly across the two runs.

Last, it copies ``BENCHMARK.json`` and ``perfbench/`` alone into a scratch
directory under ``.bench_work/`` and checks that the benchmark refuses to
run there: non-zero exit and no result line.  Exit status 0 means every
check held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

EXACT = (
    "families.divergence_calls",
    "quantum.divergence_calls",
    "extraction.metric_calls",
    "extraction.cubic_calls",
    "extraction.evals_per_tensor",
    "extraction.unique_ratio",
    "roundtrip.rejected_ratio",
    "roundtrip.spread_cache_hit_ratio",
    "roundtrip.demon_extractions",
    "reports.bytes",
)
SEED = 7


def traced_run(cwd: Path, workload: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        results = []
        for _ in range(2):
            code, out = traced_run(ROOT, workload)
            result = json.loads(out.splitlines()[-1]) if code == 0 and out else None
            if result is None or not result["correct"]:
                detail = json.loads(out.splitlines()[-2])["detail"]["failures"] if result else out[-500:]
                problems.append(f"{workload}: run not correct: {detail}")
                break
            results.append(result["metrics"])
        if len(results) == 2:
            for key in EXACT:
                a, b = results[0][key]["value"], results[1][key]["value"]
                if a != b:
                    problems.append(f"{workload}: {key} differs between runs: {a!r} != {b!r}")
        print(f"{workload}: {'ok' if not any(p.startswith(workload) for p in problems) else 'FAILED'}", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = traced_run(bare, "stencil-wide")
    shutil.rmtree(bare)
    if code == 0 or '"metrics"' in out:
        problems.append(f"without src/ the benchmark exited {code} and printed {out[-200:]!r}")
    print(f"refuses to run without src/: {'ok' if code != 0 else 'FAILED'}")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
