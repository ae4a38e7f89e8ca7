#!/usr/bin/env python3
"""Benchmark of the infogeo package and its ``geo`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stencil-wide --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``stencil-wide``,
``stencil-narrow``, ``mc-engines`` and ``cli-jobs``.  The package is
imported from the checkout's ``src`` directory, never from an installed
copy; without it the benchmark exits 1 and prints no result.

A run builds the workload's inputs from ``--seed``, warms up, then repeats
whole passes over those inputs until ``--seconds`` have gone by, checking
every result.  Each op is timed against a fixed reference loop run next to
it, and the end-to-end times are in reference seconds (see ``reference_loop``).
With ``--trace 0`` it reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead, and whether traced results were
bit-identical to untraced ones; the spans go to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry provenance and detail (inputs, sample counts, failures, known CLI
defects).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("stencil-wide", "stencil-narrow", "mc-engines", "cli-jobs")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
QUANTUM_CHARTS = ("qre:bloch", "qjsd:bloch", "qre:diag-qutrit", "qre:veronese")
# a reference second is this many runs of reference_loop()
REF_RUNS_PER_S = 1000
REF_MATRICES = [a @ a.T + 3.0 * np.eye(3) for a in np.random.default_rng(0).standard_normal((8, 3, 3))]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# fresh interpreters: set-up time and the import profile
# ---------------------------------------------------------------------------


def fresh(code: str, env: dict, extra=()) -> tuple[float, str]:
    """Wall seconds of one fresh interpreter running ``code``, and its stderr."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", code], cwd=WORK, env=env, capture_output=True, text=True, timeout=60
    )
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed on {code!r}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stderr


def import_profile(env: dict) -> dict:
    """Medians of ``pass``, ``import numpy`` and ``import infogeo`` in fresh
    interpreters, interleaved, plus ``-X importtime`` for the package."""
    codes = {"cli.interp_s": "pass", "cli.numpy_import_s": "import numpy", "cli.import_s": "import infogeo"}
    samples = {k: [] for k in codes}
    for _ in range(IMPORT_REPEATS):
        for key, code in codes.items():
            samples[key].append(fresh(code, env)[0])
    _, stderr = fresh("import infogeo", env, extra=("-X", "importtime"))
    breakdown = {}
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            name = parts[2]
            if name.split(".")[0] in ("infogeo", "numpy") and name.count(".") <= 1:
                breakdown[name] = int(parts[1]) * 1e-6
    top = dict(sorted(breakdown.items(), key=lambda kv: -kv[1])[:15])
    return {"medians": {k: statistics.median(v) for k, v in samples.items()}, "importtime_cumulative_s": top}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(ig, workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "infogeo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # provenance must never stop a run
        blas = f"unavailable: {exc!r}"
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "infogeo": ig.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def reference_loop() -> float:
    """Seconds one run of a fixed loop takes: small ``eigh`` calls and Python
    arithmetic, the mix the package's own calls are made of, using nothing of
    the package.

    A shared host's speed drifts by up to 2x, for a second to minutes at a
    time, and moves this loop and the ops together.  Over runs with different
    seeds, the quartile spread of the median pass wall time reached 0.3-0.5 of
    its median, while the same ops timed against this loop, run next to each
    op, spread 0.12 or less.  So end-to-end times are reported in reference
    seconds, REF_RUNS_PER_S runs of this loop.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(60):
        w, _ = np.linalg.eigh(REF_MATRICES[i % 8])
        acc += float(np.sum(np.log(w)))
        for j in range(20):
            acc += (j * 0.5) % 7.0
    return perf_counter() - t0


@dataclass
class Pass:
    durations: list[float]
    refs: list[float]  # reference_loop() before each op and after the last
    traced: bool

    @property
    def wall(self) -> float:
        return sum(self.durations)

    def ref_durations(self) -> list[float]:
        """Each op's time in reference seconds, against the mean of the
        reference runs on either side of it."""
        return [
            2.0 * d / (REF_RUNS_PER_S * (a + b)) for d, a, b in zip(self.durations, self.refs, self.refs[1:])
        ]


def fingerprint(result) -> str:
    """Exact text of a result, for bit-identity across passes."""
    from infogeo.reports import jsonable, strip_timestamp

    if hasattr(result, "returncode"):  # a geo process
        out = strip_timestamp(result.output) if result.output else ""
        return json.dumps([result.returncode, out, result.stderr])
    return json.dumps(jsonable(result), sort_keys=True)


def run_pass(ops, ctx, tracer=None, op_ids=None) -> tuple[list, list, list]:
    durations, refs, results = [], [], []
    for op in ops:
        refs.append(reference_loop())
        if tracer is not None:
            tracer.op_id += 1
            sid = tracer.begin(op_ids[op.name])
        t0 = perf_counter()
        try:
            res, err = op.run(ctx), None
        except Exception as exc:  # a failed operation is counted, not fatal
            res, err = None, f"{op.name}: {type(exc).__name__}: {exc}"
        durations.append(perf_counter() - t0)
        if tracer is not None:
            tracer.finish(sid)
        results.append((res, err))
    refs.append(reference_loop())
    return durations, refs, results


def check_pass(ops, results, reference: list | None) -> tuple[list[str], list]:
    """Failures of one pass: errors, failed checks, and results that differ
    from the first pass's (same inputs must give the same bytes)."""
    failures, prints = [], []
    for i, (op, (res, err)) in enumerate(zip(ops, results)):
        if err is None:
            try:
                err = op.check(res)
            except Exception as exc:
                err = f"{op.name}: check raised {type(exc).__name__}: {exc}"
        fp = fingerprint(res) if err is None else None
        if err is None and reference is not None and reference[i] is not None and fp != reference[i]:
            err = f"{op.name}: result differs from the first pass"
        prints.append(fp)
        if err:
            failures.append(err)
    return failures, prints


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes: list[Pass], setup_s: float, rss_mb: float) -> dict:
    # every pass runs the same ops: an op's typical time is its median over
    # the passes, a typical pass is the sum of those, and the percentiles are
    # over the op mix of one pass
    ops = np.median([p.ref_durations() for p in passes], axis=0)
    wall = float(ops.sum())
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (wall, "ref_s"),
        "ops_per_ref_s": (len(ops) / wall, "1/ref_s"),
        "op_p50_ref_ms": (float(np.percentile(ops, 50)) * 1e3, "ref_ms"),
        "op_p90_ref_ms": (float(np.percentile(ops, 90)) * 1e3, "ref_ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_metrics(tracer, passes: list[Pass], imports: dict) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    agg = tracer.aggregate()
    c = tracer.counters

    def total(prefix):
        return sum(v["total_s"] for k, v in agg.items() if k.startswith(prefix))

    def calls(prefix):
        return sum(v["calls"] for k, v in agg.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    def median_s(name):
        return float(np.median(agg[name]["durations"])) if name in agg else 0.0

    def within(engine, prefixes):
        return sum(
            count
            for (eid, nid), count in tracer.within.items()
            if tracer.names[eid] == engine and tracer.names[nid].startswith(prefixes)
        )

    m = {}
    for layer in ("families", "quantum"):
        k = calls(f"{layer}.divergence:")
        m[f"{layer}.divergence_calls"] = (k / n, "count")
        m[f"{layer}.divergence_us"] = (ratio(total(f"{layer}.divergence:"), k) * 1e6, "us")
        m[f"{layer}.busy_s"] = (total(f"{layer}.") / n, "s")
    for chart in QUANTUM_CHARTS:
        name = f"quantum.divergence:{chart}"
        m[f"quantum.{chart.replace(':', '-')}.divergence_us"] = (ratio(total(name), calls(name)) * 1e6, "us")
    m["extraction.metric_calls"] = (calls("extraction.extract_metric") / n, "count")
    m["extraction.cubic_calls"] = (calls("extraction.extract_cubic") / n, "count")
    m["extraction.evals_per_tensor"] = (ratio(tracer.tensor_evals, tracer.tensors), "count")
    m["extraction.unique_ratio"] = (ratio(tracer.tensor_unique, tracer.tensor_evals), "ratio")
    m["extraction.self_s"] = (sum(v["self_s"] for k, v in agg.items() if k.startswith("extraction.")) / n, "s")

    draws = c["roundtrip.triangle_draws"]
    rows = c["roundtrip.spread_rows"]
    tensors_in_spread = within(
        "roundtrip.spread_estimate", ("extraction.extract_cubic", "families.forward_cubic", "quantum.forward_cubic")
    )
    m["roundtrip.triangle_draws_per_s"] = (ratio(draws, total("roundtrip.triangle_simulate")), "1/s")
    m["roundtrip.rejected_ratio"] = (ratio(c["roundtrip.triangle_rejected"], draws), "ratio")
    m["roundtrip.triangle_s"] = (median_s("roundtrip.triangle_simulate"), "s")
    m["roundtrip.spread_rows_per_s"] = (ratio(rows, total("roundtrip.spread_estimate")), "1/s")
    m["roundtrip.spread_cache_hit_ratio"] = (ratio(rows - tensors_in_spread, rows), "ratio")
    m["roundtrip.spread_s"] = (median_s("roundtrip.spread_estimate"), "s")
    m["roundtrip.demon_s"] = (median_s("roundtrip.demon_work"), "s")
    m["roundtrip.demon_extractions"] = (within("roundtrip.demon_work", ("extraction.extract_cubic",)) / n, "count")

    m["gap.fidelity_trials_per_s"] = (ratio(c["gap.fidelity_trials"], total("gap.mc_single_copy_fidelity")), "1/s")
    m["gap.fidelity_s"] = (median_s("gap.mc_single_copy_fidelity"), "s")
    m["gap.table_s"] = (c["gap.table_s"] / n, "s")

    jobs = c["cli.report_jobs"]
    for key in ("cli.interp_s", "cli.numpy_import_s", "cli.import_s"):
        m[key] = (imports["medians"][key], "s")
    m["cli.dispatch_s"] = (ratio(total("cli.run_config"), jobs), "s")
    m["cli.process_overhead_s"] = (ratio(c["cli.report_job_wall_s"] - c["cli.in_process_s"], jobs), "s")
    m["reports.render_s"] = (ratio(total("reports.render"), jobs), "s")
    m["reports.bytes"] = (c["reports.bytes"] / n, "bytes")
    m["bench.trace_overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain),
        "s",
    )
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "infogeo" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'infogeo'}; run from a checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import infogeo as ig

    if Path(ig.__file__).resolve().parent != (SRC / "infogeo").resolve():
        print(f"perfbench: imported infogeo from {ig.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import workloads
    from cli_jobs import CliJobs, child_env
    from tracing import Tracer, patched

    WORK.mkdir(exist_ok=True)
    env = child_env(SRC)
    if args.workload == "cli-jobs":
        wl = CliJobs(ROOT, WORK)
    else:
        wl = workloads.IN_PROCESS[args.workload]()

    # set-up: a fresh interpreter importing the package, plus input building,
    # repeated before the first pass; the last build is the one measured
    fresh("import infogeo", env)  # untimed: leaves compiled bytecode behind
    setup_samples: list[float] = []
    for _ in range(SETUP_REPEATS):
        t_import, _ = fresh("import infogeo", env)
        t0 = perf_counter()
        inputs = wl.build(args.seed)
        setup_samples.append(t_import + perf_counter() - t0)
    imports = import_profile(env) if args.trace else None

    ops = wl.ops()
    ctx = workloads.Context()
    run_pass(wl.warmup_ops(), ctx)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        op_ids = {op.name: tracer.name_id(f"op.{op.name}") for op in ops}

    passes: list[Pass] = []
    failures: list[str] = []
    reference = None
    deadline = perf_counter() + args.seconds
    while True:
        began = perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with patched(tracer):
                durations, refs, results = run_pass(ops, tracer, tracer, op_ids)
            if args.workload == "cli-jobs":
                failures += wl.dispatch_in_process(tracer, {op.name: d for op, d in zip(ops, durations)})
        else:
            durations, refs, results = run_pass(ops, ctx)
        pass_failures, prints = check_pass(ops, results, reference)
        reference = reference or prints
        failures += pass_failures
        passes.append(Pass(durations, refs, traced))
        now = perf_counter()
        # stop once one more pass would overshoot the deadline by more than
        # stopping now undershoots it
        if deadline - now < 0.5 * (now - began) and (tracer is None or len(passes) >= 2):
            break

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-jobs" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted = sum(len(p.durations) for p in passes)
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for p in passes:
        for op, d, t in zip(ops, p.durations, p.ref_durations()):
            by_kind.setdefault(op.name.split(":")[0], []).append((d, t))
    detail = {
        "inputs": inputs,
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "ops": attempted,
        "setup_samples_s": setup_samples,
        "wall_s": statistics.median(p.wall for p in passes),
        "pass_walls_s": [p.wall for p in passes],
        "reference_s": statistics.median(r for p in passes for r in p.refs),
        "op_kinds": {
            k: {
                "median_s": statistics.median(d for d, _ in v),
                "median_ref_s": statistics.median(t for _, t in v),
                "n": len(v),
            }
            for k, v in by_kind.items()
        },
        "failures": failures[:20],
    }
    if args.workload == "cli-jobs":
        detail["known_defects"] = wl.known_defects()

    if tracer is not None:
        metrics = layer_metrics(tracer, passes, imports)
        detail["importtime_cumulative_s"] = imports["importtime_cumulative_s"]
        trace_file = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_file)
        detail["spans"] = {"file": str(trace_file.relative_to(ROOT)), "count": len(tracer.name)}
    else:
        metrics = end_to_end(passes, statistics.median(setup_samples), rss_mb)

    print(json.dumps({"provenance": provenance(ig, args.workload, args.seed)}))
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
