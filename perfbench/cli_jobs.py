"""The cli-jobs workload: one client running ``geo`` processes in sequence.

Each operation is one fresh interpreter running the ``geo`` entry point,
exactly as the installed console script does, against the checkout's
``src``.  A pass runs the README's command list, replays every JSON report
and compares it byte for byte after ``reports.strip_timestamp``, then runs
error-path jobs that must end with exit 1 or 2 and one ``geo: ...`` line on
stderr.  The two inputs known to crash or hang the CLI are not part of the
pass: ``known_defects`` probes them once per run, after measuring.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from infogeo import cli
from infogeo.reports import strip_timestamp
from workloads import ASYM_REFERENCE, MC_SIGMAS, Op, _bloch_radial

GEO = "import sys; from infogeo.cli import main; sys.exit(main())"
# over ten times the slowest good job (about 0.4 s), so only a hang reaches it
JOB_TIMEOUT_S = 5.0


@dataclass
class JobResult:
    returncode: int | None  # None: killed at the timeout
    stdout: str
    stderr: str
    output: str | None  # the --out file's text, when the job names one


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # the report format must come from the command line, not the caller
    env.pop("GEO_DEFAULT_FORMAT", None)
    return env


def run_geo(argv: list[str], cwd: Path, env: dict, out: Path | None = None) -> JobResult:
    if out is not None:
        # a report left by an earlier pass or run must not pass for this job's
        out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", GEO, *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        return JobResult(None, exc.stdout or "", exc.stderr or "", None)
    text = out.read_text() if out is not None and out.exists() else None
    return JobResult(proc.returncode, proc.stdout, proc.stderr, text)


def _ok(res: JobResult, label: str) -> str | None:
    if res.returncode is None:
        return f"{label}: killed after {JOB_TIMEOUT_S:g} s"
    if res.returncode != 0:
        return f"{label}: exit {res.returncode}: {res.stderr.strip()[-300:]}"
    if res.stderr or not res.output:
        return f"{label}: stderr {res.stderr[-300:]!r} or no report written"
    return None


def _error_form(res: JobResult, codes: tuple[int, ...], label: str) -> str | None:
    if res.returncode is None:
        return f"{label}: killed after {JOB_TIMEOUT_S:g} s"
    lines = res.stderr.splitlines()
    if res.returncode not in codes or len(lines) != 1 or not lines[0].startswith("geo: "):
        last = lines[-1] if lines else ""
        return f"{label}: exit {res.returncode}, {len(lines)} stderr line(s), last {last[-200:]!r}"
    return None


@dataclass
class Job:
    name: str
    argv: list[str]
    out: Path | None
    check: object  # callable(JobResult) -> str | None


class CliJobs:
    name = "cli-jobs"

    def __init__(self, root: Path, work: Path):
        self.src = root / "src"
        self.work = work / "cli"
        self.env = child_env(self.src)

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 4])
        self.work.mkdir(parents=True, exist_ok=True)
        w = self.work
        theta = float(np.exp(rng.uniform(math.log(0.5), math.log(3.0))))
        p, q = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 2))
        v = rng.standard_normal(3)
        bloch = rng.uniform(0.1, 0.6) * v / np.linalg.norm(v)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        loop = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        theta0 = float(np.exp(rng.uniform(math.log(0.8), math.log(2.0))))
        path = theta0 * np.exp(0.3 * np.sin(2.0 * math.pi * np.arange(201) / 200))
        est_seed = int(rng.integers(0, 2**31))

        (w / "path.csv").write_text("".join(f"{float(x)!r}\n" for x in path))
        (w / "loop.json").write_text(json.dumps([[[z.real, z.imag] for z in s] for s in loop]))
        (w / "no-config.json").write_text(json.dumps({"schema_version": 1, "kind": "gap", "result": {}}))

        def csv(xs):
            return ",".join(repr(float(x)) for x in xs)

        steps_asym = csv(0.1 * theta * np.array([1.0, 0.5, 0.25, 0.125]))
        steps_conv = csv(theta * np.array([0.2, 0.1, 0.05]))
        state = ",".join(repr(complex(z)).strip("()") for z in amps)

        def job(name, argv, check, ext="json"):
            out = w / f"{name}.{ext}"
            return Job(name, [*argv, "--out", str(out)], out, check)

        main = [
            job("gap", ["gap", "--table", "100", "--format", "csv"], self._gap_check, "csv"),
            job("divergence", ["divergence", "--family", "exponential", "--p", repr(float(p)), "--q", repr(float(q))],
                self._divergence_check(float(p), float(q))),
            job("tensor", ["tensor", "--family", "qre:bloch", f"--at={csv(bloch)}", "--order", "cubic", "--richardson"],
                self._tensor_check(bloch)),
            job("asymmetry", ["asymmetry", "--family", "exponential", "--at", repr(theta), "--dir", "1",
                              "--steps", steps_asym], self._asymmetry_check),
            job("convergence", ["convergence", "--family", "exponential", "--at", repr(theta), "--steps", steps_conv,
                                "--format", "plot-csv"], self._convergence_check, "csv"),
            job("demon", ["demon", "--family", "exponential", "--path", str(w / "path.csv")],
                self._demon_check(path)),
            job("estimate", ["estimate", "--trials", "100000", "--seed", str(est_seed)], self._estimate_check),
            job("veronese", ["veronese", f"--state={state}"], self._veronese_check(amps)),
            job("holonomy", ["holonomy", "--loop", str(w / "loop.json")], self._holonomy_check(loop)),
        ]
        replays = [
            Job(f"replay:{j.name}", ["replay", str(j.out), "--out", str(w / f"replayed-{j.name}.json")],
                w / f"replayed-{j.name}.json", self._replay_check(j.out))
            for j in main
            if j.out.suffix == ".json"
        ]
        errors = [
            Job("error:unknown-family", ["divergence", "--family", "nosuch", "--p", "1", "--q", "2"], None,
                lambda r: _error_form(r, (1,), "unknown family")),
            Job("error:outside-domain", ["tensor", "--family", "exponential", "--at", "-1"], None,
                lambda r: _error_form(r, (1,), "point outside the domain")),
            Job("error:missing-seed", ["estimate", "--trials", "100000"], None,
                lambda r: _error_form(r, (1,), "missing --seed")),
            Job("error:noise-panic", ["tensor", "--family", "exponential", "--at", "1", "--order", "cubic",
                                      "--h", "1e-5"], None,
                lambda r: _error_form(r, (2,), "rounding noise dominates")),
        ]
        self.main, self.replays, self.jobs = main, replays, main + replays + errors
        return {
            "divergence": [float(p), float(q)],
            "tensor_at": bloch.tolist(),
            "exponential_at": theta,
            "path_file": "path.csv (201 waypoints)",
            "estimate_seed": est_seed,
            "jobs": [" ".join(j.argv) for j in self.jobs],
        }

    def ops(self) -> list[Op]:
        return [Op(j.name, lambda ctx, j=j: run_geo(j.argv, self.work, self.env, j.out), j.check) for j in self.jobs]

    def warmup_ops(self) -> list[Op]:
        return self.ops()[:1]

    # -- traced extras: the same configs dispatched and rendered in-process --

    def dispatch_in_process(self, tracer, op_walls: dict[str, float]) -> list[str]:
        """Time ``cli.run_config`` and ``cli.render`` on each report job's
        config; returns the jobs that failed in-process.

        ``op_walls`` maps job names to the wall time the job just took as a
        process; the difference is the per-process overhead.
        """
        run_config = tracer.wrap_function(cli.run_config, "cli")
        render = tracer.wrap_function(cli.render, "reports")
        parser = cli.build_parser()
        failures = []
        for j in self.main + self.replays:
            try:
                if j.name.startswith("replay:"):
                    cfg = dict(json.loads(Path(j.argv[1]).read_text())["config"])
                else:
                    cfg = cli.build_config(parser.parse_args(j.argv[:-2]))  # without --out
                t0 = perf_counter()
                report = run_config(cfg)
                t1 = perf_counter()
                text = render(report)
                t2 = perf_counter()
            except Exception as exc:  # counted like any failed operation
                failures.append(f"in-process {j.name}: {type(exc).__name__}: {exc}")
                continue
            tracer.count("cli.report_jobs", 1)
            tracer.count("cli.report_job_wall_s", op_walls[j.name])
            tracer.count("cli.in_process_s", t2 - t0)
            tracer.count("reports.bytes", len(strip_timestamp(text).encode()))
            if j.name == "gap":
                tracer.count("gap.table_s", t1 - t0)
        return failures

    def known_defects(self) -> dict:
        """Probe the two inputs the CLI is known to crash or hang on."""
        probes = {
            "replay-without-config": ["replay", str(self.work / "no-config.json")],
            "triangle-point-mass-leg": ["triangle", "--legs", "gaussian:-2,0", "gaussian:0,0.01", "gaussian:0,0.01",
                                        "--samples", "1000", "--seed", "1"],
        }
        found = {}
        for name, argv in probes.items():
            problem = _error_form(run_geo(argv, self.work, self.env), (1, 2), name)
            found[name] = problem or "ok"
        return found

    # -- checks --

    @staticmethod
    def _report(res: JobResult, kind: str, label: str):
        problem = _ok(res, label)
        if problem:
            return None, problem
        doc = json.loads(res.output)
        if doc.get("kind") != kind:
            return None, f"{label}: report kind {doc.get('kind')!r}"
        return doc["result"], None

    def _gap_check(self, res):
        problem = _ok(res, "gap table")
        if problem:
            return problem
        lines = res.output.splitlines()
        if len(lines) != 102 or not lines[0].startswith("# ") or lines[2].split(",")[4] != "0":
            return f"gap table csv: {len(lines)} lines, row 1 {lines[2] if len(lines) > 2 else ''!r}"
        return None

    def _divergence_check(self, p, q):
        def check(res):
            result, problem = self._report(res, "divergence", "divergence")
            if problem:
                return problem
            exact = math.log(p / q) + q / p - 1.0
            if abs(result["value"] - exact) > 1e-12 * max(1.0, abs(exact)):
                return f"divergence {result['value']!r} != {exact!r}"
            return None

        return check

    def _tensor_check(self, at):
        r_hat = at / np.linalg.norm(at)

        def check(res):
            result, problem = self._report(res, "tensor", "tensor")
            if problem:
                return problem
            comps = np.asarray(result["components"])
            _, t_rrr = _bloch_radial("qre", 1e-3, at)
            got = np.einsum("ijk,i,j,k->", comps, r_hat, r_hat, r_hat)
            err = abs(got - t_rrr) / max(abs(t_rrr), float(np.max(np.abs(comps))))
            return None if err <= 1e-3 else f"tensor radial cubic error {err:.3e}"

        return check

    def _asymmetry_check(self, res):
        result, problem = self._report(res, "asymmetry", "asymmetry")
        if problem:
            return problem
        if not 2.8 <= result["slope"] <= 3.2 or abs(result["ratio"] - ASYM_REFERENCE) > 0.05 * abs(ASYM_REFERENCE):
            return f"asymmetry slope {result['slope']} ratio {result['ratio']}"
        return None

    def _convergence_check(self, res):
        problem = _ok(res, "convergence")
        if problem:
            return problem
        lines = res.output.splitlines()
        if len(lines) != 5 or lines[1] != "log10_h,log10_metric_error,log10_cubic_error":
            return f"convergence plot-csv: {lines[:2]!r}, {len(lines)} lines"
        return None

    def _demon_check(self, path):
        # criterion 10's bound for the exponential family
        bound = 1.0 / path.min() ** 4 * float(np.max(np.abs(np.diff(path)))) ** 4 * (len(path) - 1)

        def check(res):
            result, problem = self._report(res, "demon", "demon")
            if problem:
                return problem
            if len(result["per_step"]) != len(path) - 1 or not abs(result["reversal_sum"]) <= bound:
                return f"demon reversal_sum {result['reversal_sum']!r} exceeds {bound:.3e}"
            return None

        return check

    def _estimate_check(self, res):
        result, problem = self._report(res, "estimate", "estimate")
        if problem:
            return problem
        if not abs(result["mean"] - 2.0 / 3.0) <= MC_SIGMAS * result["std_error"]:
            return f"estimate {result['mean']!r} not within 4 SE of 2/3"
        return None

    def _veronese_check(self, amps):
        a, b = amps / np.linalg.norm(amps)
        expected = np.array([a * a, math.sqrt(2.0) * a * b, b * b])

        def check(res):
            result, problem = self._report(res, "veronese", "veronese")
            if problem:
                return problem
            got = np.array([complex(re, im) for re, im in result["embedded"]])
            return None if np.max(np.abs(got - expected)) <= 1e-12 else "veronese embedding differs"

        return check

    def _holonomy_check(self, loop):
        states = [s / np.linalg.norm(s) for s in loop]
        expected = float(np.angle(np.prod([np.vdot(states[(k + 1) % 3], states[k]) for k in range(3)])))

        def check(res):
            result, problem = self._report(res, "holonomy", "holonomy")
            if problem:
                return problem
            return None if abs(result["phase"] - expected) <= 1e-12 else f"holonomy {result['phase']!r} != {expected!r}"

        return check

    def _replay_check(self, original: Path):
        def check(res):
            problem = _ok(res, f"replay of {original.name}")
            if problem:
                return problem
            if strip_timestamp(res.output) != strip_timestamp(original.read_text()):
                return f"replay of {original.name} differs"
            return None

        return check
