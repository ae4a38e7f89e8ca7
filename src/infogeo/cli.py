"""Command-line entry point: every operation as a subcommand.

One invocation writes exactly one report document (JSON, CSV, or plot CSV)
to stdout or, atomically, to ``--out``.  Diagnostics go to stderr and never
into the report.  Exit codes: 0 success, 1 usage/domain/validation errors,
2 numerical-conditioning errors.

Stochastic subcommands (estimate, triangle, spread) require an explicit
``--seed``; the fully resolved configuration is embedded in every report, and
``geo replay report.json`` re-runs a report from its own config block,
reproducing it byte for byte apart from the timestamp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import reports
from .errors import (
    ConditioningError,
    InfoGeoError,
    NoisePanic,
    NumericalError,
    UsageError,
)
from .extraction import asymmetry_probe, convergence_report, extract_cubic, extract_metric
from .families import make_family, natural_view
from .gap import gap_report, gap_table, mc_single_copy_fidelity
from .quantum import bargmann_phase, make_chart_divergence, parse_amplitudes, veronese_embed
from .roundtrip import (
    LegDistribution,
    TradeSampler,
    demon_work,
    spread_estimate,
    triangle_simulate,
)

FORMATS = ("json", "csv", "plot-csv")
STOCHASTIC = ("estimate", "triangle", "spread")

BREGMAN_REFERENCE_RATIO = -1.0 / 6.0  # asymmetric coefficient / forward cubic
NAIVE_SIGN_FLIP_RATIO = 1.0 / 3.0  # what a bare dx -> -dx substitution suggests
RATIO_NOTE = (
    "for Bregman-type divergences the asymmetry coefficient is -1/6 of the "
    "forward cubic coefficient; the value +1/3 arises only if the reverse "
    "expansion is taken with the displacement negated but the base point "
    "held fixed"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _resolve_divergence(spec: str, eps: float, margin: float):
    if spec.startswith(("qre:", "qjsd:")):
        return make_chart_divergence(spec, eps=eps)
    if spec.startswith("natural:"):
        return natural_view(make_family(spec[len("natural:"):], margin=margin))
    return make_family(spec, margin=margin)


def build_parser() -> _Parser:
    parser = _Parser(prog="geo", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    def common(p):
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("gap", help="exact collective-vs-sequential fidelity gap")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", type=int, default=None)
    common(p)

    p = sub.add_parser("estimate", help="Monte-Carlo single-copy fidelity")
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--guess", choices=("outcome", "fixed"), default="outcome")
    common(p)

    p = sub.add_parser("divergence", help="evaluate D(p || q)")
    p.add_argument("--family", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--margin", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("tensor", help="extract the metric or cubic tensor")
    p.add_argument("--family", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--order", choices=("metric", "cubic"), default="metric")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--richardson", action="store_true")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--margin", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("asymmetry", help="probe D(p||p+hv) - D(p+hv||p)")
    p.add_argument("--family", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--steps", required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--margin", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("convergence", help="error decay across a step ladder")
    p.add_argument("--family", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--steps", required=True)
    p.add_argument("--richardson", action="store_true")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--margin", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("triangle", help="three-leg round-trip simulation")
    p.add_argument("--legs", nargs=3, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--sweep-shape",
        default=None,
        help="start,stop,count sweep of the first leg's shape parameter",
    )
    common(p)

    p = sub.add_parser("demon", help="path work sum, forward and reversed")
    p.add_argument("--family", required=True)
    p.add_argument("--path", default=None, help="CSV file, one waypoint per line")
    p.add_argument("--waypoints", default=None, help="inline 'a,b;c,d;...' path")
    p.add_argument("--method", choices=("fd", "oracle"), default="fd")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--tensor-at", choices=("start", "midpoint"), default="start")
    p.add_argument("--margin", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("spread", help="average surcharge over sampled trades")
    p.add_argument("--family", required=True)
    p.add_argument("--sampler", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=("fd", "oracle"), default="fd")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--margin", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("holonomy", help="Bargmann phase of a loop of states")
    p.add_argument("--loop", required=True, help="JSON file: array of amplitude arrays")
    common(p)

    p = sub.add_parser("veronese", help="embed a qubit in the spin-1 symmetric subspace")
    p.add_argument("--state", required=True)
    common(p)

    p = sub.add_parser("replay", help="re-run a report from its embedded config")
    p.add_argument("report", help="path to a previously emitted JSON report")
    common(p)

    return parser


# ---------------------------------------------------------------------------
# Config construction: every field resolved explicitly, no silent defaults
# ---------------------------------------------------------------------------


def _amplitudes_to_pairs(state) -> list[list[float]]:
    return [[a.real, a.imag] for a in state.amplitudes]


def _load_loop(path: str) -> list[list[list[float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    loop = []
    for entry in raw:
        amps = []
        for a in entry:
            if isinstance(a, str):
                amps.append(complex(a.replace("i", "j")))
            elif isinstance(a, (list, tuple)):
                amps.append(complex(a[0], a[1]))
            else:
                amps.append(complex(a))
        loop.append([[a.real, a.imag] for a in amps])
    return loop


def _load_waypoints(args) -> list[list[float]]:
    if (args.path is None) == (args.waypoints is None):
        raise UsageError("demon needs exactly one of --path or --waypoints")
    if args.path is not None:
        rows = []
        with open(args.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    rows.append(_parse_floats(line))
        return rows
    return [_parse_floats(part) for part in args.waypoints.split(";") if part.strip()]


def build_config(args) -> dict:
    # the output path is where the document goes, not part of its content,
    # so it stays out of the embedded config on purpose
    fmt = args.format or os.environ.get("GEO_DEFAULT_FORMAT") or "json"
    if fmt not in FORMATS:
        raise UsageError(f"unsupported format {fmt!r} (GEO_DEFAULT_FORMAT?)")
    cfg = {"subcommand": args.subcommand, "format": fmt}

    if args.subcommand == "gap":
        if (args.n is None) == (args.table is None):
            raise UsageError("gap needs exactly one of --n or --table")
        cfg.update(n=args.n, table=args.table)
    elif args.subcommand == "estimate":
        if args.copies != 1:
            raise UsageError(
                "only single-copy simulation is implemented; exact fidelities "
                "for more copies come from 'geo gap'"
            )
        cfg.update(
            copies=args.copies,
            trials=args.trials,
            seed=args.seed,
            guess=args.guess,
        )
    elif args.subcommand == "divergence":
        cfg.update(
            family=args.family,
            p=_parse_floats(args.p),
            q=_parse_floats(args.q),
            eps=args.eps,
            margin=args.margin,
        )
    elif args.subcommand == "tensor":
        h = args.h if args.h is not None else (1e-2 if args.order == "metric" else 5e-2)
        cfg.update(
            family=args.family,
            at=_parse_floats(args.at),
            order=args.order,
            h=h,
            richardson=bool(args.richardson),
            eps=args.eps,
            margin=args.margin,
        )
    elif args.subcommand == "asymmetry":
        cfg.update(
            family=args.family,
            at=_parse_floats(args.at),
            direction=_parse_floats(args.dir),
            steps=_parse_floats(args.steps),
            eps=args.eps,
            margin=args.margin,
        )
    elif args.subcommand == "convergence":
        cfg.update(
            family=args.family,
            at=_parse_floats(args.at),
            steps=_parse_floats(args.steps),
            richardson=bool(args.richardson),
            eps=args.eps,
            margin=args.margin,
        )
    elif args.subcommand == "triangle":
        sweep = None
        if args.sweep_shape is not None:
            parts = _parse_floats(args.sweep_shape)
            if len(parts) != 3 or int(parts[2]) < 2:
                raise UsageError("--sweep-shape wants start,stop,count with count >= 2")
            sweep = [parts[0], parts[1], int(parts[2])]
        cfg.update(
            legs=[LegDistribution.parse(leg).spec() for leg in args.legs],
            samples=args.samples,
            seed=args.seed,
            sweep_shape=sweep,
        )
    elif args.subcommand == "demon":
        h = args.h
        if h is None and args.method == "fd":
            h = 5e-2  # the finite-difference default, resolved explicitly
        cfg.update(
            family=args.family,
            waypoints=_load_waypoints(args),
            method=args.method,
            h=h,
            tensor_at=args.tensor_at,
            margin=args.margin,
        )
    elif args.subcommand == "spread":
        family = make_family(args.family, margin=args.margin)
        h = args.h
        if h is None and args.method == "fd":
            h = 5e-2
        cfg.update(
            family=args.family,
            sampler=TradeSampler.parse(args.sampler, family.dimension).spec(),
            samples=args.samples,
            seed=args.seed,
            method=args.method,
            h=h,
            margin=args.margin,
        )
    elif args.subcommand == "holonomy":
        cfg.update(loop=_load_loop(args.loop))
    elif args.subcommand == "veronese":
        state = parse_amplitudes(args.state)
        cfg.update(state=_amplitudes_to_pairs(state))
    else:
        raise UsageError("missing subcommand; try 'geo --help'")
    return cfg


# ---------------------------------------------------------------------------
# Dispatch: config dict in, (kind, result dict) out
# ---------------------------------------------------------------------------


def _tensor_result(cfg: dict) -> dict:
    div = _resolve_divergence(cfg["family"], cfg["eps"], cfg["margin"])
    at = np.asarray(cfg["at"], dtype=float)
    if cfg["order"] == "metric":
        rec = extract_metric(div, at, h=cfg["h"], richardson=cfg["richardson"])
        oracle = div.fisher(at) if hasattr(div, "fisher") else None
    else:
        rec = extract_cubic(div, at, h=cfg["h"], richardson=cfg["richardson"])
        oracle = div.forward_cubic(at) if hasattr(div, "forward_cubic") else None
    comps = rec.components
    rank = comps.ndim
    packed_idx = []
    packed_val = []
    for idx in np.ndindex(*comps.shape):
        if list(idx) == sorted(idx):
            packed_idx.append(list(idx))
            packed_val.append(float(comps[idx]))
    if hasattr(div, "chart"):
        chart = div.chart.chart_id
    elif rec.family_id.endswith(":natural"):
        chart = "natural"
    else:
        chart = "default"
    result = {
        "family": rec.family_id,
        "chart": chart,
        "base_point": list(rec.base_point),
        "h": rec.step,
        "method": rec.method,
        "rank": rank,
        "components": comps.tolist(),
        "packed": {"indices": packed_idx, "values": packed_val},
        "presym_residual": rec.presym_residual,
        "richardson_disagreement": rec.richardson_disagreement,
    }
    if cfg["order"] == "metric":
        result["min_eigenvalue"] = rec.min_eigenvalue
    else:
        result["noise_estimate"] = rec.noise_estimate
    if oracle is not None:
        oracle = np.asarray(oracle, dtype=float)
        denom = float(np.max(np.abs(oracle)))
        delta = float(np.max(np.abs(comps - oracle)))
        result["oracle"] = oracle.tolist()
        result["oracle_delta"] = delta / denom if denom > 0 else delta
    return result


def _asymmetry_result(cfg: dict) -> dict:
    div = _resolve_divergence(cfg["family"], cfg["eps"], cfg["margin"])
    probe = asymmetry_probe(
        div, np.asarray(cfg["at"]), np.asarray(cfg["direction"]), cfg["steps"]
    )
    result = {
        "family": probe.family_id,
        "base_point": list(probe.base_point),
        "direction": list(probe.direction),
        "steps": list(probe.steps),
        "values": list(probe.values),
        "identically_symmetric": probe.degenerate,
        "slope": probe.slope,
        "coefficient": probe.coefficient,
        "cubic_vvv": probe.cubic_vvv,
        "ratio": probe.ratio,
        "bregman_reference_ratio": BREGMAN_REFERENCE_RATIO,
        "naive_sign_flip_ratio": NAIVE_SIGN_FLIP_RATIO,
        "ratio_note": RATIO_NOTE,
    }
    if probe.ratio is not None:
        result["ratio_minus_reference"] = probe.ratio - BREGMAN_REFERENCE_RATIO
        result["ratio_minus_naive"] = probe.ratio - NAIVE_SIGN_FLIP_RATIO
    return result


def _convergence_result(cfg: dict) -> dict:
    div = _resolve_divergence(cfg["family"], cfg["eps"], cfg["margin"])
    rep = convergence_report(
        div, np.asarray(cfg["at"]), cfg["steps"], richardson=cfg["richardson"]
    )
    return {
        "family": rep.family_id,
        "base_point": list(rep.base_point),
        "metric_oracle": None if rep.metric_oracle is None else rep.metric_oracle.tolist(),
        "cubic_oracle": None if rep.cubic_oracle is None else rep.cubic_oracle.tolist(),
        "metric_order": rep.metric_order,
        "cubic_order": rep.cubic_order,
        "rungs": [
            {
                "h": r.h,
                "metric": r.metric.tolist(),
                "cubic": r.cubic.tolist(),
                "metric_error": r.metric_error,
                "cubic_error": r.cubic_error,
            }
            for r in rep.rungs
        ],
    }


def _gap_row(rep) -> dict:
    row = {
        "n_copies": rep.n_copies,
        "special_cased": rep.special_cased,
        "note": rep.note,
    }
    for name in ("spin", "f_col", "f_seq", "gap"):
        frac = getattr(rep, name)
        row[name] = str(frac)
        row[name + "_decimal"] = float(frac)
    return row


def _triangle_row(rep) -> dict:
    return reports.jsonable(rep)


def dispatch(cfg: dict):
    sub = cfg["subcommand"]
    if sub == "gap":
        if cfg["n"] is not None:
            return "gap", _gap_row(gap_report(cfg["n"]))
        return "gap-table", {"rows": [_gap_row(r) for r in gap_table(cfg["table"])]}
    if sub == "estimate":
        est = mc_single_copy_fidelity(cfg["trials"], cfg["seed"], guess=cfg["guess"])
        return "estimate", reports.jsonable(est)
    if sub == "divergence":
        div = _resolve_divergence(cfg["family"], cfg["eps"], cfg["margin"])
        value = div.divergence(cfg["p"], cfg["q"])
        return "divergence", {"family": div.family_id, "value": value}
    if sub == "tensor":
        return "tensor", _tensor_result(cfg)
    if sub == "asymmetry":
        return "asymmetry", _asymmetry_result(cfg)
    if sub == "convergence":
        return "convergence", _convergence_result(cfg)
    if sub == "triangle":
        legs = [LegDistribution.parse(s) for s in cfg["legs"]]
        if cfg.get("sweep_shape"):
            start, stop, count = cfg["sweep_shape"]
            if legs[0].kind != "skewnormal":
                raise UsageError("--sweep-shape requires a skewnormal first leg")
            rows = []
            for shape in np.linspace(start, stop, int(count)):
                swept = LegDistribution(
                    "skewnormal", legs[0].location, legs[0].scale, float(shape)
                )
                rep = triangle_simulate(
                    [swept, legs[1], legs[2]], cfg["samples"], cfg["seed"]
                )
                row = _triangle_row(rep)
                row["shape"] = float(shape)
                rows.append(row)
            return "triangle-sweep", {"rows": rows}
        return "triangle", _triangle_row(
            triangle_simulate(legs, cfg["samples"], cfg["seed"])
        )
    if sub == "demon":
        family = make_family(cfg["family"], margin=cfg["margin"])
        rep = demon_work(
            family,
            cfg["waypoints"],
            method=cfg["method"],
            h=cfg["h"],
            tensor_at=cfg["tensor_at"],
        )
        return "demon", reports.jsonable(rep)
    if sub == "spread":
        family = make_family(cfg["family"], margin=cfg["margin"])
        sampler = TradeSampler.parse(cfg["sampler"], family.dimension)
        rep = spread_estimate(
            family,
            sampler,
            cfg["samples"],
            cfg["seed"],
            method=cfg["method"],
            h=cfg["h"],
        )
        return "spread", reports.jsonable(rep)
    if sub == "holonomy":
        loop = [[complex(re, im) for re, im in state] for state in cfg["loop"]]
        phase = bargmann_phase(loop)
        return "holonomy", {"phase": phase, "n_vertices": len(loop)}
    if sub == "veronese":
        state = [complex(re, im) for re, im in cfg["state"]]
        embedded = veronese_embed(state)
        return "veronese", {
            "input": cfg["state"],
            "embedded": _amplitudes_to_pairs(embedded),
        }
    raise UsageError(f"unknown subcommand {sub!r}")


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _plot_csv(kind: str, report: dict) -> str:
    result = report["result"]
    if kind == "gap-table":
        rows = [
            (r["n_copies"], r["f_col_decimal"], r["f_seq_decimal"], r["gap_decimal"])
            for r in result["rows"]
        ]
        return reports.table_csv(
            ["N", "f_col", "f_seq", "gap"],
            rows,
            comment="copies N vs collective/sequential fidelities and their gap",
        )
    if kind == "convergence":
        rows = []
        for r in result["rungs"]:
            rows.append(
                (
                    math.log10(r["h"]),
                    "" if not r["metric_error"] else math.log10(r["metric_error"]),
                    "" if not r["cubic_error"] else math.log10(r["cubic_error"]),
                )
            )
        return reports.table_csv(
            ["log10_h", "log10_metric_error", "log10_cubic_error"],
            rows,
            comment="step size vs oracle error for the metric and cubic tensors",
        )
    if kind == "triangle-sweep":
        rows = [
            (r["shape"], r["bare_cubic_mean"], r["bare_cubic_se"])
            for r in result["rows"]
        ]
        return reports.table_csv(
            ["shape", "bare_cubic_mean", "bare_cubic_se"],
            rows,
            comment="first-leg shape vs mean cubic contribution (1/3) sum x^3",
        )
    raise UsageError(f"plot-csv is not defined for report kind {kind!r}")


def _gap_table_csv(report: dict) -> str:
    rows = [
        (
            r["n_copies"],
            r["spin"],
            r["f_col"],
            r["f_seq"],
            r["gap"],
            r["f_col_decimal"],
            r["f_seq_decimal"],
            r["gap_decimal"],
        )
        for r in report["result"]["rows"]
    ]
    return reports.table_csv(
        ["N", "s", "f_col", "f_seq", "gap", "f_col_dec", "f_seq_dec", "gap_dec"],
        rows,
        comment="exact rationals as p/q plus decimal twins",
    )


def render(report: dict) -> str:
    fmt = report["config"]["format"]
    kind = report["kind"]
    if fmt == "json":
        return reports.dump_json(report)
    if fmt == "csv":
        if kind == "gap-table":
            return _gap_table_csv(report)
        return reports.kv_csv(report)
    return _plot_csv(kind, report)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_config(cfg: dict) -> dict:
    """Execute a resolved config and wrap the result; used by run and replay."""
    kind, result = dispatch(cfg)
    return reports.wrap_report(kind, cfg, result)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.subcommand == "replay":
        text = _replay(args.report, args.format)
    else:
        text = render(run_config(build_config(args)))
    _write(text, args.out)
    return 0


def _replay(path: str, fmt: str | None) -> str:
    """Re-run and render the report in ``path`` from its embedded config."""
    with open(path, "r", encoding="utf-8") as fh:
        original = json.load(fh)
    if not isinstance(original, dict) or not isinstance(original.get("config"), dict):
        raise UsageError(f"replay {path}: not a report with a config object")
    cfg = dict(original["config"])
    if fmt:
        cfg["format"] = fmt
    try:
        return render(run_config(cfg))
    except KeyError as exc:
        if exc.args[0] in cfg:
            raise
        raise UsageError(f"replay {path}: config lacks field {exc.args[0]!r}") from exc


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ConditioningError, NoisePanic, NumericalError) as exc:
        print(f"geo: numerical conditioning: {exc}", file=sys.stderr)
        return 2
    except (InfoGeoError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"geo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
