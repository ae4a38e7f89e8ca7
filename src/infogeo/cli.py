"""Command-line entry point: every operation as a subcommand.

One invocation writes exactly one report document (JSON, CSV, or plot CSV)
to stdout or to ``--out``, atomically when that names a regular file.
Diagnostics go to stderr and never into the report.  Exit codes: 0 success,
1 usage/domain/validation errors, 2 numerical-conditioning errors.

Stochastic subcommands (estimate, triangle, spread) require an explicit
``--seed``; the fully resolved configuration is embedded in every report, and
``geo replay report.json`` re-runs a report from its own config block,
reproducing it byte for byte apart from the timestamp.
"""

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from operator import itemgetter
from typing import Callable, NamedTuple

from . import extraction, families, gap, reports, roundtrip
from .errors import (
    ConditioningError,
    InfoGeoError,
    NoisePanic,
    NumericalError,
    UnsupportedFamily,
    UsageError,
)

FORMATS = ("json", "csv", "plot-csv")

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


def _amplitude(a) -> complex:
    if isinstance(a, str):
        return complex(a.replace("i", "j"))
    if isinstance(a, (list, tuple)):
        return complex(a[0], a[1])
    return complex(a)


def _load_loop(path: str) -> list[list[list[float]]]:
    """The states in a JSON file, as [re, im] pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        loop = json.load(fh)
    if not _list_of(_list_of(_is_amplitude))(loop):
        raise ValueError(
            f"{path}: expected a list of states, each a list of amplitudes "
            "(a string, a number or an [re, im] pair)"
        )
    return reports.jsonable([[_amplitude(a) for a in entry] for entry in loop])


# ---------------------------------------------------------------------------
# Config fields: what a value must be, and how its CLI argument becomes one
# ---------------------------------------------------------------------------


class Field(NamedTuple):
    """One config field.

    ``test`` is what a replayed value must pass (``what`` names it in the
    error).  ``parse`` turns the parsed CLI argument of the field's name into
    the config value, and is skipped when that argument is None; ``options``
    are the argparse options the field implies for that argument.
    """

    what: str
    test: Callable[[object], bool]
    parse: Callable = lambda value: value
    options: dict = {}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


def _is_amplitude(value) -> bool:
    return isinstance(value, str) or _is_number(value) or _is_pair(value)


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def _optional(kind: Field) -> Field:
    test = kind.test
    return Field(f"{kind.what} or null", lambda v: v is None or test(v), kind.parse, kind.options)


def _one_of(*values) -> Field:
    return Field(f"one of {values}", lambda v: v in values, options={"choices": values})


# the most shapes a sweep runs: each is a whole triangle simulation of
# --samples draws, so the count bounds the run time
_MAX_SWEEP = 1000


def _is_sweep(value) -> bool:
    """Three finite numbers, the last an integral count from 2 to ``_MAX_SWEEP``."""
    finite = _list_of(_is_number)(value) and len(value) == 3 and all(abs(x) < math.inf for x in value)
    return finite and 2 <= value[2] <= _MAX_SWEEP and value[2] == int(value[2])


def _parse_sweep(text: str) -> list:
    parts = _parse_floats(text)
    if not _is_sweep(parts):
        raise UsageError(f"--sweep-shape wants finite start,stop,count with an integral count from 2 to {_MAX_SWEEP}")
    return [parts[0], parts[1], int(parts[2])]


TEXT = Field("a string", lambda v: isinstance(v, str))
INT = Field("an integer", lambda v: _is_number(v) and isinstance(v, int), options={"type": int})


def _count(flag: str, noun: str, cap: int) -> Field:
    """An integer from 1 to ``cap``; the CLI refuses any other value of ``flag``."""

    def parse(value: int) -> int:
        if not 1 <= value <= cap:
            raise UsageError(f"{flag} wants {noun} from 1 to {cap}")
        return value

    return Field(f"an integer from 1 to {cap}", lambda v: INT.test(v) and 1 <= v <= cap, parse, INT.options)


# the most rows a gap table holds: its run time and its report grow
# linearly with the count
_MAX_TABLE = 10_000
# the most draws a Monte-Carlo run makes, about 10 s of --trials or
# --samples: the run time grows linearly with the count
_MAX_DRAWS = 10**8

TABLE = _optional(_count("--table", "a row count", _MAX_TABLE))
TRIALS = _count("--trials", "a count", _MAX_DRAWS)
DRAWS = _count("--samples", "a count", _MAX_DRAWS)
NUMBER = Field("a number", _is_number, options={"type": float})
FLAG = Field("true or false", lambda v: isinstance(v, bool), options={"action": "store_true"})
NUMBERS = Field("a list of numbers", _list_of(_is_number), _parse_floats)
POINT = Field("a non-empty list of numbers", lambda v: NUMBERS.test(v) and len(v) > 0, _parse_floats)
FORMAT = _one_of(*FORMATS)
LEGS = Field(
    "three leg specs",
    lambda v: _list_of(TEXT.test)(v) and len(v) == 3,
    lambda legs: [roundtrip.LegDistribution.parse(x).spec() for x in legs],
)
SWEEP = _optional(Field(
    f"[start, stop, count] of finite numbers, with an integral count from 2 to {_MAX_SWEEP}", _is_sweep, _parse_sweep
))
POINTS = Field("a list of points", _list_of(_list_of(_is_number)))


def _parse_state(text: str) -> list:
    # quantum, and numpy with it, loads only where a chart, a state or a loop
    # is used; the other field parsers need neither
    from .quantum import parse_amplitudes

    return reports.jsonable(parse_amplitudes(text).amplitudes)


STATE = Field("a list of [re, im] pairs", _list_of(_is_pair), _parse_state)
LOOP = Field("a list of states", _list_of(_list_of(_is_pair)), _load_loop)


# ---------------------------------------------------------------------------
# Runners: config dict in, (kind, result) out
# ---------------------------------------------------------------------------


def _resolve_divergence(cfg: dict):
    spec = cfg["family"]
    prefix, _, rest = spec.partition(":")
    prefix = prefix.strip().lower()  # as make_family reads a family's name
    if prefix in ("qre", "qjsd"):
        if "eps" not in cfg:  # a chart's smoothing, which demon and spread take no option for
            what = "a classical family or its natural view, not a quantum chart"
            raise UnsupportedFamily(f"{spec}: {cfg['subcommand']} takes {what}")
        from .quantum import make_chart_divergence

        return make_chart_divergence(spec, eps=cfg["eps"])
    if prefix == "natural":
        return families.natural_view(families.make_family(rest, margin=cfg["margin"]))
    return families.make_family(spec, margin=cfg["margin"])


def _gap_row(rep) -> dict:
    row = rep._asdict()
    for name in ("spin", "f_col", "f_seq", "gap"):
        frac = row[name]
        row[name] = str(frac)
        row[name + "_decimal"] = float(frac)
    return row


def _run_gap(cfg: dict):
    if (cfg["n"] is None) == (cfg["table"] is None):
        raise UsageError("gap needs exactly one of --n or --table")
    if cfg["n"] is not None:
        return "gap", _gap_row(gap.gap_report(cfg["n"]))
    return "gap-table", {"rows": [_gap_row(r) for r in gap.gap_table(cfg["table"])]}


def _run_estimate(cfg: dict):
    return "estimate", gap.mc_single_copy_fidelity(cfg["trials"], cfg["seed"], guess=cfg["guess"])


def _run_divergence(cfg: dict):
    div = _resolve_divergence(cfg)
    return "divergence", {"family": div.family_id, "value": div.divergence(cfg["p"], cfg["q"])}


def _run_tensor(cfg: dict):
    div = _resolve_divergence(cfg)
    extract = extraction.extract_metric if cfg["order"] == "metric" else extraction.extract_cubic
    rec = extract(div, cfg["at"], h=cfg["h"], richardson=cfg["richardson"])
    comps = rec.components
    # the extraction has checked the point, so the kernel takes it unchecked
    closed = extraction._oracle(div, rec.base_point[None], (comps.ndim,))
    packed = list(itertools.combinations_with_replacement(range(len(comps)), comps.ndim))
    if hasattr(div, "chart"):
        chart = div.chart.chart_id
    elif rec.family_id.endswith(":natural"):
        chart = "natural"
    else:
        chart = "default"
    result = reports.jsonable(rec)
    result["family"] = result.pop("family_id")
    result["h"] = result.pop("step")
    result["chart"] = chart
    result["rank"] = comps.ndim
    result["packed"] = {"indices": [list(idx) for idx in packed], "values": [float(comps[idx]) for idx in packed]}
    if closed is not None:
        [[oracle]] = closed
        result["oracle"] = oracle.tolist()
        result["oracle_delta"] = extraction._tensor_errors(comps[None], oracle)[0]
    return "tensor", result


def _run_asymmetry(cfg: dict):
    probe = extraction.asymmetry_probe(_resolve_divergence(cfg), cfg["at"], cfg["direction"], cfg["steps"])
    result = reports.jsonable(probe)
    result["family"] = result.pop("family_id")
    result["identically_symmetric"] = result.pop("degenerate")
    result["bregman_reference_ratio"] = BREGMAN_REFERENCE_RATIO
    result["naive_sign_flip_ratio"] = NAIVE_SIGN_FLIP_RATIO
    result["ratio_note"] = RATIO_NOTE
    if probe.ratio is not None:
        result["ratio_minus_reference"] = probe.ratio - BREGMAN_REFERENCE_RATIO
        result["ratio_minus_naive"] = probe.ratio - NAIVE_SIGN_FLIP_RATIO
    return "asymmetry", result


def _run_convergence(cfg: dict):
    div = _resolve_divergence(cfg)
    rep = extraction.convergence_report(div, cfg["at"], cfg["steps"], richardson=cfg["richardson"])
    result = reports.jsonable(rep)
    result["family"] = result.pop("family_id")
    return "convergence", result


def _run_triangle(cfg: dict):
    import numpy as np

    legs = [roundtrip.LegDistribution.parse(s) for s in cfg["legs"]]
    if not cfg["sweep_shape"]:
        return "triangle", roundtrip.triangle_simulate(legs, cfg["samples"], cfg["seed"])
    start, stop, count = cfg["sweep_shape"]
    if count * cfg["samples"] > _MAX_DRAWS:
        what = f"{int(count)} simulations of --samples draws; at most {_MAX_DRAWS} draws in all"
        raise UsageError(f"--sweep-shape runs {what}")
    if legs[0].kind != "skewnormal":
        raise UsageError("--sweep-shape requires a skewnormal first leg")
    rows = []
    for shape in np.linspace(start, stop, int(count)):
        swept = roundtrip.LegDistribution("skewnormal", legs[0].location, legs[0].scale, float(shape))
        row = reports.jsonable(roundtrip.triangle_simulate([swept, *legs[1:]], cfg["samples"], cfg["seed"]))
        row["shape"] = float(shape)
        rows.append(row)
    return "triangle-sweep", {"rows": rows}


def _run_demon(cfg: dict):
    family = _resolve_divergence(cfg)
    options = {name: cfg[name] for name in ("method", "h", "tensor_at")}
    return "demon", roundtrip.demon_work(family, cfg["waypoints"], **options)


def _run_spread(cfg: dict):
    family = _resolve_divergence(cfg)
    sampler = roundtrip.TradeSampler.parse(cfg["sampler"], family.dimension)
    options = {name: cfg[name] for name in ("method", "h")}
    return "spread", roundtrip.spread_estimate(family, sampler, cfg["samples"], cfg["seed"], **options)


def _run_holonomy(cfg: dict):
    from .quantum import bargmann_phase

    loop = [[complex(re, im) for re, im in state] for state in cfg["loop"]]
    return "holonomy", {"phase": bargmann_phase(loop), "n_vertices": len(loop)}


def _run_veronese(cfg: dict):
    from .quantum import veronese_embed

    embedded = veronese_embed([complex(re, im) for re, im in cfg["state"]])
    return "veronese", {"input": cfg["state"], "embedded": embedded.amplitudes}


# ---------------------------------------------------------------------------
# Resolvers for fields that depend on more than their own argument
# ---------------------------------------------------------------------------


def _default_fd_step(cfg: dict) -> None:
    if cfg["h"] is None and cfg["method"] == "fd":
        cfg["h"] = extraction._DEFAULT_STEP["cubic"]  # the finite-difference default, resolved explicitly


def _resolve_tensor(args, cfg: dict) -> None:
    if cfg["h"] is None:
        cfg["h"] = extraction._DEFAULT_STEP[cfg["order"]]


def _resolve_demon(args, cfg: dict) -> None:
    _default_fd_step(cfg)
    if (args.path is None) == (args.waypoints is None):
        raise UsageError("demon needs exactly one of --path or --waypoints")
    if args.path is not None:
        with open(args.path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        cfg["waypoints"] = [_parse_floats(x) for x in lines if x and not x.startswith("#")]
    else:
        cfg["waypoints"] = [_parse_floats(x) for x in args.waypoints.split(";") if x.strip()]


def _resolve_spread(args, cfg: dict) -> None:
    cfg["sampler"] = roundtrip.TradeSampler.parse(args.sampler, _resolve_divergence(cfg).dimension).spec()
    _default_fd_step(cfg)


# ---------------------------------------------------------------------------
# The subcommand table
# ---------------------------------------------------------------------------


class Table(NamedTuple):
    """The column CSV form of a report kind whose result holds a row list."""

    columns: tuple
    row: Callable[[dict], tuple]
    comment: str
    rows: str = "rows"


def _log10_errors(rung: dict) -> tuple:
    return (
        math.log10(rung["h"]),
        "" if not rung["metric_error"] else math.log10(rung["metric_error"]),
        "" if not rung["cubic_error"] else math.log10(rung["cubic_error"]),
    )


class Subcommand(NamedTuple):
    """One ``geo`` subcommand.

    ``args`` are ``(flag, field, argparse options)`` triples; an argument with
    a field resolves to the config field of its argparse name, and a replayed
    config must have every such field.  ``resolve(args, cfg)`` fills in the
    fields that need more than their own argument.  ``run(cfg)`` returns
    ``(kind, result)``; ``tables`` maps ``(kind, format)`` to a column form.
    Replay has no runner: its config comes from the report it re-runs.
    """

    help: str
    args: tuple
    run: Callable | None = None
    resolve: Callable | None = None
    tables: dict = {}

    @property
    def config_fields(self) -> dict:
        return {
            options.get("dest", flag.lstrip("-").replace("-", "_")): kind
            for flag, kind, options in self.args
            if kind is not None
        }


REQUIRED = {"required": True}
FAMILY = ("--family", TEXT, REQUIRED)
AT = ("--at", POINT, REQUIRED)
STEPS = ("--steps", NUMBERS, REQUIRED)
SAMPLES = ("--samples", DRAWS, REQUIRED)
SEED = ("--seed", INT, REQUIRED)
RICHARDSON = ("--richardson", FLAG, {})
METHOD = ("--method", _one_of("fd", "oracle"), {"default": "fd"})
FD_STEP = ("--h", _optional(NUMBER), {})
EPS = ("--eps", NUMBER, {"default": 1e-3})
MARGIN = ("--margin", NUMBER, {"default": 1e-9})
OUTPUT = (("--format", FORMAT, {}), ("--out", None, {}))

SUBCOMMANDS = {
    "gap": Subcommand(
        "exact collective-vs-sequential fidelity gap",
        args=(("--n", _optional(INT), {}), ("--table", TABLE, {})),
        run=_run_gap,
        tables={
            ("gap-table", "csv"): Table(
                ("N", "s", "f_col", "f_seq", "gap", "f_col_dec", "f_seq_dec", "gap_dec"),
                itemgetter(
                    "n_copies", "spin", "f_col", "f_seq", "gap",
                    "f_col_decimal", "f_seq_decimal", "gap_decimal",
                ),
                "exact rationals as p/q plus decimal twins",
            ),
            ("gap-table", "plot-csv"): Table(
                ("N", "f_col", "f_seq", "gap"),
                itemgetter("n_copies", "f_col_decimal", "f_seq_decimal", "gap_decimal"),
                "copies N vs collective/sequential fidelities and their gap",
            ),
        },
    ),
    "estimate": Subcommand(
        "Monte-Carlo single-copy fidelity",
        args=(
            ("--trials", TRIALS, REQUIRED),
            SEED,
            ("--guess", _one_of("outcome", "fixed"), {"default": "outcome"}),
        ),
        run=_run_estimate,
    ),
    "divergence": Subcommand(
        "evaluate D(p || q)",
        args=(FAMILY, ("--p", POINT, REQUIRED), ("--q", POINT, REQUIRED), EPS, MARGIN),
        run=_run_divergence,
    ),
    "tensor": Subcommand(
        "extract the metric or cubic tensor",
        args=(
            FAMILY,
            AT,
            ("--order", _one_of("metric", "cubic"), {"default": "metric"}),
            ("--h", NUMBER, {}),
            RICHARDSON,
            EPS,
            MARGIN,
        ),
        resolve=_resolve_tensor,
        run=_run_tensor,
    ),
    "asymmetry": Subcommand(
        "probe D(p||p+hv) - D(p+hv||p)",
        args=(
            FAMILY,
            AT,
            ("--dir", POINT, {"dest": "direction", "metavar": "DIR", "required": True}),
            STEPS,
            EPS,
            MARGIN,
        ),
        run=_run_asymmetry,
    ),
    "convergence": Subcommand(
        "error decay across a step ladder",
        args=(FAMILY, AT, STEPS, RICHARDSON, EPS, MARGIN),
        run=_run_convergence,
        tables={
            ("convergence", "plot-csv"): Table(
                ("log10_h", "log10_metric_error", "log10_cubic_error"),
                _log10_errors,
                "step size vs oracle error for the metric and cubic tensors",
                rows="rungs",
            ),
        },
    ),
    "triangle": Subcommand(
        "three-leg round-trip simulation",
        args=(
            ("--legs", LEGS, {"nargs": 3, "required": True}),
            SAMPLES,
            SEED,
            (
                "--sweep-shape",
                SWEEP,
                {"help": "start,stop,count sweep of the first leg's shape parameter"},
            ),
        ),
        run=_run_triangle,
        tables={
            ("triangle-sweep", "plot-csv"): Table(
                ("shape", "bare_cubic_mean", "bare_cubic_se"),
                itemgetter("shape", "bare_cubic_mean", "bare_cubic_se"),
                "first-leg shape vs mean cubic contribution (1/3) sum x^3",
            ),
        },
    ),
    "demon": Subcommand(
        "path work sum, forward and reversed",
        args=(
            FAMILY,
            ("--path", None, {"help": "CSV file, one waypoint per line"}),
            ("--waypoints", POINTS, {"help": "inline 'a,b;c,d;...' path"}),
            METHOD,
            FD_STEP,
            ("--tensor-at", _one_of("start", "midpoint"), {"default": "start"}),
            MARGIN,
        ),
        resolve=_resolve_demon,
        run=_run_demon,
    ),
    "spread": Subcommand(
        "average surcharge over sampled trades",
        args=(FAMILY, ("--sampler", TEXT, REQUIRED), SAMPLES, SEED, METHOD, FD_STEP, MARGIN),
        resolve=_resolve_spread,
        run=_run_spread,
    ),
    "holonomy": Subcommand(
        "Bargmann phase of a loop of states",
        args=(
            ("--loop", LOOP, {"required": True, "help": "JSON file: array of amplitude arrays"}),
        ),
        run=_run_holonomy,
    ),
    "veronese": Subcommand(
        "embed a qubit in the spin-1 symmetric subspace",
        args=(("--state", STATE, REQUIRED),),
        run=_run_veronese,
    ),
    "replay": Subcommand(
        "re-run a report from its embedded config",
        args=(("report", None, {"help": "path to a previously emitted JSON report"}),),
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="geo", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kind, options in (*command.args, *OUTPUT):
            p.add_argument(flag, **(kind.options if kind else {}), **options)
    return parser


def build_config(args) -> dict:
    """Resolve every config field explicitly; no silent defaults."""
    command = SUBCOMMANDS.get(args.subcommand)
    if command is None or command.run is None:
        raise UsageError("missing subcommand; try 'geo --help'")
    # the output path is where the document goes, not part of its content,
    # so it stays out of the embedded config on purpose
    cfg = {"subcommand": args.subcommand, "format": args.format or "json"}
    for name, kind in command.config_fields.items():
        value = getattr(args, name)
        cfg[name] = None if value is None else kind.parse(value)
    if command.resolve is not None:
        command.resolve(args, cfg)
    return cfg


def dispatch(cfg: dict):
    """Run a resolved config; returns ``(kind, result)``."""
    command = SUBCOMMANDS.get(cfg["subcommand"])
    if command is None or command.run is None:
        raise UsageError(f"unknown subcommand {cfg['subcommand']!r}")
    return command.run(cfg)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def render(report: dict) -> str:
    fmt = report["config"]["format"]
    kind = report["kind"]
    if fmt == "json":
        return reports.dump_json(report)
    table = SUBCOMMANDS[report["config"]["subcommand"]].tables.get((kind, fmt))
    if table is not None:
        rows = map(table.row, report["result"][table.rows])
        return reports.table_csv(table.columns, rows, comment=table.comment)
    if fmt == "csv":
        return reports.kv_csv(report)
    raise UsageError(f"plot-csv is not defined for report kind {kind!r}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    if os.path.exists(out) and not os.path.isfile(out):
        # a FIFO or a device is written in place: replacing it would destroy it
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # attach a value that starts with one '-' to its option (--at=-0.5,1), the one form argparse reads it in
    command = SUBCOMMANDS.get(argv[0]) if argv else None
    valued = {flag for flag, kind, _ in (*command.args, *OUTPUT) if kind is not FLAG} if command else ()
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in valued and argv[i][:1] == "-" and argv[i][:2] != "--" and argv[i] != "-h":
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.subcommand == "replay":
        cfg = _replay_config(args.report, args.format)
    else:
        cfg = build_config(args)
    _write(render(run_config(cfg)), args.out)
    return 0


def _replay_config(path: str, fmt: str | None) -> dict:
    """The config embedded in the report at ``path``, checked against the
    fields of its subcommand, with ``fmt`` (if given) as its format."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            original = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise UsageError(
                f"replay {path}: not a JSON report; only JSON reports carry their config"
            ) from None
    if not isinstance(original, dict) or not isinstance(original.get("config"), dict):
        raise UsageError(f"replay {path}: not a report with a config object")
    cfg = dict(original["config"])
    if fmt:
        cfg["format"] = fmt
    runnable = tuple(name for name, command in SUBCOMMANDS.items() if command.run)
    fields = {"subcommand": _one_of(*runnable), "format": FORMAT}
    if cfg.get("subcommand") in runnable:
        fields.update(SUBCOMMANDS[cfg["subcommand"]].config_fields)
    for name, kind in fields.items():
        if name not in cfg:
            raise UsageError(f"replay {path}: config lacks field {name!r}")
        if not kind.test(cfg[name]):
            raise UsageError(f"replay {path}: config field {name!r} must be {kind.what}")
    return cfg


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
