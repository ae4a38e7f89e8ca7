"""The golden corpus: seeded results of every family, natural view and chart
spec, one report per engine, and every refusal, kept as float hex in
``tests/golden/corpus.json``.

A refusal (its type and message), an integer and a string must come back
identical, as a replayed report's bytes must
(``test_cli.test_every_subcommand_replays_byte_identically``).  A float
may move by at most its bound, ``bound`` below: eps times the size of the
terms its kernel cancels, through its stencil.  A change that moves a value
regenerates the corpus in the same commit, with

    PYTHONPATH=src python3 tests/golden/regenerate.py

which prints how many values moved and the largest moves, in units of their
bound.
"""

import contextlib
import functools
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from infogeo import (
    Bernoulli, Categorical, ExponentialScale, GaussianFixedSigma, GaussianFull, LegDistribution, TradeSampler,
    asymmetry_probe, bregman_divergence, convergence_report, demon_work, extract_cubic, extract_metric, gap_report,
    gap_table, make_chart_divergence, make_family, mc_single_copy_fidelity, natural_view, score_moment_tensor,
    spread_estimate, triangle_simulate, work_surcharge,
)
from infogeo.cli import main
from infogeo.errors import InfoGeoError
from infogeo.extraction import _stencil_plan
from infogeo.roundtrip import CHUNK_SIZE, _chunk_rng

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
EPS = np.finfo(float).eps


def bound(scale, weights=1.0, h=1.0, order=0, richardson=False):
    """How far a float may move: eps times ``scale``, the size of the terms
    its kernel cancels, through a stencil whose |W| sum to ``weights``, 5/3
    more with Richardson, whose (4 T(h/4) - T(h/2)) / 3 weighs the finest
    level by 4/3 and the next by 1/3, over the finest step's power h^order.

    A divergence row is a stencil of one point, order 0.  Every kernel
    cancels terms of size 1 near p = q (ratios near 1 and their logs, or
    entropies of smoothed spectra), so its scale is 1, or the divergence
    itself where that is larger; a closed form, or a Monte-Carlo mean, is
    its own terms' scale.
    """
    finest = h / 4 if richardson else h
    return EPS * np.asarray(scale) * weights * (5.0 / 3.0 if richardson else 1.0) / finest**order


# ---------------------------------------------------------------------------
# The bounds of each kind of result, from the rows or tensors it is built of
# ---------------------------------------------------------------------------


def _row_bounds(div, P, Q):
    """The bound of each divergence row D(P[i] || Q[i])."""
    return bound(np.maximum(1.0, np.abs(div.divergence_rows(P, Q))))


def _tensor_bounds(div, P, h, order, richardson):
    """The bound of a tensor extracted at each row of P: its stencil's
    largest sum of |W|, and the scale of the rows it differences."""
    d = div.dimension
    offsets, [(weights, _, _)] = _stencil_plan(d, (order,), richardson)
    points = (P[:, None, :] + (h / 4 if richardson else h) * offsets).reshape(-1, d)
    f = div.divergence_rows(np.repeat(P, len(offsets), axis=0), points).reshape(len(P), -1)
    scale = np.maximum(1.0, np.abs(f).max(axis=1))
    return bound(scale, np.abs(weights).sum(axis=1).max(), h, order, richardson)


def _closed_bounds(div, P, order):
    """The bound of a closed-form tensor at each row of P: a sum of
    products of order + 1 factors, which may cancel to half their size."""
    [t] = div._closed_rows(P, (order,))
    return bound(2.0 * (order + 1) * np.abs(t).reshape(len(P), -1).max(axis=1))


def _fit_bounds(x, dy):
    """Bounds of the least-squares slope and intercept of (x, y) when each
    y[i] moves by at most dy[i]."""
    dx = x - x.mean()
    sxx = float((dx * dx).sum())
    return float((np.abs(dx) / sxx * dy).sum()), float((np.abs(1.0 / len(x) - x.mean() * dx / sxx) * dy).sum())


def _mc_bound(mean, se, n):
    """The bound of a mean, or its standard error, over n rows summed in any
    order: eps n times the mean |row|, which is at most the root mean square
    sqrt(mean^2 + n se^2)."""
    return bound(n * math.sqrt(mean * mean + n * se * se))


def _raised_by_infogeo(error: Exception) -> bool:
    """Whether ``error`` is a refusal of the package, not a fault of a bound here."""
    tb = error.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    return "infogeo" in Path(tb.tb_frame.f_code.co_filename).parts


# ---------------------------------------------------------------------------
# The cases: name -> thunk returning (result, bound tree)
# ---------------------------------------------------------------------------

# the points of each spec, written out so that every version evaluates the
# same floats: two per family, its natural view and each chart
POINTS = {
    "gaussian": [[0.3], [-1.7]],
    "gaussian:0.5": [[0.3], [2.5]],
    "exponential": [[1.0], [2.5]],
    "bernoulli": [[0.3], [0.82]],
    "categorical:3": [[0.2, 0.5], [0.6, 0.15]],
    "categorical:5": [[0.15, 0.2, 0.3, 0.15], [0.3, 0.15, 0.2, 0.15]],
    "gaussian-full": [[0.3, 1.2], [-1.5, 0.6]],
    "natural:gaussian": [[0.3], [-1.7]],
    "natural:gaussian:0.5": [[1.2], [10.0]],
    "natural:exponential": [[-1.0], [-2.5]],
    "natural:bernoulli": [[-0.85], [0.6]],
    "natural:categorical:3": [[-0.9, 0.5], [1.0, -0.3]],
    "natural:categorical:5": [[-0.3, 0.0, 0.4, -0.3], [0.4, -0.3, 0.0, -0.3]],
    "natural:gaussian-full": [[0.2, -0.35], [-1.0, -1.4]],
    "qre:bloch": [[0.1, 0.2, 0.3], [0.5, -0.3, 0.2]],
    "qjsd:bloch": [[0.1, 0.2, 0.3], [0.5, -0.3, 0.2]],
    "qre:diag-qutrit": [[0.2, 0.5], [0.6, 0.15]],
    "qjsd:diag-qutrit": [[0.2, 0.5], [0.6, 0.15]],
    "qre:veronese": [[1.0, 0.5], [2.0, -1.2]],
    "qjsd:veronese": [[1.0, 0.5], [2.0, -1.2]],
}
# per order, the default step and a finer one
STEPS = {2: (1e-2, 2e-3), 3: (5e-2, 1e-2)}
# each point to these multiples of (1, -1, 1, ...) away from it
DISPLACEMENTS = (1e-3, -0.02, 0.1)


def _divergence(spec: str):
    if spec.startswith(("qre:", "qjsd:")):
        return make_chart_divergence(spec)
    if spec.startswith("natural:"):
        return natural_view(make_family(spec[len("natural:"):]))
    return make_family(spec)


def _divergence_case(div, P):
    direction = (-1.0) ** np.arange(div.dimension)
    Q = np.concatenate([P + s * direction for s in DISPLACEMENTS])
    P = np.tile(P, (len(DISPLACEMENTS), 1))
    return div.divergence_rows(P, Q), _row_bounds(div, P, Q)


def _closed_case(div, P):
    g, t = div._closed_rows(P, (2, 3))
    return [g, t], [_closed_bounds(div, P, 2)[:, None, None], _closed_bounds(div, P, 3)[:, None, None, None]]


def _tensor_case(div, p, h, order, richardson):
    rec = (extract_metric if order == 2 else extract_cubic)(div, p, h=h, richardson=richardson)
    b = float(_tensor_bounds(div, np.array([p]), h, order, richardson)[0])
    # a metric's eigenvalue moves by at most the move of its Frobenius norm;
    # a Richardson disagreement is two levels' moves, within the 5/3
    return rec, {"components": b, "min_eigenvalue": div.dimension * b, "richardson_disagreement": b}


def _asymmetry_case(div, p, v, steps):
    probe = asymmetry_probe(div, p, v, steps)
    p, v, steps = (np.asarray(x, dtype=float) for x in (p, v, steps))
    X = p + steps[:, None] * v
    values = _row_bounds(div, p[None], X) + _row_bounds(div, X, p[None])
    slope, _ = _fit_bounds(np.log(steps), values / np.abs(probe.values))
    _, coefficient = _fit_bounds(steps, values / steps**3)
    tvvv = float(_tensor_bounds(div, p[None], steps[0], 3, True)[0]) * np.abs(v).sum() ** 3
    ratio = abs(probe.ratio) * (coefficient / abs(probe.coefficient) + tvvv / abs(probe.cubic_vvv))
    bounds = {"values": values, "slope": slope, "coefficient": coefficient, "cubic_vvv": tvvv, "ratio": ratio}
    return probe, bounds


def _convergence_case(div, p, ladder, richardson):
    rep = convergence_report(div, p, ladder, richardson=richardson)
    P = np.array([p])
    metric_oracle, cubic_oracle = (float(_closed_bounds(div, P, k)[0]) for k in (2, 3))
    rungs, errors = [], {2: [], 3: []}
    for rung in rep.rungs:
        b = {k: float(_tensor_bounds(div, P, rung.h, k, richardson)[0]) for k in (2, 3)}
        m_err = (b[2] + metric_oracle) / np.abs(rep.metric_oracle).max()
        c_err = (b[3] + cubic_oracle) / np.abs(rep.cubic_oracle).max()
        rungs.append({"metric": b[2], "cubic": b[3], "metric_error": m_err, "cubic_error": c_err})
        errors[2].append((rung.metric_error, m_err))
        errors[3].append((rung.cubic_error, c_err))
    logs = np.log(np.asarray(ladder, dtype=float))
    orders = [_fit_bounds(logs, np.array([b / e for e, b in errors[k]]))[0] for k in (2, 3)]
    bounds = {"rungs": rungs, "metric_order": orders[0], "cubic_order": orders[1],
              "metric_oracle": metric_oracle, "cubic_oracle": cubic_oracle}
    return rep, bounds


def _demon_case(div, waypoints, method):
    rep = demon_work(div, waypoints, method=method)
    pts = np.asarray(waypoints, dtype=float)
    # a step's surcharge is T(s, s, s) / 6, with T at its start
    at = _tensor_bounds(div, pts, 5e-2, 3, True) if method == "fd" else _closed_bounds(div, pts, 3)
    cube = np.abs(np.diff(pts, axis=0)).sum(axis=1) ** 3 / 6.0
    forward, backward = at[:-1] * cube, (at[1:] * cube)[::-1]
    total, reversed_total = float(forward.sum()), float(backward.sum())
    bounds = {"per_step": forward, "total": total, "reversed_total": reversed_total,
              "reversal_sum": total + reversed_total}
    return rep, bounds


def _spread_case(div, spec, samples, seed):
    sampler = TradeSampler.parse(spec, div.dimension)
    rep = spread_estimate(div, sampler, samples, seed)
    # the engine's own draws, chunk by chunk
    sizes = [min(CHUNK_SIZE, samples - start) for start in range(0, samples, CHUNK_SIZE)]
    steps = np.concatenate([sampler.sample(_chunk_rng(seed, k), n) for k, n in enumerate(sizes)])
    tensor = float(_tensor_bounds(div, np.array([sampler.point]), 5e-2, 3, True)[0])
    # each surcharge moves with the tensor, so the mean and the standard
    # error move by at most the mean move, beside the sums' own rounding
    moved = tensor * float((np.abs(steps).sum(axis=1) ** 3).mean()) / 6.0
    return rep, moved + _mc_bound(rep.mean, rep.std_error, samples)


def _triangle_case(legs, samples, seed):
    rep = triangle_simulate(legs, samples, seed)
    bounds = {
        f"{name}_{part}": _mc_bound(getattr(rep, f"{name}_mean"), getattr(rep, f"{name}_se"), samples)
        for name in ("exact", "quadratic", "cubic", "bare_cubic") for part in ("mean", "se")
    }
    # a standardized third moment of n rows, through their standardized third
    # absolute moment: at most sqrt(kurtosis), about sqrt(3) on these legs
    bounds["leg_skewness"] = [float(bound(samples * (3.0 + 1.5 * abs(s)))) for s in rep.leg_skewness]
    # a rounding residue of the exact statistic's rows
    bounds["identity_max_error"] = bounds["exact_mean"]
    return rep, bounds


def _fidelity_case(trials, seed, guess):
    rep = mc_single_copy_fidelity(trials, seed, guess=guess)
    b = _mc_bound(rep.mean, rep.std_error, trials)
    return rep, {"mean": b, "std_error": b}


# a closed ellipse of 201 waypoints, like the demon benchmark's path
_ELLIPSE = [[0.3 * math.cos(t), 1.0 + 0.4 * math.sin(t)] for t in np.linspace(0.0, 2.0 * math.pi, 201)]
_LEGS = ["skewnormal:0,0.01,4", "gaussian:0,0.01", "gaussian:0,0.01"]

ENGINES = {
    "asymmetry/exponential": lambda: _asymmetry_case(ExponentialScale(), [1.0], [1.0], [0.2, 0.1, 0.05, 0.025]),
    "asymmetry/natural:bernoulli": lambda: _asymmetry_case(
        natural_view(Bernoulli()), [-0.85], [1.0], [0.2, 0.1, 0.05, 0.025]
    ),
    "asymmetry/gaussian-full": lambda: _asymmetry_case(
        GaussianFull(), [0.3, 1.2], [0.6, -0.8], [0.1, 0.05, 0.025, 0.0125]
    ),
    "convergence/bernoulli": lambda: _convergence_case(Bernoulli(), [0.3], [0.1, 0.05, 0.025], True),
    "convergence/natural:gaussian-full": lambda: _convergence_case(
        natural_view(GaussianFull()), [0.2, -0.35], [0.02, 0.01, 0.005], False
    ),
    "demon/gaussian-full/fd": lambda: _demon_case(GaussianFull(), _ELLIPSE, "fd"),
    "demon/gaussian-full/oracle": lambda: _demon_case(GaussianFull(), _ELLIPSE, "oracle"),
    "demon/natural:bernoulli/fd": lambda: _demon_case(natural_view(Bernoulli()), [[-1.0], [0.0], [1.0]], "fd"),
    "surcharge/exponential": lambda: (
        work_surcharge(ExponentialScale(), [1.0], [0.1]),
        float(_tensor_bounds(ExponentialScale(), np.array([[1.0]]), 5e-2, 3, True)[0]) * 0.1**3 / 6.0,
    ),
    "spread/gaussian-full": lambda: _spread_case(GaussianFull(), "gauss:0.3,1.2,0.05", 100_000, 5),
    "triangle": lambda: _triangle_case(_LEGS, 100_000, 3),
    "fidelity/outcome": lambda: _fidelity_case(150_000, 11, "outcome"),
    "fidelity/fixed": lambda: _fidelity_case(20_000, 2, "fixed"),
    "gap/3": lambda: (gap_report(3), 0.0),
    "gap/table": lambda: (gap_table(4), 0.0),
    "bregman/gaussian-full": lambda: (
        bregman_divergence(GaussianFull(), [0.3, 1.2], [-0.2, 0.9]), float(bound(4.0))
    ),
    "score-moment/categorical:3": lambda: (
        score_moment_tensor(Categorical(3), [0.2, 0.5]),
        float(_closed_bounds(natural_view(Categorical(3)), Categorical(3).to_natural([0.2, 0.5])[None], 3)[0]),
    ),
}


def _cli(*argv):
    """A refusal of the command line, as its exit code and message."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "stderr": err.getvalue()}


# each refusal a message can name, from the one-point checks to the engines'
REFUSALS = {
    "divergence/outside": lambda: ExponentialScale().divergence([-1.0], [1.0]),
    "divergence/natural-outside": lambda: natural_view(Bernoulli()).divergence([25.0], [0.0]),
    "divergence/width": lambda: ExponentialScale().divergence([1.0, 2.0], [1.0]),
    "divergence/rows-width": lambda: GaussianFull().divergence_rows([[1.0]], [[1.0]]),
    "divergence/overflow": lambda: GaussianFixedSigma().divergence([0.0], [1e200]),
    "divergence/log-underflow": lambda: ExponentialScale().divergence([1e-300], [1e300]),
    "closed/overflow": lambda: GaussianFull().forward_cubic([0.0, 1e-120]),
    "closed/outside": lambda: Bernoulli().fisher([1.3]),
    "family/unknown": lambda: make_family("nosuch"),
    "family/categorical-count": lambda: make_family("categorical"),
    "family/sigma": lambda: make_family("gaussian:0"),
    "family/margin": lambda: Bernoulli(margin=0.6),
    "family/outcomes": lambda: Categorical(1),
    "natural/chart": lambda: natural_view(make_chart_divergence("qre:bloch")),
    "score-moment/chart": lambda: score_moment_tensor(natural_view(Bernoulli()), [0.3]),
    "score-moment/outside": lambda: score_moment_tensor(Bernoulli(), [1.3]),
    "extract/base-outside": lambda: extract_metric(ExponentialScale(), [-1.0]),
    "extract/stencil-outside": lambda: extract_cubic(Bernoulli(), [0.05]),
    "extract/natural-stencil-outside": lambda: extract_cubic(natural_view(Bernoulli()), [20.65], richardson=True),
    "extract/chart-stencil-outside": lambda: extract_cubic(make_chart_divergence("qre:bloch"), [0.0, 0.0, 0.9],
                                                           richardson=True),
    "extract/unresolved": lambda: extract_metric(GaussianFull(), [1e15, 1.0]),
    "extract/cube-underflow": lambda: extract_cubic(GaussianFixedSigma(), [0.0], h=1e-122),
    "extract/cube-overflow": lambda: extract_cubic(GaussianFixedSigma(), [0.0], h=1e110),
    "extract/step": lambda: extract_metric(ExponentialScale(), [1.0], h=-1.0),
    "extract/noise-panic": lambda: extract_cubic(ExponentialScale(), [1.0], h=1e-5),
    "extract/eigenvalue": lambda: extract_metric(natural_view(GaussianFull()), [1.0, -0.1], h=0.05),
    "extract/width": lambda: extract_cubic(Categorical(14), [0.05] * 13),
    "asymmetry/steps": lambda: asymmetry_probe(ExponentialScale(), [1.0], [1.0], [0.1, 0.2, 0.05, 0.01]),
    "asymmetry/step-values": lambda: asymmetry_probe(ExponentialScale(), [1.0], [1.0], [math.inf, 0.2, 0.1, 0.05]),
    "asymmetry/direction-width": lambda: asymmetry_probe(ExponentialScale(), [1.0], [1.0, 0.0], [0.2, 0.1, 0.05, 0.01]),
    "asymmetry/zero-direction": lambda: asymmetry_probe(ExponentialScale(), [1.0], [0.0], [0.2, 0.1, 0.05, 0.01]),
    "asymmetry/probe-outside": lambda: asymmetry_probe(ExponentialScale(), [1.0], [-10.0], [0.2, 0.1, 0.05, 0.01]),
    "asymmetry/overflow": lambda: asymmetry_probe(ExponentialScale(), [1.0], [1e200], [0.2, 0.1, 0.05, 0.025]),
    "convergence/outside": lambda: convergence_report(Bernoulli(), [1.5], [0.1, 0.05]),
    "convergence/eigenvalue": lambda: convergence_report(natural_view(GaussianFull()), [1.0, -0.1], [0.05]),
    "chart/unknown": lambda: make_chart_divergence("qre:nosuch"),
    "chart/kind": lambda: make_chart_divergence("kl:bloch"),
    "chart/eps": lambda: make_chart_divergence("qre:bloch", eps=1.0),
    "chart/outside": lambda: make_chart_divergence("qre:bloch").divergence([0.9, 0.9, 0.0], [0.0, 0.0, 0.0]),
    "leg/kind": lambda: LegDistribution.parse("cauchy:0,1"),
    "leg/scale": lambda: LegDistribution("gaussian", 0.0, -1.0),
    "leg/shape": lambda: LegDistribution.parse("skewnormal:0,1"),
    "leg/shape-overflow": lambda: LegDistribution.parse("skewnormal:0,0.01,1e308"),
    "triangle/legs": lambda: triangle_simulate(_LEGS[:2], 10_000, 1),
    "triangle/samples": lambda: triangle_simulate(_LEGS, 100, 1),
    "triangle/rejections": lambda: triangle_simulate(["gaussian:0,1e200", *_LEGS[1:]], 10_000, 1),
    "triangle/not-finite": lambda: triangle_simulate(["shifted-lognormal:0,1000", *_LEGS[1:]], 10_000, 1),
    "triangle/power-sums": lambda: triangle_simulate(["shifted-lognormal:250,1", *_LEGS[1:]], 10_000, 1),
    "demon/waypoints": lambda: demon_work(GaussianFull(), [[0.3, 1.2]]),
    "demon/tensor-at": lambda: demon_work(GaussianFull(), _ELLIPSE[:3], tensor_at="end"),
    "demon/method": lambda: demon_work(GaussianFull(), _ELLIPSE[:3], method="jet"),
    "demon/waypoint-outside": lambda: demon_work(Bernoulli(), [[0.3], [1.2]]),
    "demon/stencil-outside": lambda: demon_work(Bernoulli(), [[0.3], [0.5], [0.95]]),
    "demon/no-oracle": lambda: demon_work(make_chart_divergence("qre:bloch"), [[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]],
                                          method="oracle"),
    "spread/samples": lambda: spread_estimate(ExponentialScale(), TradeSampler.parse("fixed:1,0.1", 1), 0, 1),
    "spread/point-outside": lambda: spread_estimate(ExponentialScale(), TradeSampler.parse("fixed:-1,0.1", 1), 10, 1),
    "spread/trade-outside": lambda: spread_estimate(
        ExponentialScale(), TradeSampler.parse("gauss:1,1e308", 1), 1000, 1
    ),
    "sampler/kind": lambda: TradeSampler.parse("uniform:1,0.1", 1),
    "sampler/fixed": lambda: TradeSampler.parse("fixed:1", 1),
    "sampler/gauss": lambda: TradeSampler.parse("gauss:1", 1),
    "gap/copies": lambda: gap_report(0),
    "gap/table": lambda: gap_table(0),
    "fidelity/trials": lambda: mc_single_copy_fidelity(100, 1),
    "fidelity/guess": lambda: mc_single_copy_fidelity(10_000, 1, guess="random"),
    "cli/gap": lambda: _cli("gap"),
    "cli/demon-chart": lambda: _cli("demon", "--family", "qre:bloch", "--waypoints", "0.1,0,0;0.2,0,0"),
    "cli/sweep": lambda: _cli("triangle", "--legs", *_LEGS, "--samples", "1000", "--seed", "1",
                              "--sweep-shape", "0,1,1000000"),
    "cli/seed": lambda: _cli("estimate", "--trials", "100000"),
    "cli/table": lambda: _cli("gap", "--table", "100000000"),
}


def _cases() -> dict:
    cases = {}
    for spec, points in POINTS.items():
        div, P = _divergence(spec), np.array(points)
        cases[f"{spec}/divergence"] = functools.partial(_divergence_case, div, P)
        if hasattr(div, "_closed_rows"):
            cases[f"{spec}/closed"] = functools.partial(_closed_case, div, P)
        for i, p in enumerate(points):
            for order, steps in STEPS.items():
                for h in steps:
                    for richardson in (False, True):
                        name = f"{spec}/{i}/{'metric' if order == 2 else 'cubic'}/h={h:g}" + "/richardson" * richardson
                        cases[name] = functools.partial(_tensor_case, div, p, h, order, richardson)
    cases.update(ENGINES)
    cases.update({f"refusal/{name}": lambda thunk=thunk: (thunk(), 0.0) for name, thunk in REFUSALS.items()})
    return cases


# ---------------------------------------------------------------------------
# Plain trees, float hex and the comparison
# ---------------------------------------------------------------------------


def _plain(value):
    """``value`` as JSON types, with records as objects and floats as floats."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _hex(tree):
    if isinstance(tree, dict):
        return {k: _hex(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_hex(v) for v in tree]
    return tree.hex() if isinstance(tree, float) else tree


def _branch(limit, key):
    """The bound of an entry of a tree whose bound is ``limit``: a dict or list
    of bounds by entry, or one bound for all; an entry without one is exact."""
    if isinstance(limit, dict):
        return limit.get(key, 0.0)
    if isinstance(limit, list):
        return limit[key] if len(limit) > 1 else limit[0]  # a length-1 axis broadcasts
    return limit


def _moves(fresh, limit, stored, path: str, out: list) -> None:
    """Append (path, move, bound) for each float of ``fresh`` against
    ``stored``, and (path, None, None) where anything else differs."""
    if isinstance(fresh, dict) and isinstance(stored, dict) and fresh.keys() == stored.keys():
        for key in fresh:
            _moves(fresh[key], _branch(limit, key), stored[key], f"{path}.{key}", out)
    elif isinstance(fresh, list) and isinstance(stored, list) and len(fresh) == len(stored):
        for i, (a, b) in enumerate(zip(fresh, stored)):
            _moves(a, _branch(limit, i), b, f"{path}[{i}]", out)
    elif isinstance(fresh, float) and isinstance(stored, str):
        old = float.fromhex(stored)
        same = old == fresh or (math.isnan(old) and math.isnan(fresh))
        out.append((path, 0.0 if same else abs(fresh - old), float(limit)))
    elif fresh != stored:
        out.append((path, None, None))


def evaluate() -> dict:
    """Every case's (plain result, plain bound tree); a refusal's bound is None."""
    results = {}
    for name, thunk in _cases().items():
        try:
            value, limit = thunk()
        except (InfoGeoError, ValueError) as error:
            if not _raised_by_infogeo(error):
                raise
            results[name] = ({"refused": [type(error).__name__, str(error)]}, None)
        else:
            results[name] = (_plain(value), _plain(limit))
    return results


def encode(results: dict) -> str:
    return json.dumps({name: _hex(value) for name, (value, _) in results.items()}, indent=1, sort_keys=True) + "\n"


def compare(results: dict, stored: dict) -> list:
    """(path, move, bound) of every float, and (path, None, None) for every
    other difference, among them a case missing on either side."""
    out = [(name, None, None) for name in stored.keys() ^ results.keys()]
    for name in results.keys() & stored.keys():
        value, limit = results[name]
        _moves(value, limit, stored[name], name, out)
    return out


def summary(moves: list, largest: int = 10) -> str:
    """How many floats moved, and the largest moves in units of their bound."""
    floats = [m for m in moves if m[1] is not None]
    moved = sorted((m for m in floats if m[1]), key=lambda m: -(m[1] / m[2] if m[2] else math.inf))
    lines = [f"{len(moved)} of {len(floats)} floats moved; {sum(m[1] is None for m in moves)} other values differ"]
    for path, move, b in moved[:largest]:
        lines.append(f"  {path}: {move:.3e}, {move / b if b else math.inf:.3g} of its bound {b:.3e}")
    lines += [f"  {path}: differs" for path, move, _ in moves if move is None]
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def _results() -> dict:
    return evaluate()


def test_every_value_is_within_its_bound_of_the_corpus():
    moves = compare(_results(), json.loads(CORPUS.read_text()))
    bad = [m for m in moves if m[1] is None or m[1] > m[2]]
    assert not bad, summary(bad)


def test_the_bound_of_a_tensor_at_the_default_steps_is_at_most_1e_8_of_it():
    # the bound is not vacuous: a tensor at the default step whose largest
    # component is at least 0.1 may move by at most 1e-8 of that component
    defaults = (f"/metric/h={STEPS[2][0]:g}", f"/cubic/h={STEPS[3][0]:g}")
    checked = 0
    for name, (value, limit) in _results().items():
        if limit is not None and any(step in name for step in defaults):
            largest = float(np.abs(value["components"]).max())
            if largest >= 0.1:
                assert limit["components"] <= 1e-8 * largest, name
                checked += 1
    assert checked >= 100
