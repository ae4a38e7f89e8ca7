"""The in-process workloads: seeded inputs, one pass of operations, checks.

A workload is built once from its seed; every pass then runs the same list
of operations on the same inputs, so passes are comparable and a pass's
counters are exact.  Each operation returns the program's result object and
has a check that names what is wrong with it, or returns None.

Tolerances are the ones the package's own tests state: metrics to 1e-6 and
cubics to 1e-3 relative to the largest oracle component, Monte-Carlo means
to 4 standard errors, demon reversal sums to the bound of criterion 10.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import infogeo as ig

METRIC_TOL = 1e-6
CUBIC_TOL = 1e-3
MC_SIGMAS = 4.0


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]  # takes a Context, returns the program's result
    check: Callable[[Any], str | None]


class Context:
    """What an operation may use: a divergence wrapper and a counter sink.

    This untraced context hands divergences through unchanged; in a traced
    pass the ``Tracer`` (tracing.py) takes its place.
    """

    def wrap(self, div):
        return div

    def count(self, key: str, value: float) -> None:
        pass


def _rel_err(got, ref) -> float:
    ref = np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref)))
    diff = float(np.max(np.abs(np.asarray(got, dtype=float) - ref)))
    return diff / scale if scale > 0 else diff


def _within(label: str, err: float, tol: float) -> str | None:
    if not math.isfinite(err) or err > tol:
        return f"{label}: relative error {err:.3e} > {tol:g}"
    return None


def resolve(spec: str, eps: float = 1e-3):
    """A divergence object from the spec strings the CLI accepts."""
    if spec.startswith(("qre:", "qjsd:")):
        return ig.make_chart_divergence(spec, eps=eps)
    if spec.startswith("natural:"):
        return ig.natural_view(ig.make_family(spec[len("natural:"):]))
    return ig.make_family(spec)


# ---------------------------------------------------------------------------
# stencil-wide: metric and cubic extraction on wide or expensive stencils
# ---------------------------------------------------------------------------

# seeded base points per divergence.  Op costs fall into clusters: gauss
# metric and cubic (2-5 ms), diag-qutrit and veronese metrics (8-9 ms),
# categorical:5 metric (12 ms), the 16-26 ms middle, then the categorical:5,
# qre:bloch, qjsd:bloch and categorical:7 cubics (43-134 ms).  These counts put
# the median op in the middle of the categorical:5 metrics and the 90th
# percentile in the middle of the qjsd:bloch cubics, not between two clusters.
WIDE_POINTS = {
    "natural:gaussian-full": 12,
    "categorical:5": 4,
    "categorical:7": 4,
    "qre:bloch": 2,
    "qjsd:bloch": 4,
    "qre:diag-qutrit": 2,
    "qre:veronese": 2,
}
# steps as a share of the distance that sets the local curvature scale: at
# these shares the Richardson error stays 10x or more below the tolerances
METRIC_SHARE = 0.02
CUBIC_SHARE = 0.1
STENCIL_SAFETY = 1.1


def stencil_fits(div, p: np.ndarray, h: float) -> bool:
    """True when every point a Richardson stencil of step ``h`` can reach,
    stretched by STENCIL_SAFETY, lies inside the (convex) domain.

    The cubic stencil reaches +-2h along one axis and +-h along up to three
    axes at once; the metric stencil stays inside that set.
    """
    d = div.dimension
    reach = h * STENCIL_SAFETY
    eye = np.eye(d)
    offsets = [s * 2.0 * reach * eye[i] for i in range(d) for s in (1.0, -1.0)]
    for k in range(1, min(3, d) + 1):
        for axes in itertools.combinations(range(d), k):
            for signs in itertools.product((1.0, -1.0), repeat=k):
                offsets.append(reach * sum(s * eye[a] for s, a in zip(signs, axes)))
    return all(div.contains(p + u) for u in offsets)


def _simplex_point(rng, k: int):
    full = 0.5 / k + 0.5 * rng.dirichlet(np.ones(k))
    return full[:-1], float(full.min())


def _wide_candidate(spec: str, div, rng):
    """(point, metric step, cubic step) for one draw."""
    if spec.startswith("categorical:") or spec == "qre:diag-qutrit":
        k = div.dimension + 1
        p, scale = _simplex_point(rng, k)
    elif spec == "natural:gaussian-full":
        mu = rng.uniform(-1.0, 1.0)
        sigma = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        p = div.family.to_natural([mu, sigma])
        scale = abs(float(p[1]))
    elif spec.endswith(":bloch"):
        v = rng.standard_normal(3)
        p = rng.uniform(0.1, 0.6) * v / np.linalg.norm(v)
        return p, 1e-2, 5e-2
    elif spec == "qre:veronese":
        p = np.array([rng.uniform(0.6, math.pi - 0.6), rng.uniform(-2.5, 2.5)])
        return p, 1e-2, 5e-2
    else:
        raise ValueError(f"no point generator for {spec}")
    return p, METRIC_SHARE * scale, CUBIC_SHARE * scale


def _wide_point(spec: str, div, rng):
    for _ in range(1000):
        p, hm, hc = _wide_candidate(spec, div, rng)
        if stencil_fits(div, p, max(hm, hc)):
            return p, hm, hc
    raise RuntimeError(f"no base point for {spec} keeps the stencil inside the domain")


def _bloch_radial(kind: str, eps: float, x: np.ndarray):
    """Radial metric and cubic of a Bloch-chart divergence.

    Along the Bloch vector the states commute, so the divergence is the
    classical one of the eigenvalue pair, with eigenvalue
    a = (1 + (1 - eps) r) / 2 moving at rate c = (1 - eps) / 2.
    """
    r = float(np.linalg.norm(x))
    a = (1.0 + (1.0 - eps) * r) / 2.0
    c = (1.0 - eps) / 2.0
    if kind == "qre":  # Bernoulli relative entropy
        g, t = 1.0 / (a * (1.0 - a)), 2.0 / (1.0 - a) ** 2 - 2.0 / a**2
    else:  # Jensen-Shannon: -H''/4 and -3H'''/8 of the binary entropy H
        g, t = 0.25 / (a * (1.0 - a)), -0.375 * (1.0 / a**2 - 1.0 / (1.0 - a) ** 2)
    return c**2 * g, c**3 * t


def _wide_check(spec: str, div, order: str, p: np.ndarray):
    eps = getattr(getattr(div, "chart", None), "eps", None)

    def check(rec) -> str | None:
        comps = rec.components
        if not np.all(np.isfinite(comps)):
            return f"{spec} {order}: non-finite components"
        if spec.startswith("categorical:"):
            ref = div.fisher(p) if order == "metric" else div.forward_cubic(p)
        elif spec == "natural:gaussian-full":
            ref = (
                div.fisher(p)
                if order == "metric"
                else ig.score_moment_tensor(div.family, div.family.from_natural(p))
            )
        elif spec == "qre:diag-qutrit":
            # commuting reduction: categorical:3 at the smoothed point, moved
            # by the chart's constant Jacobian (1 - eps) per index
            cat = ig.Categorical(3)
            smoothed = (1.0 - eps) * p + eps / 3.0
            ref = (
                (1.0 - eps) ** 2 * cat.fisher(smoothed)
                if order == "metric"
                else (1.0 - eps) ** 3 * cat.forward_cubic(smoothed)
            )
        elif spec.endswith(":bloch"):
            r_hat = p / np.linalg.norm(p)
            g_rr, t_rrr = _bloch_radial(spec.split(":")[0], eps, p)
            if order == "metric":
                got, ref_val, tol = r_hat @ comps @ r_hat, g_rr, METRIC_TOL
            else:
                got = np.einsum("ijk,i,j,k->", comps, r_hat, r_hat, r_hat)
                ref_val, tol = t_rrr, CUBIC_TOL
            scale = max(abs(ref_val), float(np.max(np.abs(comps))))
            return _within(f"{spec} radial {order}", abs(got - ref_val) / scale, tol)
        else:  # qre:veronese
            # both chart states have spectrum {a, b, b}, a = 1 - 2 eps/3 and
            # b = eps/3, so D = (a - b) ln(a/b) (1 - |<psi|phi>|^4): g = k
            # diag(1, sin^2 theta) with k = (1 - eps) ln((3 - 2 eps)/eps), and
            # symmetry in (p, q) forces T = 3/2 sym(dg), i.e. only
            # T_{theta phi phi} = k sin(theta) cos(theta) survives
            theta = float(p[0])
            k = (1.0 - eps) * math.log((3.0 - 2.0 * eps) / eps)
            if order == "metric":
                ref = np.array([[k, 0.0], [0.0, k * math.sin(theta) ** 2]])
            else:
                ref = np.zeros((2, 2, 2))
                for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                    ref[idx] = k * math.sin(theta) * math.cos(theta)
            err = float(np.max(np.abs(comps - ref))) / k
            return _within(f"{spec} {order}", err, METRIC_TOL if order == "metric" else CUBIC_TOL)
        return _within(f"{spec} {order}", _rel_err(comps, ref), METRIC_TOL if order == "metric" else CUBIC_TOL)

    return check


class StencilWide:
    name = "stencil-wide"

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for spec, points in WIDE_POINTS.items():
            div = resolve(spec)
            for _ in range(points):
                p, hm, hc = _wide_point(spec, div, rng)
                self.cases.append((spec, div, p, hm, hc))
        return {
            "points": [
                {"divergence": spec, "at": p.tolist(), "h_metric": hm, "h_cubic": hc}
                for spec, _, p, hm, hc in self.cases
            ]
        }

    def ops(self) -> list[Op]:
        ops = []
        for spec, div, p, hm, hc in self.cases:
            ops.append(
                Op(
                    f"metric:{spec}",
                    lambda ctx, div=div, p=p, h=hm: ig.extract_metric(ctx.wrap(div), p, h=h, richardson=True),
                    _wide_check(spec, div, "metric", p),
                )
            )
            ops.append(
                Op(
                    f"cubic:{spec}",
                    lambda ctx, div=div, p=p, h=hc: ig.extract_cubic(ctx.wrap(div), p, h=h, richardson=True),
                    _wide_check(spec, div, "cubic", p),
                )
            )
        return ops

    def warmup_ops(self) -> list[Op]:
        first = {}  # the metric and cubic at each divergence's first point
        for op in self.ops():
            first.setdefault(op.name, op)
        return list(first.values())


# ---------------------------------------------------------------------------
# stencil-narrow: many tiny stencils driven by the engines
# ---------------------------------------------------------------------------

PATH_WAYPOINTS = 201
# twice as many probes as ladders, so the median op falls inside the probe
# cluster and the 90th percentile inside the ladder cluster, not between them
NARROW_POINTS = 12
LADDER_EVERY = 2
ASYM_REFERENCE = -1.0 / 6.0


def closed_path(rng, waypoints: int = PATH_WAYPOINTS) -> np.ndarray:
    """An ellipse in the (mean, sigma) chart of gaussian-full, last == first."""
    mu0, s0 = rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0)
    a, b = rng.uniform(0.2, 0.5), rng.uniform(0.1, 0.4)
    t = 2.0 * math.pi * np.arange(waypoints - 1) / (waypoints - 1)
    path = np.column_stack([mu0 + a * np.cos(t), s0 + b * np.sin(t)])
    return np.vstack([path, path[:1]])


def _demon_check(family, path: np.ndarray):
    steps = np.diff(path, axis=0)
    s_min = float(path[:, 1].min())
    # criterion 10's bound, for gaussian-full: |dT(d,d,d)|/6 <= 8 |d|^4 / s^4
    bound = 8.0 / s_min**4 * float(np.max(np.sum(steps**2, axis=1))) ** 2 * len(steps)
    oracle = np.array(
        [np.einsum("ijk,i,j,k->", family.forward_cubic(a), d, d, d) / 6.0 for a, d in zip(path[:-1], steps)]
    )

    def check(rep) -> str | None:
        if not abs(rep.reversal_sum) <= bound:
            return f"demon reversal_sum {rep.reversal_sum:.3e} exceeds {bound:.3e}"
        err = float(np.sum(np.abs(np.asarray(rep.per_step) - oracle)) / np.sum(np.abs(oracle)))
        return _within("demon per-step work vs oracle", err, CUBIC_TOL)

    return check


def _asym_check(label: str):
    def check(probe) -> str | None:
        if probe.degenerate or probe.slope is None or probe.ratio is None:
            return f"{label}: probe degenerate"
        if not 2.8 <= probe.slope <= 3.2:
            return f"{label}: slope {probe.slope:.3f} outside [2.8, 3.2]"
        if abs(probe.ratio - ASYM_REFERENCE) > 0.05 * abs(ASYM_REFERENCE):
            return f"{label}: ratio {probe.ratio:.4f} not within 5% of -1/6"
        return None

    return check


def _convergence_check(label: str):
    def check(rep) -> str | None:
        finest = rep.rungs[-1]
        return _within(f"{label} metric", finest.metric_error, METRIC_TOL) or _within(
            f"{label} cubic", finest.cubic_error, CUBIC_TOL
        )

    return check


class StencilNarrow:
    name = "stencil-narrow"

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        self.gauss = ig.GaussianFull()
        self.path = closed_path(rng)
        self.expo = ig.ExponentialScale()
        self.bern = ig.Bernoulli()
        self.bern_natural = ig.natural_view(self.bern)
        self.thetas = np.exp(rng.uniform(math.log(0.5), math.log(3.0), NARROW_POINTS))
        # the natural-chart Bernoulli cubic vanishes at probability 1/2, where
        # the probe's h^3 law fails, so natural parameters keep |eta| >= 0.4
        eta = rng.choice([-1.0, 1.0], NARROW_POINTS) * rng.uniform(0.4, 1.4, NARROW_POINTS)
        self.probs = 1.0 / (1.0 + np.exp(-eta))
        self.signs = rng.choice([-1.0, 1.0], size=(2, NARROW_POINTS))
        return {
            "path": self.path.tolist(),
            "exponential_at": self.thetas.tolist(),
            "bernoulli_at": self.probs.tolist(),
            "directions": self.signs.tolist(),
        }

    def ops(self) -> list[Op]:
        ops = [
            Op(
                "demon:gaussian-full",
                lambda ctx: ig.demon_work(ctx.wrap(self.gauss), self.path, method="fd"),
                _demon_check(self.gauss, self.path),
            )
        ]
        ladder = np.array([0.08, 0.04, 0.02])
        for n in range(NARROW_POINTS):
            theta, prob = float(self.thetas[n]), float(self.probs[n])
            eta = float(self.bern.to_natural([prob])[0])
            ops += [
                Op(
                    "asymmetry:exponential",
                    lambda ctx, x=theta, v=self.signs[0, n]: ig.asymmetry_probe(
                        ctx.wrap(self.expo), [x], [v], 0.1 * x * np.array([1.0, 0.5, 0.25, 0.125])
                    ),
                    _asym_check(f"asymmetry exponential at {theta:.4g}"),
                ),
                Op(
                    "asymmetry:natural:bernoulli",
                    lambda ctx, x=eta, v=self.signs[1, n]: ig.asymmetry_probe(
                        ctx.wrap(self.bern_natural), [x], [v], 0.2 * np.array([1.0, 0.5, 0.25, 0.125])
                    ),
                    _asym_check(f"asymmetry natural:bernoulli at {eta:.4g}"),
                ),
            ]
            if n % LADDER_EVERY:
                continue
            ops += [
                Op(
                    "convergence:exponential",
                    lambda ctx, x=theta: ig.convergence_report(ctx.wrap(self.expo), [x], x * ladder, richardson=True),
                    _convergence_check(f"convergence exponential at {theta:.4g}"),
                ),
                Op(
                    "convergence:bernoulli",
                    lambda ctx, x=prob: ig.convergence_report(
                        ctx.wrap(self.bern), [x], min(x, 1.0 - x) * ladder, richardson=True
                    ),
                    _convergence_check(f"convergence bernoulli at {prob:.4g}"),
                ),
            ]
        return ops

    def warmup_ops(self) -> list[Op]:
        return self.ops()[1:5]


# ---------------------------------------------------------------------------
# mc-engines: the chunked Monte-Carlo loops
# ---------------------------------------------------------------------------

MC_SAMPLES = 1_000_000
SPREAD_SAMPLES = 100_000
WIDE_LEG_SCALE = 0.4


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class McEngines:
    name = "mc-engines"

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=5)]
        self.skew_legs = [
            ig.LegDistribution.zero_mean_skewnormal(0.01, -4.0),
            ig.LegDistribution.parse("gaussian:0,0.01"),
            ig.LegDistribution.parse("gaussian:0,0.01"),
        ]
        self.wide_legs = [ig.LegDistribution.parse(f"gaussian:0,{WIDE_LEG_SCALE}")] * 3
        self.gauss = ig.GaussianFull()
        self.expo = ig.ExponentialScale()
        self.gauss_point = (rng.uniform(-1.0, 1.0), rng.uniform(0.8, 2.0))
        self.expo_point = (rng.uniform(0.8, 2.0),)
        self.gauss_sampler = ig.TradeSampler("gauss", self.gauss_point, (0.05,))
        self.expo_sampler = ig.TradeSampler("gauss", self.expo_point, (0.05,))
        return {
            "seeds": self.seeds,
            "skew_legs": [leg.spec() for leg in self.skew_legs],
            "wide_legs": [leg.spec() for leg in self.wide_legs],
            "spread_oracle": f"gaussian-full {self.gauss_sampler.spec()}",
            "spread_fd": f"exponential {self.expo_sampler.spec()}",
        }

    def _triangle(self, legs, seed: int, samples: int):
        def run(ctx):
            rep = ig.triangle_simulate(legs, samples, seed)
            ctx.count("roundtrip.triangle_draws", 3 * samples)
            ctx.count("roundtrip.triangle_rejected", rep.rejected)
            return rep

        return run

    def _spread(self, family, sampler, seed: int, method: str, samples: int):
        def run(ctx):
            rep = ig.spread_estimate(ctx.wrap(family), sampler, samples, seed, method=method)
            ctx.count("roundtrip.spread_rows", samples)
            return rep

        return run

    def _fidelity(self, seed: int, trials: int):
        def run(ctx):
            est = ig.mc_single_copy_fidelity(trials, seed)
            ctx.count("gap.fidelity_trials", trials)
            return est

        return run

    def ops(self, scale: int = 1) -> list[Op]:
        samples, spread = MC_SAMPLES // scale, SPREAD_SAMPLES // scale
        s = self.seeds
        # a draw from N(0, 0.4) is redrawn when x <= -1; over all draws the
        # rejections per accepted draw average q / (1 - q)
        q = _normal_cdf(-1.0 / WIDE_LEG_SCALE)
        expected = q / (1.0 - q)

        def skew_check(rep):
            if not rep.bare_cubic_mean < -3.0 * rep.bare_cubic_se:
                return f"skewed triangle bare cubic mean {rep.bare_cubic_mean:.3e} not below -3 SE"
            return None

        def wide_check(rep):
            draws = 3 * rep.samples
            se = math.sqrt(draws * expected) / draws
            ratio = rep.rejected / draws
            if not (rep.rejected > 0 and abs(ratio - expected) <= MC_SIGMAS * se):
                return f"wide triangle rejected {rep.rejected} of {draws}, expected ratio {expected:.5f}"
            if not rep.identity_max_error < 1e-9:
                return f"wide triangle log identity error {rep.identity_max_error:.3e}"
            return None

        def fidelity_check(est):
            if not abs(est.mean - 2.0 / 3.0) <= MC_SIGMAS * est.std_error:
                return f"fidelity {est.mean:.6f} not within 4 SE of 2/3"
            return None

        def spread_check(rep):
            if not (rep.std_error > 0 and abs(rep.mean) <= MC_SIGMAS * rep.std_error):
                return f"spread mean {rep.mean:.3e} not within 4 SE ({rep.std_error:.3e}) of 0"
            return None

        return [
            Op("triangle:skewed", self._triangle(self.skew_legs, s[0], samples), skew_check),
            Op("triangle:wide", self._triangle(self.wide_legs, s[1], samples), wide_check),
            Op("fidelity", self._fidelity(s[2], samples), fidelity_check),
            Op("spread:oracle", self._spread(self.gauss, self.gauss_sampler, s[3], "oracle", spread), spread_check),
            Op("spread:fd", self._spread(self.expo, self.expo_sampler, s[4], "fd", spread), spread_check),
        ]

    def warmup_ops(self) -> list[Op]:
        return self.ops(scale=100)


IN_PROCESS = {w.name: w for w in (StencilWide, StencilNarrow, McEngines)}
