"""Round-trip cost engines: triangle cycles, path work sums, spread averages.

The triangle simulator draws three independent per-leg simple returns
x_12, x_23, x_31 (so 1 + x is the gross return of a leg and log(1+x) its
log-return), and compares the exact net log-return of the cycle against the
quadratic and cubic truncations of log(1+x) = x - x^2/2 + x^3/3 - ...
The bare cubic statistic (1/3) sum x_i^3 carries the round-trip bias: its
expectation vanishes for symmetric zero-mean legs and follows the legs'
third moments otherwise.

The work surcharge of a step is the odd part of the divergence cost,
(1/6) T_ijk dx_i dx_j dx_k with T the cubic tensor at the step's start;
summing it over a path gives the path work, which reverses sign (to leading
order in the step size) when the path is walked backwards.

All Monte-Carlo routines chunk their draws with generators derived from
(seed, chunk index): results depend only on the inputs and seed, never on
the execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RejectionOverflow, UnsupportedFamily
from .extraction import extract_cubic

__all__ = [
    "LegDistribution",
    "TriangleReport",
    "DemonReport",
    "SpreadReport",
    "TradeSampler",
    "triangle_simulate",
    "work_surcharge",
    "demon_work",
    "spread_estimate",
    "CHUNK_SIZE",
]

CHUNK_SIZE = 1 << 16

_LEG_KINDS = ("gaussian", "skewnormal", "shifted-lognormal")


@dataclass(frozen=True)
class LegDistribution:
    """Distribution of one leg's simple return.

    kinds:
      gaussian           x = location + scale * Z
      skewnormal         x = location + scale * (delta |Z1| + sqrt(1-delta^2) Z2),
                         delta = shape / sqrt(1 + shape^2)
      shifted-lognormal  x = exp(location + scale * Z) - 1, so log(1+x) is
                         exactly Gaussian and 1 + x > 0 always holds

    Draws violating 1 + x > 0 are redrawn; the count is reported and the
    simulation aborts as soon as more than 1% of all draws were rejected.
    A zero scale is the degenerate point mass at the location.
    """

    kind: str
    location: float
    scale: float
    shape: float | None = None

    def __post_init__(self):
        if self.kind not in _LEG_KINDS:
            raise ValueError(f"unknown leg kind {self.kind!r}; use {_LEG_KINDS}")
        if not self.scale >= 0:
            raise ValueError("scale must be non-negative")
        if self.kind == "skewnormal" and self.shape is None:
            raise ValueError("skewnormal needs a shape parameter")
        if self.kind != "skewnormal" and self.shape is not None:
            raise ValueError(f"{self.kind} takes no shape parameter")

    @classmethod
    def parse(cls, spec: str) -> "LegDistribution":
        """Parse ``kind:loc,scale[,shape]``, e.g. ``skewnormal:0,0.01,-4``."""
        kind, _, rest = spec.partition(":")
        parts = [float(p) for p in rest.split(",") if p.strip()]
        kind = kind.strip().lower()
        if kind == "skewnormal":
            if len(parts) != 3:
                raise ValueError(f"skewnormal needs loc,scale,shape in {spec!r}")
            return cls(kind, parts[0], parts[1], parts[2])
        if len(parts) != 2:
            raise ValueError(f"{kind} needs loc,scale in {spec!r}")
        return cls(kind, parts[0], parts[1])

    @classmethod
    def zero_mean_skewnormal(cls, scale: float, shape: float) -> "LegDistribution":
        """Skew-normal leg with its location chosen so the mean is zero."""
        delta = shape / math.sqrt(1.0 + shape**2)
        return cls("skewnormal", -scale * delta * math.sqrt(2.0 / math.pi), scale, shape)

    def spec(self) -> str:
        if self.kind == "skewnormal":
            return f"skewnormal:{self.location:g},{self.scale:g},{self.shape:g}"
        return f"{self.kind}:{self.location:g},{self.scale:g}"

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "gaussian":
            return self.location + self.scale * rng.standard_normal(n)
        if self.kind == "skewnormal":
            delta = self.shape / math.sqrt(1.0 + self.shape**2)
            z1 = np.abs(rng.standard_normal(n))
            z2 = rng.standard_normal(n)
            return self.location + self.scale * (
                delta * z1 + math.sqrt(1.0 - delta**2) * z2
            )
        return np.exp(self.location + self.scale * rng.standard_normal(n)) - 1.0

    def sample(
        self, rng: np.random.Generator, n: int, budget: float = math.inf
    ) -> tuple[np.ndarray, int]:
        """Draw n returns satisfying 1 + x > 0; returns (draws, n_rejected).

        Raises RejectionOverflow as soon as more than ``budget`` draws were
        rejected, so a leg with no mass above -1 cannot redraw forever.
        """
        x = self._draw(rng, n)
        rejected = 0
        bad = x <= -1.0
        while np.any(bad):
            rejected += int(bad.sum())
            if rejected > budget:
                raise RejectionOverflow(
                    f"leg {self.spec()}: {rejected} draws violated 1 + x > 0, "
                    f"over the remaining rejection budget of {budget:g}"
                )
            x[bad] = self._draw(rng, int(bad.sum()))
            bad = x <= -1.0
        return x, rejected


def _chunks(samples: int, seed: int):
    """Yield ``(rng, n)`` for consecutive chunks of at most CHUNK_SIZE draws;
    each chunk's generator derives from (seed, chunk index) alone."""
    for index, start in enumerate(range(0, samples, CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        yield rng, min(CHUNK_SIZE, samples - start)


@dataclass
class _Accumulator:
    """Mean and standard error of samples added chunk by chunk.

    Each chunk contributes its count, its sum and M2, the sum of squared
    deviations from its own mean; chunks merge by the pairwise update of
    Chan, Golub & LeVeque (1979).  This keeps the variance accurate when the
    mean is large against the spread, where E[x^2] - mean^2 cancels.
    """

    n: int = 0
    total: float = 0.0
    m2: float = 0.0

    def add(self, values: np.ndarray):
        k = values.size
        total = float(values.sum())
        m2 = float(((values - total / k) ** 2).sum())
        if self.n:
            delta = total / k - self.mean
            m2 += self.m2 + delta**2 * self.n * k / (self.n + k)
        self.n += k
        self.total += total
        self.m2 = m2

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def std_error(self) -> float:
        return math.sqrt(self.m2 / self.n / self.n)


@dataclass
class TriangleReport:
    samples: int
    seed: int
    legs: list[str]
    exact_mean: float
    exact_se: float
    quadratic_mean: float
    quadratic_se: float
    cubic_mean: float
    cubic_se: float
    bare_cubic_mean: float  # mean of (1/3) sum x_i^3
    bare_cubic_se: float
    leg_skewness: list[float]
    rejected: int
    identity_max_error: float  # max |sum log(1+x) - log prod(1+x)| seen


def triangle_simulate(legs, samples: int, seed: int) -> TriangleReport:
    """Monte-Carlo the three-leg cycle; see the module docstring.

    ``legs`` is a sequence of three LegDistribution (or spec strings).
    """
    legs = [
        leg if isinstance(leg, LegDistribution) else LegDistribution.parse(leg)
        for leg in legs
    ]
    if len(legs) != 3:
        raise ValueError("a triangle has exactly 3 legs")
    if samples < 1_000:
        raise ValueError("need at least 1e3 samples")

    exact = _Accumulator()
    quad = _Accumulator()
    cubic = _Accumulator()
    bare = _Accumulator()
    leg_sums = np.zeros((3, 3))  # per leg: sum x, sum x^2, sum x^3
    rejected = 0
    max_rejected = 0.01 * 3 * samples
    identity_err = 0.0

    for rng, n in _chunks(samples, seed):
        x = np.empty((3, n))
        for i, leg in enumerate(legs):
            x[i], rej = leg.sample(rng, n, budget=max_rejected - rejected)
            rejected += rej
            leg_sums[i] += [x[i].sum(), (x[i] ** 2).sum(), (x[i] ** 3).sum()]
        log_sum = np.log1p(x).sum(axis=0)
        log_prod = np.log(np.prod(1.0 + x, axis=0))
        identity_err = max(identity_err, float(np.max(np.abs(log_sum - log_prod))))
        s1 = x.sum(axis=0)
        s2 = (x**2).sum(axis=0)
        s3 = (x**3).sum(axis=0)
        exact.add(log_sum)
        quad.add(s1 - 0.5 * s2)
        cubic.add(s1 - 0.5 * s2 + s3 / 3.0)
        bare.add(s3 / 3.0)

    skew = []
    for i in range(3):
        m1 = leg_sums[i, 0] / samples
        m2 = leg_sums[i, 1] / samples - m1**2
        m3 = leg_sums[i, 2] / samples - 3 * m1 * leg_sums[i, 1] / samples + 2 * m1**3
        skew.append(m3 / m2**1.5 if m2 > 0 else 0.0)

    return TriangleReport(
        samples=samples,
        seed=seed,
        legs=[leg.spec() for leg in legs],
        exact_mean=exact.mean,
        exact_se=exact.std_error,
        quadratic_mean=quad.mean,
        quadratic_se=quad.std_error,
        cubic_mean=cubic.mean,
        cubic_se=cubic.std_error,
        bare_cubic_mean=bare.mean,
        bare_cubic_se=bare.std_error,
        leg_skewness=skew,
        rejected=rejected,
        identity_max_error=identity_err,
    )


# ---------------------------------------------------------------------------
# Path work
# ---------------------------------------------------------------------------

_DEFAULT_CUBIC_H = 5e-2


def _cubic_tensor(family, point: np.ndarray, method: str, h: float | None):
    if method == "oracle":
        if not hasattr(family, "forward_cubic"):
            raise UnsupportedFamily(
                f"{family.family_id} has no closed-form cubic tensor"
            )
        return np.asarray(family.forward_cubic(point), dtype=float)
    if method != "fd":
        raise ValueError("method must be 'fd' or 'oracle'")
    return extract_cubic(
        family, point, h=h if h is not None else _DEFAULT_CUBIC_H, richardson=True
    ).components


def work_surcharge(
    family, start, step, method: str = "fd", h: float | None = None
) -> float:
    """(1/6) T_ijk step_i step_j step_k with T evaluated at ``start``.

    Odd in the step: negating the displacement flips the sign.  ``method``
    selects finite-difference extraction ("fd", default) or the family's
    closed-form cubic ("oracle").
    """
    start = np.atleast_1d(np.asarray(start, dtype=float))
    step = np.atleast_1d(np.asarray(step, dtype=float))
    if not family.contains(start):
        raise DomainError(f"{family.family_id}: start {start} outside domain")
    if not family.contains(start + step):
        raise DomainError(f"{family.family_id}: end {start + step} outside domain")
    t = _cubic_tensor(family, start, method, h)
    return float(np.einsum("ijk,i,j,k->", t, step, step, step)) / 6.0


@dataclass
class DemonReport:
    family_id: str
    waypoints: np.ndarray
    per_step: list[float]
    total: float
    reversed_total: float
    reversal_sum: float  # total + reversed_total; O(step^4) per step
    method: str
    h: float | None
    tensor_at: str


def demon_work(
    family,
    waypoints,
    method: str = "fd",
    h: float | None = None,
    tensor_at: str = "start",
) -> DemonReport:
    """Sum the per-step work surcharge along a path, and along its reverse.

    ``tensor_at`` fixes where the cubic tensor is evaluated on each step:
    "start" (left endpoint, the default) or "midpoint".  The choice shifts
    the result only at the next order in the step size.
    """
    if tensor_at not in ("start", "midpoint"):
        raise ValueError("tensor_at must be 'start' or 'midpoint'")
    pts = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if pts.shape[0] < 2:
        raise ValueError("a path needs at least 2 waypoints")
    for w in pts:
        if not family.contains(w):
            raise DomainError(f"{family.family_id}: waypoint {w} outside domain")

    cache: dict[bytes, np.ndarray] = {}

    def tensor(point: np.ndarray) -> np.ndarray:
        key = point.tobytes()
        if key not in cache:
            cache[key] = _cubic_tensor(family, point, method, h)
        return cache[key]

    def walk(path: np.ndarray) -> list[float]:
        steps = []
        for a, b in zip(path[:-1], path[1:]):
            at = a if tensor_at == "start" else 0.5 * (a + b)
            d = b - a
            steps.append(float(np.einsum("ijk,i,j,k->", tensor(at), d, d, d)) / 6.0)
        return steps

    forward = walk(pts)
    backward = walk(pts[::-1])
    total = float(sum(forward))
    reversed_total = float(sum(backward))
    return DemonReport(
        family_id=family.family_id,
        waypoints=pts,
        per_step=forward,
        total=total,
        reversed_total=reversed_total,
        reversal_sum=total + reversed_total,
        method=method,
        h=h,
        tensor_at=tensor_at,
    )


# ---------------------------------------------------------------------------
# Spread: the surcharge averaged over a user-specified trade measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TradeSampler:
    """Distribution over (point, step) trade pairs.

    kinds (d = family dimension; specs list point coords first, then step):
      fixed      degenerate at one (point, step) pair; "fixed:1.0,0.1"
      signflip   fixed point, step = +/- the given displacement with equal
                 probability; "signflip:1.0,0.1"
      gauss      fixed point, step ~ N(0, scale^2) per coordinate;
                 "gauss:1.0,0.05" (one trailing scale)
    """

    kind: str
    point: tuple
    step: tuple

    @classmethod
    def parse(cls, spec: str, dimension: int) -> "TradeSampler":
        kind, _, rest = spec.partition(":")
        kind = kind.strip().lower()
        parts = [float(p) for p in rest.split(",") if p.strip()]
        if kind in ("fixed", "signflip"):
            if len(parts) != 2 * dimension:
                raise ValueError(
                    f"{kind} sampler needs {dimension} point and {dimension} "
                    f"step coordinates, got {len(parts)} in {spec!r}"
                )
            return cls(kind, tuple(parts[:dimension]), tuple(parts[dimension:]))
        if kind == "gauss":
            if len(parts) != dimension + 1:
                raise ValueError(
                    f"gauss sampler needs {dimension} point coordinates and "
                    f"one scale, got {len(parts)} in {spec!r}"
                )
            return cls(kind, tuple(parts[:dimension]), (parts[-1],))
        raise ValueError(f"unknown sampler kind {kind!r}")

    def spec(self) -> str:
        coords = ",".join(f"{c:g}" for c in self.point + self.step)
        return f"{self.kind}:{coords}"

    def sample(self, rng: np.random.Generator, n: int):
        d = len(self.point)
        points = np.tile(np.asarray(self.point, dtype=float), (n, 1))
        if self.kind == "fixed":
            steps = np.tile(np.asarray(self.step, dtype=float), (n, 1))
        elif self.kind == "signflip":
            signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            steps = signs[:, None] * np.asarray(self.step, dtype=float)
        else:
            steps = self.step[0] * rng.standard_normal((n, d))
        return points, steps


@dataclass
class SpreadReport:
    family_id: str
    sampler_spec: str
    samples: int
    seed: int
    mean: float
    std_error: float
    method: str
    h: float | None


def spread_estimate(
    family,
    sampler: TradeSampler,
    samples: int,
    seed: int,
    method: str = "fd",
    h: float | None = None,
) -> SpreadReport:
    """Monte-Carlo average of the work surcharge over sampled trades.

    The averaging measure is entirely the caller's: the sampler spec is
    echoed in the report so the number can be reproduced and judged.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    acc = _Accumulator()
    cache: dict[bytes, np.ndarray] = {}
    for rng, n in _chunks(samples, seed):
        points, steps = sampler.sample(rng, n)
        values = np.empty(n)
        for row in range(n):
            pt = points[row]
            if not family.contains(pt) or not family.contains(pt + steps[row]):
                raise DomainError(
                    f"{family.family_id}: sampled trade leaves the domain"
                )
            key = pt.tobytes()
            if key not in cache:
                cache[key] = _cubic_tensor(family, pt, method, h)
            values[row] = (
                np.einsum("ijk,i,j,k->", cache[key], steps[row], steps[row], steps[row])
                / 6.0
            )
        acc.add(values)
    return SpreadReport(
        family_id=family.family_id,
        sampler_spec=sampler.spec(),
        samples=samples,
        seed=seed,
        mean=acc.mean,
        std_error=acc.std_error,
        method=method,
        h=h,
    )
