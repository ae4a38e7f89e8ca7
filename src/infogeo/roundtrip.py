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
(seed, chunk index) and merge the chunks' statistics in chunk order, so
results depend only on the inputs and seed, never on the execution
schedule.  ``_chunk_map`` computes the chunks after the first on up to one
thread per CPU the process may use; the results are the same bits on any
number of CPUs.
"""

import itertools
import math
import os
from contextlib import closing
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RejectionOverflow, UnsupportedFamily
from .extraction import _DEFAULT_STEP, _oracle, _tensors

# annotations are evaluated at import, since a named tuple's string annotation
# costs a compile per field; those naming np.random stay strings, as numpy
# imports that module on first use

__all__ = [
    "LegDistribution", "TriangleReport", "DemonReport", "SpreadReport", "TradeSampler", "triangle_simulate",
    "work_surcharge", "demon_work", "spread_estimate", "CHUNK_SIZE",
]

CHUNK_SIZE = 1 << 16

_LEG_KINDS = ("gaussian", "skewnormal", "shifted-lognormal")


# a NamedTuple class may not define __new__, so LegDistribution checks its
# fields in the __new__ of a subclass
class _LegFields(NamedTuple):
    kind: str
    location: float
    scale: float
    shape: float | None = None


class LegDistribution(_LegFields):
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

    __slots__ = ()

    def __new__(cls, kind: str, location: float, scale: float, shape: float | None = None):
        self = super().__new__(cls, kind, location, scale, shape)
        if self.kind not in _LEG_KINDS:
            raise ValueError(f"unknown leg kind {self.kind!r}; use {_LEG_KINDS}")
        if not self.scale >= 0:
            raise ValueError("scale must be non-negative")
        if self.kind == "skewnormal" and self.shape is None:
            raise ValueError("skewnormal needs a shape parameter")
        if self.kind != "skewnormal" and self.shape is not None:
            raise ValueError(f"{self.kind} takes no shape parameter")
        if not all(map(math.isfinite, (self.location, self.scale, self.shape or 0.0))):
            raise ValueError(f"leg {self.spec()}: parameters must be finite")
        # delta = shape / sqrt(1 + shape^2) takes the square
        if self.kind == "skewnormal" and not self.shape * self.shape < math.inf:
            raise ValueError(f"leg {self.spec()}: the shape's square overflows the float range")
        return self

    @classmethod
    def _make(cls, iterable) -> "LegDistribution":
        """The leg of the fields in ``iterable``, checked; ``_replace`` builds through it."""
        return cls(*iterable)

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
        delta = cls("skewnormal", 0.0, scale, shape)._delta()
        return cls("skewnormal", -scale * delta * math.sqrt(2.0 / math.pi), scale, shape)

    def spec(self) -> str:
        if self.kind == "skewnormal":
            return f"skewnormal:{self.location:g},{self.scale:g},{self.shape:g}"
        return f"{self.kind}:{self.location:g},{self.scale:g}"

    def _delta(self) -> float:
        return self.shape / math.sqrt(1.0 + self.shape**2)

    def _draw(self, rng: "np.random.Generator", n: int) -> np.ndarray:
        if self.kind == "gaussian":
            return self.location + self.scale * rng.standard_normal(n)
        if self.kind == "skewnormal":
            delta = self._delta()
            z1 = np.abs(rng.standard_normal(n))
            z2 = rng.standard_normal(n)
            return self.location + self.scale * (
                delta * z1 + math.sqrt(1.0 - delta**2) * z2
            )
        with np.errstate(over="ignore"):  # sample() refuses the infinite draws
            return np.exp(self.location + self.scale * rng.standard_normal(n)) - 1.0

    def sample(
        self, rng: "np.random.Generator", n: int, budget: float = math.inf
    ) -> tuple[np.ndarray, int]:
        """Draw n returns satisfying 1 + x > 0; returns (draws, n_rejected).

        Raises RejectionOverflow as soon as more than ``budget`` draws were
        rejected, so a leg with no mass above -1 cannot redraw forever.
        """
        x = self._draw(rng, n)
        if not np.isfinite(x).all():
            raise DomainError(f"leg {self.spec()}: draws are not finite")
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


def _chunk_rng(seed: int, index: int) -> "np.random.Generator":
    """The generator of chunk ``index``: it derives from (seed, index) alone."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _chunk_map(body, samples: int, seed: int):
    """Yield ``body(rng, n)`` for consecutive chunks of at most CHUNK_SIZE
    draws, in chunk order, with ``rng = _chunk_rng(seed, index)``.

    Chunk 0 runs on the calling thread before any other chunk starts, so
    the caller may fix state from its result that later bodies read.  The
    other chunks run on a pool of one thread per CPU this process may use,
    capped by their count, with at most that many chunks in flight; with
    one such thread they run on the calling thread.  ``body`` must not
    call into objects the caller passed in, since it may run on a worker.

    When a worker's body raises, the pending chunks are cancelled and that
    chunk and every later one run on the calling thread, where the chunk
    raises what a serial loop would raise, or yields its result.
    """
    sizes = [min(CHUNK_SIZE, samples - start) for start in range(0, samples, CHUNK_SIZE)]
    yield body(_chunk_rng(seed, 0), sizes[0])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(sizes) - 1)
    index = 1
    if workers > 1:
        # imported here, not at the top: it pulls in logging, which every
        # import of the package would pay
        from concurrent.futures import ThreadPoolExecutor

        def submit(k):
            return pool.submit(body, _chunk_rng(seed, k), sizes[k])

        with ThreadPoolExecutor(workers) as pool:
            ahead = [submit(k) for k in range(1, 1 + workers)]
            try:
                while ahead:
                    try:
                        result = ahead.pop(0).result()
                    except Exception:  # whatever it was, the rerun below raises it here
                        break
                    if index + workers < len(sizes):
                        ahead.append(submit(index + workers))
                    yield result
                    index += 1
            finally:
                for future in ahead:
                    future.cancel()
    for k in range(index, len(sizes)):
        yield body(_chunk_rng(seed, k), sizes[k])


def _moments(values: np.ndarray, scratch: np.ndarray | None = None) -> tuple[int, float, float]:
    """One chunk's (count, sum, M2) for ``_Accumulator.merge``; M2 is the sum
    of squared deviations from the chunk's own mean.  The deviations are
    written to ``scratch`` when it is given."""
    k = values.size
    total = float(values.sum())
    dev = np.subtract(values, total / k, out=scratch)
    dev *= dev
    return k, total, float(dev.sum())


class _Accumulator:
    """Mean and standard error of samples merged chunk by chunk.

    Each chunk contributes its ``_moments``: its count, its sum and M2, the
    sum of squared deviations from its own mean; chunks merge by the
    pairwise update of Chan, Golub & LeVeque (1979).  This keeps the
    variance accurate when the mean is large against the spread, where
    E[x^2] - mean^2 cancels.
    """

    __slots__ = ("n", "total", "m2")

    def __init__(self):
        self.n, self.total, self.m2 = 0, 0.0, 0.0

    def merge(self, k: int, total: float, m2: float):
        if self.n:
            delta = total / k - self.mean
            try:
                square = delta**2
            except OverflowError:  # a Python float power raises where numpy's gives inf
                square = math.inf
            m2 += self.m2 + square * self.n * k / (self.n + k)
        self.n += k
        self.total += total
        self.m2 = m2

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def std_error(self) -> float:
        return math.sqrt(self.m2 / self.n / self.n)


class TriangleReport(NamedTuple):
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


# large finite draws can overflow the merged sums; such legs are refused
# after the chunk, by name, instead of warned about
@np.errstate(over="ignore", invalid="ignore")
def triangle_simulate(legs, samples: int, seed: int) -> TriangleReport:
    """Monte-Carlo the three-leg cycle; see the module docstring.

    ``legs`` is a sequence of three LegDistribution (or spec strings).
    Raises DomainError when a leg's draws overflow the cycle's power sums.
    """
    legs = [
        leg if isinstance(leg, LegDistribution) else LegDistribution.parse(leg)
        for leg in legs
    ]
    if len(legs) != 3:
        raise ValueError("a triangle has exactly 3 legs")
    if samples < 1_000:
        raise ValueError("need at least 1e3 samples")

    accumulators = exact, quad, cubic, bare = [_Accumulator() for _ in range(4)]
    # per leg: sums of d, d^2 and d^3 for d = x - shift, the shift being the
    # leg's mean in the first chunk, so that the central moments do not
    # cancel when a leg's mean is large against its spread
    leg_sums = np.zeros((3, 3))
    shift = None
    rejected = 0
    max_rejected = 0.01 * 3 * samples
    identity_err = 0.0

    def chunk(rng, n):
        """Draw one chunk and reduce it to its rejections, leg sums, largest
        |x| per leg, identity error and the moments of the four statistics.

        It works leg by leg on (n,) arrays, in three scratch buffers.  On a
        worker it reads ``rejected`` as it may lag behind, so its budget is
        never below the serial one.
        """
        nonlocal shift
        # a worker does not inherit the caller's errstate
        with np.errstate(over="ignore", invalid="ignore"):
            x, drawn = [], 0
            for leg in legs:
                xi, rej = leg.sample(rng, n, budget=max_rejected - (rejected + drawn))
                x.append(xi)
                drawn += rej
            if shift is None:
                shift = [xi.mean() for xi in x]
            a, b, c = np.empty(n), np.empty(n), np.empty(n)
            sums = np.empty((3, 3))
            for i, xi in enumerate(x):
                d = np.subtract(xi, shift[i], out=a)
                d2 = np.multiply(d, d, out=b)
                sums[i] = d.sum(), d2.sum(), np.multiply(d2, d, out=b).sum()
            size = [max(xi.max(), -xi.min()) for xi in x]

            def over_legs(term, combine, out):
                """``term(x_i, buffer)`` combined over the legs in leg order into
                ``out``, as a reduction over the leg axis of (3, n) would."""
                term(x[0], out)
                for xi in x[1:]:
                    combine(out, term(xi, c), out=out)
                return out

            log_sum = over_legs(np.log1p, np.add, a)
            moments = [_moments(log_sum, b)]
            log_prod = np.log(over_legs(lambda v, out: np.add(v, 1.0, out), np.multiply, b), out=b)
            err = float(np.abs(np.subtract(log_sum, log_prod, out=b), out=b).max())
            s1 = over_legs(np.positive, np.add, a)
            half_s2 = over_legs(lambda v, out: np.multiply(v, v, out), np.add, b)
            half_s2 *= 0.5
            quadratic = np.subtract(s1, half_s2, out=a)
            moments.append(_moments(quadratic, b))
            # x * x * x, not x**3: numpy sends a cube to pow, over 30x slower
            third_s3 = over_legs(lambda v, out: np.multiply(np.multiply(v, v, out), v, out), np.add, b)
            third_s3 /= 3.0
            moments += [_moments(np.add(quadratic, third_s3, out=a), c), _moments(third_s3, c)]
        return n, drawn, sums, size, err, moments

    with closing(_chunk_map(chunk, samples, seed)) as chunks:
        for index, (n, drawn, sums, size, err, moments) in enumerate(chunks):
            if rejected + drawn > max_rejected:
                # a worker drew this chunk with a budget above the serial
                # one; drawn again here with the serial budget, it raises
                # the serial loop's RejectionOverflow
                chunks.close()
                chunk(_chunk_rng(seed, index), n)
            rejected += drawn
            leg_sums += sums
            identity_err = max(identity_err, err)
            for acc, m in zip(accumulators, moments):
                acc.merge(*m)
            if not np.isfinite([identity_err, exact.m2, quad.m2, cubic.m2, bare.m2, *leg_sums.flat]).all():
                worst = int(np.argmax(size))
                raise DomainError(
                    f"leg {legs[worst].spec()}: draws as large as {size[worst]:.3g} "
                    "overflow the cycle's power sums"
                )

    skew = []
    for s1, s2, s3 in leg_sums / samples:
        m2 = s2 - s1**2
        m3 = s3 - 3 * s1 * s2 + 2 * s1**3
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

def _cubic_tensors(family, points: np.ndarray, method: str, h: float | None) -> np.ndarray:
    """The cubic tensor at each row of the (n, d) array ``points``, as (n, d, d, d).

    "oracle" is one call of the closed-form kernel on rows that the caller
    has checked; "fd" is one Richardson extraction request for every row,
    which checks it as a base point.
    """
    if method == "oracle":
        closed = _oracle(family, points, (3,))
        if closed is None:
            raise UnsupportedFamily(f"{family.family_id} has no closed-form cubic tensor")
        return closed[0]
    if method != "fd":
        raise ValueError("method must be 'fd' or 'oracle'")
    return _tensors(family, points, h if h is not None else _DEFAULT_STEP["cubic"], True, (3,))[0][0]


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
    family._refuse_outside(start[None], "start")
    family._refuse_outside((start + step)[None], "end")
    t = _cubic_tensors(family, start[None], method, h)[0]
    return float(np.einsum("ijk,i,j,k->", t, step, step, step)) / 6.0


class DemonReport(NamedTuple):
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
    family._refuse_outside(pts, "waypoint")

    # the forward walk, then the backward one
    paths = (pts, pts[::-1])
    with np.errstate(over="ignore"):  # a midpoint where a + b overflows is outside every domain
        at = np.concatenate([p[:-1] if tensor_at == "start" else 0.5 * (p[:-1] + p[1:]) for p in paths])
    if tensor_at == "midpoint" and method == "oracle":  # fd checks each point as a base point
        family._refuse_outside(at, "point")
    steps = np.concatenate([np.diff(p, axis=0) for p in paths])
    # each distinct point once, in the order the walks first reach it
    rows = at.view(np.dtype((np.void, at.itemsize * at.shape[1])))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    tensors = _cubic_tensors(family, at[first[order]], method, h)[np.argsort(order)[inverse]]
    work = (np.einsum("nijk,ni,nj,nk->n", tensors, steps, steps, steps) / 6.0).tolist()
    forward, backward = work[: len(pts) - 1], work[len(pts) - 1 :]
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


_SAMPLER_KINDS = ("fixed", "signflip", "gauss")


class _TradeFields(NamedTuple):
    kind: str
    point: tuple
    step: tuple


class TradeSampler(_TradeFields):
    """Distribution over (point, step) trade pairs.

    kinds (d = family dimension; specs list point coords first, then step):
      fixed      degenerate at one (point, step) pair; "fixed:1.0,0.1"
      signflip   fixed point, step = +/- the given displacement with equal
                 probability; "signflip:1.0,0.1"
      gauss      fixed point, step ~ N(0, scale^2) per coordinate;
                 "gauss:1.0,0.05" (one trailing scale)
    """

    __slots__ = ()

    def __new__(cls, kind: str, point: tuple, step: tuple):
        self = super().__new__(cls, kind, point, step)
        if kind not in _SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {kind!r}")
        width = 1 if kind == "gauss" else len(point)
        if len(step) != width:
            raise ValueError(f"{kind} sampler takes a step of {width} number(s), not {len(step)}")
        return self

    @classmethod
    def _make(cls, iterable) -> "TradeSampler":
        """The sampler of the fields in ``iterable``, checked; ``_replace`` builds through it."""
        return cls(*iterable)

    @classmethod
    def parse(cls, spec: str, dimension: int) -> "TradeSampler":
        kind, _, rest = spec.partition(":")
        kind = kind.strip().lower()
        parts = [float(p) for p in rest.split(",") if p.strip()]
        what = "point coordinates and one scale" if kind == "gauss" else f"point and {dimension} step coordinates"
        if kind in _SAMPLER_KINDS and len(parts) != dimension + (1 if kind == "gauss" else dimension):
            raise ValueError(f"{kind} sampler needs {dimension} {what}, got {len(parts)} in {spec!r}")
        return cls(kind, tuple(parts[:dimension]), tuple(parts[dimension:]))

    def spec(self) -> str:
        coords = ",".join(f"{c:g}" for c in self.point + self.step)
        return f"{self.kind}:{coords}"

    def sample(self, rng: "np.random.Generator", n: int) -> np.ndarray:
        """``n`` steps, shape (n, d); every trade starts at ``self.point``."""
        if self.kind == "fixed":
            return np.tile(np.asarray(self.step, dtype=float), (n, 1))
        if self.kind == "signflip":
            signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            return signs[:, None] * np.asarray(self.step, dtype=float)
        with np.errstate(over="ignore"):  # spread_estimate refuses the infinite end points
            return self.step[0] * rng.standard_normal((n, len(self.point)))


def _surcharges(tensor: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(1/6) T_ijk s_i s_j s_k for each row s of the (n, d) ``steps``.

    The d^3 terms ((T_ijk s_i) s_j) s_k are added in C order to +0.0, as
    ``np.einsum("ijk,ni,nj,nk->n", ...)`` adds them, in two buffers reused
    across terms.  Both buffers are one allocation: allocated apart, on
    65536 rows each call page-faulted both back in after glibc had trimmed
    them, which made d = 1 slower than the ``einsum``.
    """
    cols = np.ascontiguousarray(steps.T)
    out, term = np.zeros((2, len(steps)))
    for i, j, k in itertools.product(range(len(tensor)), repeat=3):
        np.multiply(tensor[i, j, k], cols[i], out=term)
        term *= cols[j]
        term *= cols[k]
        out += term
    out /= 6.0
    return out


class SpreadReport(NamedTuple):
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

    Every trade starts at the sampler's one point, so that point is
    checked and its cubic tensor computed once; each chunk then takes one
    domain check of all its end points and one contraction.  The family is
    only called from the calling thread: workers draw steps and contract.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    point = np.asarray(sampler.point, dtype=float)
    if not family.contains(point):
        raise DomainError(f"{family.family_id}: sampled trade leaves the domain")
    acc = _Accumulator()
    tensor = None

    def chunk(rng, n):
        """The chunk's steps, and their surcharges' moments once the tensor is known."""
        steps = sampler.sample(rng, n)
        return steps, None if tensor is None else _moments(_surcharges(tensor, steps))

    with closing(_chunk_map(chunk, samples, seed)) as chunks:
        for steps, moments in chunks:
            with np.errstate(over="ignore"):  # an infinite end point is outside every domain
                ends = point + steps
            if not family.contains_rows(ends).all():
                raise DomainError(f"{family.family_id}: sampled trade leaves the domain")
            if tensor is None:
                tensor = _cubic_tensors(family, point[None], method, h)[0]
                moments = _moments(_surcharges(tensor, steps))
            acc.merge(*moments)
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
