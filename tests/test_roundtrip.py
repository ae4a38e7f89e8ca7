"""Triangle statistics, path work sums, and the spread estimator."""

import contextlib
import itertools
import math
import os
import re
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from infogeo import (
    Bernoulli,
    Categorical,
    DomainError,
    ExponentialScale,
    GaussianFixedSigma,
    GaussianFull,
    LegDistribution,
    NoisePanic,
    RejectionOverflow,
    TradeSampler,
    UnsupportedFamily,
    demon_work,
    make_chart_divergence,
    natural_view,
    spread_estimate,
    triangle_simulate,
    work_surcharge,
)
from infogeo.extraction import asymmetry_probe, convergence_report, extract_cubic, extract_metric
from infogeo.families import DivergenceFamily
from infogeo.gap import FidelityEstimate, mc_single_copy_fidelity
from infogeo.roundtrip import (
    CHUNK_SIZE,
    SpreadReport,
    TriangleReport,
    _Accumulator,
    _chunk_map,
    _cubic_tensors,
    _moments,
    _surcharges,
)


# --- the serial chunk loop, the reference for the Monte-Carlo core ----------


def _chunks(samples, seed):
    """Yield ``(rng, n)`` for consecutive chunks of at most CHUNK_SIZE draws;
    each chunk's generator derives from (seed, chunk index) alone."""
    for index, start in enumerate(range(0, samples, CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        yield rng, min(CHUNK_SIZE, samples - start)


class _SerialAccumulator(_Accumulator):
    """The accumulator updated with one chunk's values at a time."""

    def add(self, values):
        k = values.size
        total = float(values.sum())
        m2 = float(((values - total / k) ** 2).sum())
        if self.n:
            delta = total / k - self.mean
            m2 += self.m2 + delta**2 * self.n * k / (self.n + k)
        self.n += k
        self.total += total
        self.m2 = m2


@np.errstate(over="ignore", invalid="ignore")
def _triangle_serial(legs, samples, seed, cube=lambda x: x * x * x):
    """triangle_simulate as one loop over the chunks on the calling thread."""
    legs = [LegDistribution.parse(leg) if isinstance(leg, str) else leg for leg in legs]
    exact, quad, cubic, bare = (_SerialAccumulator() for _ in range(4))
    leg_sums, shift, rejected, identity_err = np.zeros((3, 3)), None, 0, 0.0
    max_rejected = 0.01 * 3 * samples
    for rng, n in _chunks(samples, seed):
        x = np.empty((3, n))
        for i, leg in enumerate(legs):
            x[i], rej = leg.sample(rng, n, budget=max_rejected - rejected)
            rejected += rej
        if shift is None:
            shift = x.mean(axis=1, keepdims=True)
        d = x - shift
        d2 = d * d
        leg_sums += np.column_stack([d.sum(axis=1), d2.sum(axis=1), (d2 * d).sum(axis=1)])
        log_sum = np.log1p(x).sum(axis=0)
        log_prod = np.log(np.prod(1.0 + x, axis=0))
        identity_err = max(identity_err, float(np.max(np.abs(log_sum - log_prod))))
        s1, s2, s3 = x.sum(axis=0), (x**2).sum(axis=0), cube(x).sum(axis=0)
        exact.add(log_sum)
        quad.add(s1 - 0.5 * s2)
        cubic.add(s1 - 0.5 * s2 + s3 / 3.0)
        bare.add(s3 / 3.0)
        if not np.isfinite([identity_err, exact.m2, quad.m2, cubic.m2, bare.m2, *leg_sums.flat]).all():
            size = np.abs(x).max(axis=1)
            raise DomainError(
                f"leg {legs[size.argmax()].spec()}: draws as large as {size.max():.3g} "
                "overflow the cycle's power sums"
            )
    skew = []
    for m1, m2, m3 in leg_sums / samples:
        var = m2 - m1**2
        skew.append((m3 - 3 * m1 * m2 + 2 * m1**3) / var**1.5 if var > 0 else 0.0)
    return TriangleReport(
        samples, seed, [leg.spec() for leg in legs],
        exact.mean, exact.std_error, quad.mean, quad.std_error, cubic.mean, cubic.std_error,
        bare.mean, bare.std_error, skew, rejected, identity_err,
    )


def _fidelity_serial(trials, seed, guess):
    """mc_single_copy_fidelity as one loop over the chunks on the calling thread."""
    acc = _SerialAccumulator()
    for rng, n in _chunks(trials, seed):
        z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        weight = np.abs(z) ** 2
        u = weight[:, 0] / weight.sum(axis=1)
        if guess == "outcome":
            outcome_zero = rng.random(n) < u
            score = np.where(outcome_zero, u, 1.0 - u)
        else:
            score = u
        acc.add(score)
    return FidelityEstimate(acc.mean, acc.std_error, trials, seed, guess)


def _spread_serial(family, sampler, samples, seed, method):
    """spread_estimate as one loop over the chunks on the calling thread."""
    point = np.asarray(sampler.point, dtype=float)
    acc, tensor = _SerialAccumulator(), None
    for rng, n in _chunks(samples, seed):
        steps = sampler.sample(rng, n)
        assert family.contains_rows(point + steps).all()
        if tensor is None:
            tensor = _cubic_tensors(family, point[None], method, None)[0]
        acc.add(np.einsum("ijk,ni,nj,nk->n", tensor, steps, steps, steps) / 6.0)
    return SpreadReport(family.family_id, sampler.spec(), samples, seed, acc.mean, acc.std_error, method, None)


# --- leg distributions -------------------------------------------------------


def test_leg_spec_round_trip():
    for spec in ("gaussian:0,0.01", "skewnormal:0,0.01,-4", "shifted-lognormal:0,0.02"):
        leg = LegDistribution.parse(spec)
        assert LegDistribution.parse(leg.spec()) == leg
    with pytest.raises(ValueError):
        LegDistribution.parse("gaussian:0")
    with pytest.raises(ValueError):
        LegDistribution.parse("skewnormal:0,0.01")
    with pytest.raises(ValueError):
        LegDistribution.parse("cauchy:0,1")
    with pytest.raises(ValueError):
        LegDistribution("gaussian", 0.0, -1.0)


def test_zero_mean_skewnormal_has_zero_mean_and_negative_skew():
    leg = LegDistribution.zero_mean_skewnormal(0.01, -4.0)
    rng = np.random.default_rng(0)
    x, rejected = leg.sample(rng, 200_000)
    assert rejected == 0
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean()) < 5 * se
    centered = x - x.mean()
    assert np.mean(centered**3) < 0


def test_shifted_lognormal_log_return_is_exactly_gaussian():
    leg = LegDistribution.parse("shifted-lognormal:0.001,0.02")
    rng = np.random.default_rng(1)
    x, rejected = leg.sample(rng, 100_000)
    assert rejected == 0
    assert np.all(1.0 + x > 0.0)
    logs = np.log1p(x)
    assert logs.mean() == pytest.approx(0.001, abs=5 * 0.02 / math.sqrt(x.size))
    assert logs.std() == pytest.approx(0.02, rel=0.02)


# --- triangle simulation -----------------------------------------------------


def test_triangle_degenerate_legs_give_zero_statistics():
    rep = triangle_simulate(["gaussian:0,0"] * 3, samples=2_000, seed=1)
    assert rep.exact_mean == 0.0 and rep.exact_se == 0.0
    assert rep.quadratic_mean == 0.0 and rep.cubic_mean == 0.0
    assert rep.bare_cubic_mean == 0.0 and rep.bare_cubic_se == 0.0


def test_triangle_symmetric_legs_null_cubic():
    rep = triangle_simulate(["gaussian:0,0.01"] * 3, samples=200_000, seed=7)
    assert abs(rep.bare_cubic_mean) < 3 * rep.bare_cubic_se
    assert rep.identity_max_error < 1e-12
    assert rep.rejected == 0


def test_triangle_negative_skew_gives_negative_cubic():
    leg = LegDistribution.zero_mean_skewnormal(0.01, -4.0)
    rep = triangle_simulate([leg] * 3, samples=200_000, seed=11)
    assert rep.bare_cubic_mean < -3 * rep.bare_cubic_se
    assert all(s < 0 for s in rep.leg_skewness)


def test_triangle_truncation_hierarchy():
    # |exact - cubic| <= |exact - quadratic| in sample mean, at 3 SE slack
    for legs, seed in [
        (["gaussian:0,0.05"] * 3, 3),
        ([LegDistribution.zero_mean_skewnormal(0.04, -3.0)] * 3, 4),
        (["shifted-lognormal:0,0.05"] * 3, 5),
    ]:
        rep = triangle_simulate(legs, samples=200_000, seed=seed)
        d_quad = abs(rep.exact_mean - rep.quadratic_mean)
        d_cubic = abs(rep.exact_mean - rep.cubic_mean)
        slack = 3 * (2 * rep.exact_se + rep.quadratic_se + rep.cubic_se)
        assert d_cubic <= d_quad + slack


def test_triangle_deterministic_and_seed_sensitive():
    a = triangle_simulate(["gaussian:0,0.01"] * 3, samples=50_000, seed=5)
    b = triangle_simulate(["gaussian:0,0.01"] * 3, samples=50_000, seed=5)
    assert a == b
    c = triangle_simulate(["gaussian:0,0.01"] * 3, samples=50_000, seed=6)
    assert c.exact_mean != a.exact_mean


def test_triangle_leg_skewness_at_large_location():
    # raw power sums cancel here: the first leg's skewness read 56.9
    legs = ["gaussian:5,0.00001", "gaussian:0,0.01", "gaussian:0,0.01"]
    rep = triangle_simulate(legs, samples=100_000, seed=1)
    assert abs(rep.leg_skewness[0]) < 0.05


@pytest.mark.parametrize(
    "legs",
    [
        ["gaussian:0,0.01"] * 3,
        [LegDistribution.zero_mean_skewnormal(0.01, -4.0), "gaussian:0,0.01", "gaussian:0,0.01"],
        ["gaussian:0,0.4"] * 3,
        ["gaussian:5,0.00001", "gaussian:0,0.01", "gaussian:0,0.01"],
    ],
)
def test_triangle_matches_pow_reference(legs):
    samples, seed = 100_000, 17
    ref = _triangle_serial(legs, samples, seed, cube=lambda x: x**3)
    rep = triangle_simulate(legs, samples, seed)
    assert rep.rejected == ref.rejected
    assert rep.leg_skewness == ref.leg_skewness
    assert rep.identity_max_error == ref.identity_max_error
    for name in ("exact", "quadratic", "cubic", "bare_cubic"):
        mean, se = getattr(ref, f"{name}_mean"), getattr(ref, f"{name}_se")
        assert abs(getattr(rep, f"{name}_mean") - mean) <= 1e-10 * se
        assert getattr(rep, f"{name}_se") == pytest.approx(se, rel=1e-10, abs=0)
    if legs[0] == "gaussian:0,0.4":
        assert ref.rejected > 0


def test_triangle_rejection_overflow():
    with pytest.raises(RejectionOverflow):
        triangle_simulate(["gaussian:0,1.5"] * 3, samples=2_000, seed=2)


@contextlib.contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("leg", ["gaussian:-2,0", "gaussian:-5,0.1"])
def test_triangle_leg_without_mass_above_minus_one_overflows(leg):
    legs = ["gaussian:0,0.01", leg, "gaussian:0,0.01"]
    with _deadline(5), pytest.raises(RejectionOverflow):
        triangle_simulate(legs, samples=1_000, seed=1)


def test_a_ladder_too_wide_for_a_stencil_is_refused_before_its_closed_forms():
    # the steps are checked first, then the width
    family, p = Categorical(201), [0.001] * 200
    with _deadline(1), pytest.raises(ValueError, match=r"^step size must be positive and finite, got -0.0001$"):
        convergence_report(family, p, [1e-4, -1e-4])
    too_wide = r"^categorical:201: finite-difference stencils take at most 12 coordinates, not 200$"
    with _deadline(1), pytest.raises(UnsupportedFamily, match=too_wide):
        convergence_report(family, p, [1e-4])


def test_closed_forms_wider_than_a_stencil_are_refused():
    # a cubic of d = 200 is 8e6 floats a row, and the engines build one per
    # distinct point: each refuses the width before building any
    family, p = Categorical(201), np.full(200, 0.001)
    too_wide = r"^categorical:201: closed-form tensors take at most 12 coordinates, not 200$"
    sampler = TradeSampler("fixed", tuple(p), (1e-4,) * 200)
    for run in (
        lambda: convergence_report(family, p, []),
        lambda: demon_work(family, [p, 1.1 * p], method="oracle"),
        lambda: spread_estimate(family, sampler, samples=1_000, seed=1, method="oracle"),
    ):
        with _deadline(2), pytest.raises(UnsupportedFamily, match=too_wide):
            run()
    # a spread refuses its first chunk's end points before the closed forms
    with _deadline(2), pytest.raises(DomainError, match=r"^categorical:201: sampled trade leaves the domain$"):
        spread_estimate(family, sampler._replace(step=(-0.01,) * 200), samples=1_000, seed=1, method="oracle")
    # the public closed forms stay unbounded: there the caller asked for the tensor
    assert Categorical(14).forward_cubic(np.full(13, 0.05)).shape == (13, 13, 13)


def test_triangle_validation():
    with pytest.raises(ValueError):
        triangle_simulate(["gaussian:0,0.01"] * 2, samples=2_000, seed=1)
    with pytest.raises(ValueError):
        triangle_simulate(["gaussian:0,0.01"] * 3, samples=10, seed=1)


# --- work surcharge and path work -------------------------------------------


def test_work_surcharge_reference_values():
    fam = ExponentialScale()
    w = work_surcharge(fam, [1.0], [0.1], method="oracle")
    assert w == pytest.approx((-2.0 / 6.0) * 1e-3, rel=1e-12)
    w_fd = work_surcharge(fam, [1.0], [0.1])
    assert w_fd == pytest.approx(-3.333e-4, abs=2e-7)
    # odd contraction: negating the step flips the sign exactly
    assert work_surcharge(fam, [1.0], [-0.1], method="oracle") == -w


def test_work_surcharge_zero_for_symmetric_family():
    assert work_surcharge(GaussianFixedSigma(1.0), [0.0], [0.3]) == pytest.approx(
        0.0, abs=1e-9
    )


def test_work_surcharge_domain_checks():
    fam = ExponentialScale()
    with pytest.raises(DomainError):
        work_surcharge(fam, [0.5], [-0.6], method="oracle")  # end point leaves


def test_demon_work_reference_path():
    fam = ExponentialScale()
    rep = demon_work(fam, [[1.0], [1.1], [1.2]], method="oracle")
    expected = (1e-3 / 6.0) * (-2.0 - 2.0 / 1.1**3)
    assert rep.total == pytest.approx(expected, rel=1e-12)
    assert rep.total == pytest.approx(-5.838e-4, abs=1e-6)
    assert rep.per_step[0] == pytest.approx(-2.0 / 6.0 * 1e-3, rel=1e-12)


def test_demon_constant_path_is_zero():
    rep = demon_work(ExponentialScale(), [[1.0], [1.0], [1.0]], method="oracle")
    assert rep.total == 0.0 and rep.reversed_total == 0.0


def test_demon_reversal_cancels_at_leading_order():
    fam = ExponentialScale()
    for path in ([[1.0], [1.1], [1.2]], [[2.0], [1.9], [1.7], [1.6]], [[0.8], [0.9], [1.0]]):
        rep = demon_work(fam, path, method="fd", h=2e-2)
        theta_min = min(w[0] for w in path)
        max_step = max(abs(b[0] - a[0]) for a, b in zip(path[:-1], path[1:]))
        bound = (1.0 / theta_min**4) * max_step**4 * (len(path) - 1)
        assert abs(rep.reversal_sum) <= bound


def test_demon_midpoint_option_shrinks_reversal_residual():
    fam = ExponentialScale()
    path = [[1.0], [1.1], [1.2]]
    start = demon_work(fam, path, method="oracle", tensor_at="start")
    mid = demon_work(fam, path, method="oracle", tensor_at="midpoint")
    assert abs(mid.reversal_sum) < abs(start.reversal_sum)
    assert mid.reversal_sum == pytest.approx(0.0, abs=1e-9)


def test_demon_validation():
    with pytest.raises(ValueError):
        demon_work(ExponentialScale(), [[1.0]])
    with pytest.raises(DomainError):
        demon_work(ExponentialScale(), [[1.0], [-0.5]])
    with pytest.raises(ValueError):
        demon_work(ExponentialScale(), [[1.0], [1.1]], tensor_at="end")
    # a midpoint where a + b overflows is outside the domain, for the closed
    # form as for a stencil's base point
    for method in ("oracle", "fd"):
        with pytest.raises(DomainError, match=r"point \[inf\] outside domain$"):
            demon_work(ExponentialScale(), [[1e308], [1.7e308]], method=method, tensor_at="midpoint")


def _demon_by_waypoints(family, path, tensor_at, h=5e-2):
    """(per_step, total, reversed_total) walked step by step, with one
    Richardson extract_cubic per distinct point: what demon_work batches."""
    cache = {}

    def walk(path):
        work = []
        for a, b in zip(path[:-1], path[1:]):
            at = a if tensor_at == "start" else 0.5 * (a + b)
            key = at.tobytes()
            if key not in cache:
                cache[key] = extract_cubic(family, at, h=h, richardson=True).components
            d = b - a
            work.append(float(np.einsum("ijk,i,j,k->", cache[key], d, d, d)) / 6.0)
        return work

    forward = walk(path)
    return forward, float(sum(forward)), float(sum(walk(path[::-1])))


def _ellipse(waypoints, centre=(0.3, 1.5), axes=(0.4, 0.2)):
    """A closed ellipse in the (mean, sigma) chart of gaussian-full, last == first."""
    t = 2.0 * math.pi * np.arange(waypoints - 1) / (waypoints - 1)
    path = np.column_stack([centre[0] + axes[0] * np.cos(t), centre[1] + axes[1] * np.sin(t)])
    return np.vstack([path, path[:1]])


_DEMON_PATHS = [
    (GaussianFull(), _ellipse(41)),
    (ExponentialScale(), np.exp(np.random.default_rng(1).uniform(-0.5, 0.5, (25, 1)))),
    (natural_view(Bernoulli()), np.random.default_rng(2).uniform(-1.5, 1.5, (25, 1))),
    (make_chart_divergence("qre:bloch"), np.random.default_rng(3).uniform(-0.4, 0.4, (12, 3))),
]


@pytest.mark.parametrize("family, path", _DEMON_PATHS, ids=[f.family_id for f, _ in _DEMON_PATHS])
@pytest.mark.parametrize("tensor_at", ["start", "midpoint"])
def test_demon_fd_is_bit_identical_to_the_walk_by_waypoints(family, path, tensor_at):
    rep = demon_work(family, path, method="fd", tensor_at=tensor_at)
    per_step, total, reversed_total = _demon_by_waypoints(family, path, tensor_at)
    assert rep.per_step == per_step
    assert rep.total == total and rep.reversed_total == reversed_total


_WRONG_WIDTH = [
    (GaussianFull(), [0.2, 1.3]),
    (natural_view(GaussianFull()), [0.2, -1.5]),
    (make_chart_divergence("qre:bloch"), [0.1, -0.2, 0.3]),
]


@pytest.mark.parametrize("div, p", _WRONG_WIDTH, ids=[div.family_id for div, _ in _WRONG_WIDTH])
def test_a_base_point_of_the_wrong_width_is_refused(div, p):
    # numpy would broadcast a one-coordinate point across a stencil of d
    # coordinates; a point of d - 1 or d + 1 coordinates is outside the domain
    steps = [0.04, 0.02, 0.01, 0.005]
    for q in (p[:-1], p + [0.5]):

        def refused(what):
            return "^" + re.escape(f"{div.family_id}: {what} {np.array2string(np.array(q))} outside domain") + "$"

        for call in (
            lambda: extract_metric(div, q, richardson=True),
            lambda: extract_cubic(div, q),
            lambda: asymmetry_probe(div, q, [1.0] * len(q), steps),
            lambda: asymmetry_probe(div, q, [1.0] * div.dimension, steps),
            lambda: convergence_report(div, q, [0.04, 0.02], richardson=True),
            lambda: _cubic_tensors(div, np.array([q, q]), "fd", None),
        ):
            with pytest.raises(DomainError, match=refused("base point")):
                call()
        with pytest.raises(DomainError, match=refused("waypoint")):
            demon_work(div, [q, [x + 0.01 for x in q]], method="fd")


class _CountingGaussianFull(GaussianFull):
    """Records the row count of each call of the unchecked kernel ``_values``."""

    def __init__(self):
        self.rows = []

    def _values(self, P, Q, YP, YQ):
        values = super()._values(P, Q, YP, YQ)
        self.rows.append(len(values))
        return values


def test_demon_fd_path_is_one_divergence_call():
    # 200 distinct waypoints (the last is the first) x 28 distinct points of
    # a d = 2 Richardson cubic stencil
    family = _CountingGaussianFull()
    path = _ellipse(201)
    rep = demon_work(family, path, method="fd")
    assert family.rows == [200 * 28]
    assert rep.per_step == demon_work(GaussianFull(), path, method="fd").per_step


def test_a_long_demon_path_is_extracted_in_batches():
    # a kernel call takes at most 2^16 stencil points: 2340 of the path's
    # 5000 distinct waypoints, with 28 points each
    family = _CountingGaussianFull()
    path = _ellipse(5001)
    rep = demon_work(family, path, method="fd")
    assert family.rows == [2340 * 28, 2340 * 28, 320 * 28]
    assert (rep.per_step, rep.total, rep.reversed_total) == _demon_by_waypoints(GaussianFull(), path, "start")


class _CountingCategorical(Categorical):
    """Records the rows and orders of each call of the closed-form kernel ``_closed_rows``."""

    def __init__(self, k):
        super().__init__(k)
        self.calls = []

    def _closed_rows(self, X, orders):
        self.calls.append((len(X), orders))
        return super()._closed_rows(X, orders)


def test_an_oracle_demon_path_is_one_kernel_call():
    # the 4 steps of the path and its reverse start at 3 distinct waypoints
    family = _CountingCategorical(3)
    path = np.array([[0.2, 0.3], [0.25, 0.3], [0.3, 0.25]])
    rep = demon_work(family, path, method="oracle")
    assert family.calls == [(3, (3,))]
    steps = np.diff(path, axis=0)
    assert rep.per_step == [
        float(np.einsum("ijk,i,j,k->", Categorical(3).forward_cubic(a), d, d, d)) / 6.0 for a, d in zip(path, steps)
    ]


def test_a_refusal_names_a_point_of_twelve_coordinates_on_one_line():
    # numpy's text of an array of 12 coordinates wraps at 75 characters
    family = Categorical(13)
    inside, outside = [0.005] + [0.07] * 11, [-0.005] + [0.07] * 11
    for refused in (
        lambda: extract_metric(family, inside),
        lambda: demon_work(family, [inside, outside]),
        lambda: family.fisher(outside),
    ):
        with pytest.raises(DomainError) as exc:
            refused()
        message = str(exc.value)
        assert "\n" not in message and len(message.split("[")[1].split("]")[0].split()) == 12, message


def test_a_demon_path_raises_the_error_of_its_first_refused_waypoint():
    # the cubic at eta = 19.5 is below its rounding noise, and the stencil at
    # 20.7 reaches 20.8, whose mean 1 - 9.2e-10 is inside Bernoulli's margin
    family = natural_view(Bernoulli())
    with pytest.raises(NoisePanic) as exc:
        extract_cubic(family, [19.5], h=5e-2, richardson=True)
    with pytest.raises(NoisePanic) as batched:
        demon_work(family, [[19.5], [20.7]])
    assert str(batched.value) == str(exc.value)


def test_demon_stencil_leaving_the_domain_names_the_first_waypoint():
    # the stencils at 0.08 and 0.06 reach below 0; the first is reported
    path = [[1.0], [0.5], [0.08], [0.5], [0.06]]
    with pytest.raises(DomainError) as exc:
        demon_work(ExponentialScale(), path)
    assert str(exc.value) == "exponential: finite-difference stencil leaves the domain at [-0.02]"


# --- spread ------------------------------------------------------------------


def test_trade_sampler_parse_and_spec():
    s = TradeSampler.parse("fixed:1.0,0.1", 1)
    assert s.point == (1.0,) and s.step == (0.1,)
    assert TradeSampler.parse(s.spec(), 1) == s
    with pytest.raises(ValueError):
        TradeSampler.parse("fixed:1.0", 1)
    with pytest.raises(ValueError):
        TradeSampler.parse("uniform:1.0,0.1", 1)


def test_spread_degenerate_sampler_reduces_to_work_surcharge():
    fam = ExponentialScale()
    rep = spread_estimate(
        fam, TradeSampler.parse("fixed:1.0,0.1", 1), samples=500, seed=9
    )
    assert rep.mean == pytest.approx(-3.333e-4, abs=2e-7)
    assert rep.std_error == pytest.approx(0.0, abs=1e-9)


def test_spread_symmetric_steps_average_to_zero():
    fam = ExponentialScale()
    rep = spread_estimate(
        fam, TradeSampler.parse("signflip:1.0,0.1", 1), samples=4_000, seed=10
    )
    assert abs(rep.mean) <= 3 * rep.std_error


def test_spread_zero_for_symmetric_family():
    fam = GaussianFixedSigma(1.0)
    rep = spread_estimate(
        fam, TradeSampler.parse("gauss:0.0,0.1", 1), samples=2_000, seed=11
    )
    assert abs(rep.mean) < 1e-9


def _spread_by_rows(family, sampler, samples, seed, method):
    """The row-at-a-time estimate spread_estimate must reproduce."""
    acc, cache = _SerialAccumulator(), {}
    for rng, n in _chunks(samples, seed):
        steps = sampler.sample(rng, n)
        pt = np.asarray(sampler.point, dtype=float)
        values = np.empty(n)
        for row, step in enumerate(steps):
            assert family.contains(pt) and family.contains(pt + step)
            key = pt.tobytes()
            if key not in cache:
                cache[key] = _cubic_tensors(family, pt[None], method, None)[0]
            values[row] = np.einsum("ijk,i,j,k->", cache[key], step, step, step) / 6.0
        acc.add(values)
    return acc.mean, acc.std_error


@pytest.mark.parametrize(
    "family, spec, method, samples",
    [
        (ExponentialScale(), "fixed:1.0,0.1", "fd", 2_000),
        (ExponentialScale(), "signflip:1.0,0.1", "oracle", 3_000),
        (GaussianFull(), "signflip:0.2,1.3,0.05,-0.1", "fd", 2_000),
        (GaussianFull(), "gauss:0.2,1.3,0.05", "oracle", CHUNK_SIZE + 5_000),
        (Categorical(4), "gauss:0.2,0.3,0.25,0.01", "fd", 5_000),
    ],
)
def test_spread_matches_row_by_row_reference(family, spec, method, samples):
    sampler = TradeSampler.parse(spec, family.dimension)
    mean, se = _spread_by_rows(family, sampler, samples, 13, method)
    rep = spread_estimate(family, sampler, samples, 13, method=method)
    assert rep.mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert rep.std_error == pytest.approx(se, rel=1e-12, abs=0)


def test_spread_trade_leaving_the_domain_raises():
    sampler = TradeSampler.parse("gauss:0.1,0.05", 1)  # steps below -0.1 exit
    with pytest.raises(DomainError, match="sampled trade leaves the domain"):
        spread_estimate(ExponentialScale(), sampler, samples=1_000, seed=1, method="oracle")


class _CountingFamily(DivergenceFamily):
    """A family's domain and divergence that counts the points its domain is asked about."""

    def __init__(self, family):
        self.family = family
        self.family_id = family.family_id
        self.dimension = family.dimension
        self.checked = 0

    def _inside(self, X):
        self.checked += 1 if X.ndim == 1 else len(X)
        return self.family._inside(X)

    def _divergence(self, P, Q):
        return self.family._divergence(P, Q)

    def _closed_rows(self, X, orders):
        return self.family._closed_rows(X, orders)


def test_domain_checks_without_contains_rows():
    # the subclass writes only ``_inside``, and the engines get each answer from it
    family = ExponentialScale()
    subclass = _CountingFamily(family)
    assert list(subclass.contains_rows([[1.0], [-1.0], [np.nan]])) == [True, False, False]
    subclass.checked = 0
    cubic = extract_cubic(subclass, [1.0], h=0.05).components
    assert subclass.checked == 1 + 4  # the base point, then the 4 stencil points, each once
    assert np.array_equal(cubic, extract_cubic(family, [1.0], h=0.05).components)
    with pytest.raises(DomainError, match=r"stencil leaves the domain at \[-0.04\]"):
        extract_cubic(subclass, [0.01], h=0.05)
    steps = [0.2, 0.1, 0.05, 0.025]
    subclass.checked = 0
    probe = asymmetry_probe(subclass, [1.0], [1.0], steps)
    # the base point and the 4 probe points, then the Richardson cubic's base
    # point and its 8 distinct stencil points: no point is asked about twice
    # by one extraction, and the value calls ask about none
    assert subclass.checked == 1 + 4 + 1 + 8
    assert np.array_equal(probe.values, asymmetry_probe(family, [1.0], [1.0], steps).values)
    gauss = TradeSampler.parse("gauss:1.0,0.05", 1)
    assert spread_estimate(subclass, gauss, 500, 4) == spread_estimate(family, gauss, 500, 4)
    path = [[1.0], [1.1], [1.2]]
    assert demon_work(subclass, path).total == demon_work(family, path).total
    subclass.checked = 0
    sampler = TradeSampler.parse("signflip:1.0,0.1", 1)
    rep = spread_estimate(subclass, sampler, samples=500, seed=4, method="oracle")
    assert subclass.checked == 1 + 500  # the one start point, then every end point
    assert rep == spread_estimate(family, sampler, samples=500, seed=4, method="oracle")
    with pytest.raises(DomainError, match="sampled trade leaves the domain"):
        spread_estimate(subclass, TradeSampler.parse("gauss:0.1,0.05", 1), 1_000, 1, "oracle")
    with pytest.raises(DomainError, match=r"waypoint \[-0.5\] outside domain"):
        demon_work(subclass, [[1.0], [-0.5]])
    # the base point once, then the base points of the 3 rungs and the 27
    # distinct points of their joint metric and cubic stencils: the closed
    # forms are evaluated at the checked base point without a check of their own
    counting = _CountingExponential()
    ladder = [0.2, 0.1, 0.05]
    report = convergence_report(counting, [1.0], ladder, richardson=True)
    assert counting.checked == 1 + 3 + 27
    assert report == convergence_report(family, [1.0], ladder, richardson=True)


class _CountingExponential(ExponentialScale):
    """The exponential family, counting the points its rate domain is asked
    about, which is also its natural view's domain."""

    def __init__(self):
        self.checked = 0

    def _inside(self, X):
        self.checked += 1 if X.ndim == 1 else len(X)
        return super()._inside(X)


def test_a_natural_view_checks_each_point_once_in_each_chart():
    family = _CountingExponential()
    view = natural_view(family)
    cubic = extract_cubic(view, [-1.0], h=0.05).components
    # the rates that the base point and the 4 stencil points map to, in the
    # family's chart, which is the one check of the natural points
    assert family.checked == 1 + 4
    assert np.array_equal(cubic, extract_cubic(natural_view(ExponentialScale()), [-1.0], h=0.05).components)
    family.checked = 0
    assert view.divergence([-1.0], [-2.0]) == natural_view(ExponentialScale()).divergence([-1.0], [-2.0])
    assert family.checked == 2


def test_spread_deterministic():
    fam = ExponentialScale()
    sampler = TradeSampler.parse("gauss:1.0,0.05", 1)
    a = spread_estimate(fam, sampler, samples=3_000, seed=12, method="oracle")
    b = spread_estimate(fam, sampler, samples=3_000, seed=12, method="oracle")
    assert a == b


# --- Monte-Carlo accumulator -------------------------------------------------


def test_accumulator_standard_error_at_large_mean():
    # at this mean E[x^2] - mean^2 cancels to rounding noise (0.0 for this draw)
    x = 1e6 + 1e-3 * np.random.default_rng(0).standard_normal(100_000)
    acc = _Accumulator()
    for start in range(0, x.size, CHUNK_SIZE):
        acc.merge(*_moments(x[start:start + CHUNK_SIZE]))
    assert acc.mean == pytest.approx(x.mean(), rel=1e-15)
    assert acc.std_error == pytest.approx(x.std() / math.sqrt(x.size), rel=0.01)


# --- the Monte-Carlo core: chunks on every CPU, the serial loop's bits -------

SKEWED = [LegDistribution.zero_mean_skewnormal(0.01, -4.0), "gaussian:0,0.01", "gaussian:0,0.01"]
WIDE = ["gaussian:0,0.4"] * 3  # about 0.6% of the draws are redrawn
LOGNORMAL = ["shifted-lognormal:0.001,0.05", LegDistribution.zero_mean_skewnormal(0.04, -3.0), "gaussian:0.002,0.03"]
# one chunk, two, and sixteen and a partial one
SAMPLE_COUNTS = [50_000, 2 * CHUNK_SIZE, 16 * CHUNK_SIZE + 1234]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("legs", [SKEWED, WIDE, LOGNORMAL], ids=["skewed", "wide", "lognormal"])
def test_triangle_is_the_serial_loop_bit_for_bit(legs, samples):
    rep = triangle_simulate(legs, samples, 21)
    assert rep == _triangle_serial(legs, samples, 21)
    if legs is WIDE:
        assert rep.rejected > 0


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("guess", ["outcome", "fixed"])
def test_fidelity_is_the_serial_loop_bit_for_bit(guess, samples):
    assert mc_single_copy_fidelity(samples, 22, guess) == _fidelity_serial(samples, 22, guess)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize(
    "family, spec, method",
    [(GaussianFull(), "gauss:0.3,1.5,0.05", "oracle"), (ExponentialScale(), "gauss:1.2,0.05", "fd")],
    ids=["oracle", "fd"],
)
def test_spread_is_the_serial_loop_bit_for_bit(family, spec, method, samples):
    sampler = TradeSampler.parse(spec, family.dimension)
    rep = spread_estimate(family, sampler, samples, 23, method=method)
    assert rep == _spread_serial(family, sampler, samples, 23, method)


@pytest.mark.parametrize("d", range(1, 7))
def test_surcharges_are_the_einsum_bit_for_bit(d):
    rng = np.random.default_rng([24, d])
    tensor = rng.standard_normal((d, d, d))
    tensor = sum(tensor.transpose(perm) for perm in itertools.permutations(range(3)))
    steps = 0.3 * rng.standard_normal((CHUNK_SIZE, d))
    # rows of signed zeros, and rows with one signed-zero coordinate
    steps[:8] = 0.0
    steps[8:16] = -0.0
    steps[16:24, 0] = -0.0
    tensor[0, 0, 0] = -0.0
    want = np.einsum("ijk,ni,nj,nk->n", tensor, steps, steps, steps) / 6.0
    assert _surcharges(tensor, steps).tobytes() == want.tobytes()


def test_chunk_map_yields_in_chunk_order_with_a_bounded_look_ahead():
    caller = threading.get_ident()
    lock = threading.Lock()
    started, threads = 0, []

    def body(rng, n):
        nonlocal started
        with lock:
            started += 1
            threads.append(threading.get_ident())
        return n, float(rng.standard_normal(n).sum())

    samples = 9 * CHUNK_SIZE + 7
    workers = min(len(os.sched_getaffinity(0)), 9)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for result in _chunk_map(body, samples, 5):
            got.append(result)
            with lock:
                assert started - len(got) <= workers
            time.sleep(0.002)  # a slow consumer: the pool must not run ahead
    finally:
        sys.setswitchinterval(interval)
    assert got == [(n, float(rng.standard_normal(n).sum())) for rng, n in _chunks(samples, 5)]
    assert threads[0] == caller
    assert (len(set(threads)) > 1) == (workers > 1)


def test_chunk_map_runs_again_on_the_calling_thread_a_chunk_that_raised_on_a_worker():
    caller = threading.get_ident()

    def body(rng, n):
        if threading.get_ident() != caller:
            raise RuntimeError("raised on a worker")
        return n, float(rng.standard_normal(n).sum())

    samples = 5 * CHUNK_SIZE
    got = list(_chunk_map(body, samples, 6))
    assert got == [(n, float(rng.standard_normal(n).sum())) for rng, n in _chunks(samples, 6)]


@pytest.mark.parametrize(
    "scale, samples",
    [
        # the serial budget runs out in chunk 1 (scale 0.48, 3 chunks) and in
        # chunk 2 (0.45, 3 chunks and a partial one), for every seed in 0-59
        (0.48, 3 * CHUNK_SIZE),
        (0.45, 3 * CHUNK_SIZE + 1000),
    ],
)
def test_a_budget_running_out_in_a_later_chunk_raises_the_serial_error(scale, samples):
    legs = [f"gaussian:0,{scale}"] * 3
    with pytest.raises(RejectionOverflow) as serial:
        _triangle_serial(legs, samples, 3)
    with pytest.raises(RejectionOverflow) as raised:
        triangle_simulate(legs, samples, 3)
    assert str(raised.value) == str(serial.value)


def test_power_sums_overflowing_in_a_later_chunk_raise_the_serial_error():
    # seed 1: the first chunk's largest draw stays below the overflow, and a
    # later chunk's, 6.55e51, does not
    legs = ["shifted-lognormal:60,13", "gaussian:0,0.01", "gaussian:0,0.01"]
    triangle_simulate(legs, CHUNK_SIZE, 1)
    with pytest.raises(DomainError) as serial:
        _triangle_serial(legs, 4 * CHUNK_SIZE, 1)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")  # a worker thread's warning is recorded too
        with pytest.raises(DomainError) as raised:
            triangle_simulate(legs, 4 * CHUNK_SIZE, 1)
    assert str(raised.value) == str(serial.value)
    assert seen == []


def test_a_leg_without_mass_above_minus_one_ends_in_the_first_chunk():
    legs = ["gaussian:0,0.01", "gaussian:-2,0", "gaussian:0,0.01"]
    samples = 16 * CHUNK_SIZE + 1234
    with pytest.raises(RejectionOverflow) as serial:
        _triangle_serial(legs, samples, 1)
    with _deadline(2), pytest.raises(RejectionOverflow) as raised:
        triangle_simulate(legs, samples, 1)
    assert str(raised.value) == str(serial.value)


class _ThreadRecordingFamily(_CountingFamily):
    """A family that records the threads asking for its domain and divergence."""

    def __init__(self, family):
        super().__init__(family)
        self.threads = set()

    def _inside(self, X):
        self.threads.add(threading.get_ident())
        return super()._inside(X)

    def _divergence(self, P, Q):
        self.threads.add(threading.get_ident())
        return super()._divergence(P, Q)


def test_spread_calls_the_family_only_from_the_calling_thread():
    family = _ThreadRecordingFamily(ExponentialScale())
    sampler = TradeSampler.parse("gauss:1.2,0.05", 1)
    samples = 3 * CHUNK_SIZE + 100
    rep = spread_estimate(family, sampler, samples, 8, method="fd")
    assert family.threads == {threading.get_ident()}
    assert rep == spread_estimate(ExponentialScale(), sampler, samples, 8, method="fd")


# --- pinned Monte-Carlo bits ---------------------------------------------------

# values the chunk bodies gave before they drew in place; every field is
# compared exactly, so a change of draw order or of one rounding shows
PINNED_FIDELITY = {
    (1, "outcome"): (0.6677032364651004, 0.0007440862429075846),
    (2, "outcome"): (0.6665512954045569, 0.0007457400999899489),
    (3, "outcome"): (0.667818556189699, 0.0007452403271952072),
    (4, "fixed"): (0.5006854507618568, 0.0009115552646293896),
}
PINNED_TRIANGLES = {
    "skewed": (
        [LegDistribution.zero_mean_skewnormal(0.01, -4.0), "skewnormal:0.001,0.02,3", "gaussian:0,0.01"],
        {"exact_mean": 0.01588822846670758, "exact_se": 3.9048585948334574e-05,
         "quadratic_mean": 0.015883750031656527, "quadratic_se": 3.903458048178179e-05,
         "cubic_mean": 0.015888367562384417, "cubic_se": 3.904901757740075e-05,
         "bare_cubic_mean": 4.617530727891626e-06, "bare_cubic_se": 2.2727666809875934e-08,
         "leg_skewness": [-0.7872177847625099, 0.6715948428266554, 0.0058740853027674815],
         "rejected": 0, "identity_max_error": 4.961309141293668e-16},
    ),
    # legs wide enough that draws with 1 + x <= 0 are redrawn
    "wide": (
        ["gaussian:0,0.4", "gaussian:0.1,0.4", "skewnormal:0,0.4,2"],
        {"exact_mean": 0.15113322603392834, "exact_se": 0.0016318764213398495,
         "quadratic_mean": 0.1601582526383793, "quadratic_se": 0.0012708076379891815,
         "cubic_mean": 0.21525858970772635, "cubic_se": 0.0014743559966455125,
         "bare_cubic_mean": 0.05510033706934709, "bare_cubic_se": 0.0002988917842195719,
         "leg_skewness": [0.1048884804908414, 0.06290332209373367, 0.45758218440392495],
         "rejected": 1838, "identity_max_error": 1.7763568394002505e-15},
    ),
    "lognormal": (
        ["shifted-lognormal:0,0.2", "shifted-lognormal:-0.01,0.05", "gaussian:0,0.01"],
        {"exact_mean": -0.009361813370571974, "exact_se": 0.00046185590403107814,
         "quadratic_mean": -0.010611618849263234, "quadratic_se": 0.0004435546729124515,
         "cubic_mean": -0.007935373223348051, "cubic_se": 0.00046551691544441685,
         "bare_cubic_mean": 0.002676245625915185, "bare_cubic_se": 3.856883477713055e-05,
         "leg_skewness": [0.6162408991418526, 0.14858404190398644, -0.007940864537959594],
         "rejected": 0, "identity_max_error": 3.3306690738754696e-16},
    ),
}


@pytest.mark.parametrize("seed, guess", sorted(PINNED_FIDELITY))
def test_single_copy_fidelity_keeps_its_bits(seed, guess):
    mean, std_error = PINNED_FIDELITY[seed, guess]
    assert mc_single_copy_fidelity(100_000, seed, guess=guess) == FidelityEstimate(
        mean, std_error, 100_000, seed, guess
    )


@pytest.mark.parametrize("name", sorted(PINNED_TRIANGLES))
def test_triangle_keeps_its_bits(name):
    legs, pinned = PINNED_TRIANGLES[name]
    report = triangle_simulate(legs, 200_000, 11)._asdict()
    assert {key: report[key] for key in pinned} == pinned
