"""Triangle statistics, path work sums, and the spread estimator."""

import contextlib
import math
import signal

import numpy as np
import pytest

from infogeo import (
    DomainError,
    ExponentialScale,
    GaussianFixedSigma,
    LegDistribution,
    RejectionOverflow,
    TradeSampler,
    demon_work,
    spread_estimate,
    triangle_simulate,
    work_surcharge,
)
from infogeo.roundtrip import CHUNK_SIZE, _Accumulator


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
        acc.add(x[start:start + CHUNK_SIZE])
    assert acc.mean == pytest.approx(x.mean(), rel=1e-15)
    assert acc.std_error == pytest.approx(x.std() / math.sqrt(x.size), rel=0.01)
