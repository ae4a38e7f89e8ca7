"""Finite-difference extraction against closed-form and score-moment oracles.

The cubic Taylor coefficient of D(p || p + u) is chart dependent: it equals
the score-moment tensor only in charts affinely related to the natural one.
Oracle comparisons for Bernoulli and Categorical therefore run in the
natural view; the exponential family's default chart is affine in the
natural parameters (eta = -theta), so there the transported comparison works
in the default chart too.
"""

import numpy as np
import pytest

from infogeo import (
    Bernoulli,
    Categorical,
    ConditioningError,
    DomainError,
    ExponentialScale,
    GaussianFixedSigma,
    GaussianFull,
    NoisePanic,
    asymmetry_probe,
    convergence_report,
    extract_cubic,
    extract_metric,
    natural_view,
    score_moment_tensor,
)
from infogeo.extraction import fit_loglog_slope
from infogeo.families import divergences


def test_metric_reference_values():
    g = extract_metric(GaussianFixedSigma(1.0), [0.0])
    assert g.components[0, 0] == pytest.approx(1.0, abs=1e-12)
    g = extract_metric(ExponentialScale(), [1.0], richardson=True)
    assert g.components[0, 0] == pytest.approx(1.0, rel=1e-6)
    g = extract_metric(Bernoulli(), [0.5], richardson=True)
    assert g.components[0, 0] == pytest.approx(4.0, rel=1e-6)


def _curvature_scale(family, p):
    """Length scale over which the divergence's derivatives vary at p."""
    fid = family.family_id.split(":")[0]
    if fid == "gaussian":
        return 1.0
    if fid == "exponential":
        return p[0]
    if fid == "bernoulli":
        return min(p[0], 1.0 - p[0])
    if fid == "categorical":
        full = np.append(p, 1.0 - np.sum(p))
        return float(full.min())
    if fid == "gaussian-full":
        return p[1]
    raise AssertionError(fid)


def test_metric_matches_fisher_all_families():
    rng = np.random.default_rng(0)
    for family in [
        GaussianFixedSigma(1.5),
        ExponentialScale(),
        Bernoulli(),
        Categorical(3),
        GaussianFull(),
    ]:
        for p in family.random_interior(rng, 3):
            h = 0.02 * _curvature_scale(family, p)
            g = extract_metric(family, p, h=h, richardson=True)
            oracle = family.fisher(p)
            err = np.max(np.abs(g.components - oracle)) / np.max(np.abs(oracle))
            assert err < 1e-6, (family.family_id, p, err)
            assert g.min_eigenvalue > -1e-8
            assert g.presym_residual < 1e-6


def test_cubic_reference_values():
    t = extract_cubic(GaussianFixedSigma(1.0), [0.7])
    assert np.max(np.abs(t.components)) < 1e-5
    t = extract_cubic(ExponentialScale(), [1.0], richardson=True)
    assert t.components[0, 0, 0] == pytest.approx(-2.0, abs=1e-3)


def test_cubic_matches_forward_closed_forms():
    rng = np.random.default_rng(1)
    for family in [ExponentialScale(), Bernoulli(), Categorical(3), GaussianFull()]:
        for p in family.random_interior(rng, 3):
            h = 0.08 * _curvature_scale(family, p)
            t = extract_cubic(family, p, h=h, richardson=True)
            oracle = family.forward_cubic(p)
            err = np.max(np.abs(t.components - oracle)) / np.max(np.abs(oracle))
            assert err < 1e-3, (family.family_id, p, err)


def test_cubic_in_natural_view_matches_score_moment():
    # includes the uniform categorical point, where the mean-chart coefficient
    # would differ: the natural chart is where the score moment lives
    view = natural_view(Categorical(3))
    base = Categorical(3).to_natural([1 / 3, 1 / 3])
    t = extract_cubic(view, base, h=5e-2, richardson=True)
    oracle = score_moment_tensor(Categorical(3), [1 / 3, 1 / 3])
    assert np.max(np.abs(t.components - oracle)) / np.max(np.abs(oracle)) < 1e-3
    import itertools

    for perm in itertools.permutations(range(3)):
        assert np.array_equal(t.components, np.transpose(t.components, perm))
    assert t.presym_residual < 1e-4

    view = natural_view(Bernoulli())
    for p in (0.2, 0.35, 0.7):
        base = Bernoulli().to_natural([p])
        t = extract_cubic(view, base, h=5e-2, richardson=True)
        oracle = score_moment_tensor(Bernoulli(), [p])
        assert t.components[0, 0, 0] == pytest.approx(oracle[0, 0, 0], rel=1e-3)


def test_metric_transforms_between_charts():
    # g is a genuine tensor: components in the default chart equal
    # J^T g_natural J with J = d(natural)/d(default)
    for family, p in [(Bernoulli(), [0.3]), (Categorical(3), [0.2, 0.5])]:
        p = np.asarray(p, dtype=float)
        g_default = extract_metric(family, p, h=5e-3, richardson=True).components
        view = natural_view(family)
        g_nat = extract_metric(view, family.to_natural(p), h=5e-3, richardson=True).components
        jac = family.natural_jacobian(p)
        transported = jac.T @ g_nat @ jac
        err = np.max(np.abs(g_default - transported)) / np.max(np.abs(g_default))
        assert err < 1e-3


def test_cubic_transforms_between_affinely_related_charts():
    # eta = -theta is affine, so the cubic coefficient transports with J^3
    family = ExponentialScale()
    p = np.array([1.3])
    t_default = extract_cubic(family, p, richardson=True).components[0, 0, 0]
    t_nat = extract_cubic(
        natural_view(family), family.to_natural(p), richardson=True
    ).components[0, 0, 0]
    jac = family.natural_jacobian(p)[0, 0]
    assert t_default == pytest.approx(t_nat * jac**3, rel=1e-3)


def test_mean_chart_cubic_is_not_the_score_moment():
    # regression guard for the chart-dependence note in the module docstring
    family = Bernoulli()
    p = np.array([0.3])
    t_mean = extract_cubic(family, p, h=4e-2, richardson=True).components[0, 0, 0]
    score_mean_chart = (
        score_moment_tensor(family, p)[0, 0, 0] * family.natural_jacobian(p)[0, 0] ** 3
    )
    assert t_mean == pytest.approx(-2.0 * score_mean_chart, rel=1e-3)


# --- asymmetry probe ---------------------------------------------------------


def test_asymmetry_probe_reference_values():
    family = ExponentialScale()
    d_fwd = family.divergence([1.0], [1.1])
    d_bwd = family.divergence([1.1], [1.0])
    assert d_fwd == pytest.approx(0.0046898, abs=1e-7)
    assert d_bwd == pytest.approx(0.0044011, abs=1e-7)
    probe = asymmetry_probe(family, [1.0], [1.0], [0.1, 0.05, 0.025, 0.0125])
    assert probe.values[0] == pytest.approx(d_fwd - d_bwd, abs=1e-15)
    assert probe.values[0] == pytest.approx(0.0002887, abs=1e-7)
    assert 2.8 <= probe.slope <= 3.2
    assert probe.ratio == pytest.approx(-1.0 / 6.0, rel=0.05)


def test_asymmetry_probe_flags_symmetric_divergence():
    probe = asymmetry_probe(
        GaussianFixedSigma(1.0), [0.0], [1.0], [0.1, 0.05, 0.025, 0.0125]
    )
    assert probe.degenerate
    assert probe.slope is None and probe.coefficient is None and probe.ratio is None


def test_asymmetry_probe_input_validation():
    family = ExponentialScale()
    with pytest.raises(ValueError):
        asymmetry_probe(family, [1.0], [1.0], [0.1, 0.05, 0.025])  # too few
    with pytest.raises(ValueError):
        asymmetry_probe(family, [1.0], [1.0], [0.05, 0.1, 0.025, 0.0125])  # not sorted
    with pytest.raises(DomainError):
        asymmetry_probe(family, [0.05], [-1.0], [0.1, 0.05, 0.025, 0.0125])


def test_asymmetry_ratio_constant_across_points_and_directions():
    view = natural_view(GaussianFull())
    ratios = []
    for x in ([0.3, 1.0], [-0.5, 0.8], [1.2, 1.5]):
        eta = GaussianFull().to_natural(x)
        # steps sized to the local scale |eta_2| (distance to the boundary)
        steps = abs(eta[1]) * np.array([0.1, 0.05, 0.025, 0.0125])
        for v in ([0.0, 1.0], [1.0, 1.0], [2.0, -1.0]):
            probe = asymmetry_probe(view, eta, v, steps)
            assert probe.ratio is not None
            ratios.append(probe.ratio)
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios - (-1 / 6)) < 0.05 / 6)


# --- convergence reports -----------------------------------------------------


def test_convergence_exponential_metric_error_scales_h2():
    rep = convergence_report(
        ExponentialScale(), [1.0], [0.2, 0.1, 0.05, 0.025]
    )
    errs = np.array([r.metric_error for r in rep.rungs])
    hs = np.array([r.h for r in rep.rungs])
    ratio = errs / hs**2
    assert ratio.max() / ratio.min() < 2.0
    assert 1.7 < rep.metric_order < 2.3


def test_convergence_bernoulli_natural_cubic_converges_to_score_moment():
    family = Bernoulli()
    view = natural_view(family)
    base = family.to_natural([0.3])
    oracle = score_moment_tensor(family, [0.3])
    rep = convergence_report(
        view, base, [0.4, 0.2, 0.1, 0.05], cubic_oracle=oracle
    )
    errs = [r.cubic_error for r in rep.rungs]
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-3


def test_convergence_gaussian_metric_is_exact_at_all_steps():
    rep = convergence_report(GaussianFixedSigma(1.0), [0.2], [0.2, 0.1, 0.05])
    for rung in rep.rungs:
        assert rung.metric_error < 1e-12


# --- stencil evaluations -----------------------------------------------------


class _CountingDivergence:
    """Forwards to a family and records every (p, q) ``divergence`` sees."""

    def __init__(self, family):
        self.family = family
        self.family_id = family.family_id
        self.dimension = family.dimension
        self.calls = []

    def contains(self, x):
        return self.family.contains(x)

    def divergence(self, p, q):
        self.calls.append((tuple(p), tuple(q)))
        return self.family.divergence(p, q)


@pytest.mark.parametrize(
    "family, p, metric_calls, cubic_calls",
    [
        (ExponentialScale(), [1.0], 9, 12),
        (GaussianFull(), [0.2, 1.3], 27, 36),
        (Categorical(4), [0.2, 0.3, 0.25], 57, 96),
    ],
)
def test_each_stencil_point_is_evaluated_once_per_level(family, p, metric_calls, cubic_calls):
    for extract, h, calls in [
        (extract_metric, 1e-2, metric_calls),
        (extract_cubic, 2e-2, cubic_calls),
    ]:
        div = _CountingDivergence(family)
        extract(div, p, h=h, richardson=True)
        assert len(div.calls) == calls
        per_level = calls // 3
        for level in range(3):
            chunk = div.calls[level * per_level : (level + 1) * per_level]
            assert len(set(chunk)) == per_level, (extract.__name__, level)


class _ScalarOnlyExponential(ExponentialScale):
    """A built-in family's subclass that overrides ``divergence`` alone."""

    def __init__(self):
        self.calls = []

    def divergence(self, p, q):
        self.calls.append((tuple(p), tuple(q)))
        return super().divergence(p, q)


def test_divergences_falls_back_row_by_row():
    family = ExponentialScale()
    Q = np.array([[1.1], [0.9], [1.0], [2.0]])
    expected = family.divergence_rows([1.0], Q).tolist()
    assert expected[2] == 0.0
    rowless = _CountingDivergence(family)
    assert not hasattr(rowless, "divergence_rows")
    for div in (rowless, _ScalarOnlyExponential()):
        assert divergences(div, [1.0], Q).tolist() == expected
        assert div.calls == [((1.0,), (q,)) for q in Q[:, 0]]
    # a stencil asks the subclass point by point and gets the family's tensor
    subclass = _ScalarOnlyExponential()
    cubic = extract_cubic(subclass, [1.0], h=0.05, richardson=True).components
    assert np.array_equal(cubic, extract_cubic(family, [1.0], h=0.05, richardson=True).components)
    assert len(subclass.calls) == 12


# --- failure modes -----------------------------------------------------------


def test_stencil_domain_errors():
    family = _CountingDivergence(ExponentialScale())
    with pytest.raises(DomainError):
        extract_metric(family, [0.005], h=1e-2)  # stencil reaches theta < 0
    with pytest.raises(DomainError):
        extract_cubic(family, [0.08], h=5e-2)  # 2h reach exits the domain
    with pytest.raises(DomainError):
        extract_cubic(family, [0.08], h=5e-2, richardson=True)
    with pytest.raises(DomainError):
        extract_metric(family, [-1.0])
    assert family.calls == []  # the domain is checked before any evaluation


def test_noise_panic_on_tiny_steps():
    with pytest.raises(NoisePanic):
        extract_cubic(ExponentialScale(), [1.0], h=1e-5)


def test_steps_below_the_resolution_of_the_point_are_conditioning_errors():
    # at mu = 1e15 an ulp is 0.125, so mu + h/4 == mu and g_00 came out 0
    family = GaussianFull()
    with pytest.raises(ConditioningError, match=r"step of 1\.000e-02 is not resolved"):
        extract_metric(family, [1e15, 1.0])
    with pytest.raises(ConditioningError, match=r"step of 2\.500e-03 is not resolved"):
        extract_cubic(family, [1e12, 1.0], h=1e-2, richardson=True)
    with pytest.raises(ConditioningError):
        asymmetry_probe(family, [1e15, 1.0], [1.0, 0.0], [0.2, 0.1, 0.05, 0.025])
    # before the closed-form oracles, which overflow at this mean
    with pytest.raises(ConditioningError):
        convergence_report(family, [1e200, 1.0], [0.1, 0.05])
    with pytest.raises(ConditioningError):
        extract_metric(ExponentialScale(), [1e300])
    # the same steps are resolved where the scale of the point allows them
    g = extract_metric(family, [1e3, 1.0], h=1e-2).components
    assert g[0, 0] == pytest.approx(1.0, rel=1e-6)


def test_zero_cubic_tensor_does_not_panic():
    t = extract_cubic(GaussianFixedSigma(1.0), [0.0], h=1e-3)
    assert np.max(np.abs(t.components)) < 1e-6


class _KinkedDivergence:
    """A C^0 odd defect: third differences grow ~5.7x per step halving."""

    family_id = "kinked"
    dimension = 1

    def contains(self, x):
        return True

    def divergence(self, p, q):
        u = float(q[0] - p[0])
        return 0.5 * u * u + 1e-6 * np.sign(u) * np.sqrt(abs(u))


def test_conditioning_error_when_ladder_disagrees():
    with pytest.raises(ConditioningError):
        extract_cubic(_KinkedDivergence(), [0.0], h=5e-2, richardson=True)


def test_fit_loglog_slope_ignores_noise_floor():
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [1e-2, 2.5e-3, 6.25e-4, 1e-17]  # last value is rounding noise
    slope = fit_loglog_slope(hs, errs)
    assert slope == pytest.approx(2.0, abs=0.05)
    assert fit_loglog_slope(hs, [0.0, 0.0, 0.0, 0.0]) is None
