"""Finite-difference extraction against closed-form and score-moment oracles.

The cubic Taylor coefficient of D(p || p + u) is chart dependent: it equals
the score-moment tensor only in charts affinely related to the natural one.
Oracle comparisons for Bernoulli and Categorical therefore run in the
natural view; the exponential family's default chart is affine in the
natural parameters (eta = -theta), so there the transported comparison works
in the default chart too.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction

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
    NumericalError,
    UnsupportedFamily,
    asymmetry_probe,
    convergence_report,
    demon_work,
    extract_cubic,
    extract_metric,
    make_chart_divergence,
    natural_view,
    score_moment_tensor,
)
from infogeo.extraction import _line_fit, _stencil_plan, _tensors, fit_loglog_slope
from infogeo.families import DivergenceFamily


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
    # a zero direction would probe the base point alone, and read as symmetric
    for fam, p in [(family, [1.0]), (GaussianFull(), [0.0, 1.0])]:
        with pytest.raises(ValueError, match="is zero"):
            asymmetry_probe(fam, p, np.zeros(len(p)), [0.1, 0.05, 0.025, 0.0125])


@pytest.mark.parametrize(
    "at, direction, steps, named",
    [
        # the values over h^3 overflowed with a warning, and the fit read NaN
        (1.0, 1e308, [0.2, 0.1, 0.05, 0.025], "[1.e+308]"),
        # the fit was finite, but T(v, v, v) read -inf and the ratio -0.0
        (1.0, 1e200, [0.2, 0.1, 0.05, 0.025], "[1.e+200]"),
        # the values over h^3 are finite, but math.fsum overflowed in the fit
        (3.0, 1.7e308, [1.0, 0.99, 0.98, 0.97], "[1.7e+308]"),
    ],
)
def test_an_asymmetry_whose_cubic_term_overflows_is_refused_without_a_warning(at, direction, steps, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as refused:
            asymmetry_probe(ExponentialScale(), [at], [direction], steps)
    assert str(refused.value) == (
        f"exponential: the cubic term of the asymmetry along {named} overflows the float range"
    )


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
    # the view's own forward_cubic is the score moment
    rep = convergence_report(view, base, [0.4, 0.2, 0.1, 0.05])
    errs = [r.cubic_error for r in rep.rungs]
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-3


def test_convergence_gaussian_metric_is_exact_at_all_steps():
    rep = convergence_report(GaussianFixedSigma(1.0), [0.2], [0.2, 0.1, 0.05])
    for rung in rep.rungs:
        assert rung.metric_error < 1e-12


# --- convergence ladders ------------------------------------------------------


def _tensor_error(measured, oracle):
    if oracle is None:
        return None
    denom = float(np.max(np.abs(oracle)))
    diff = float(np.max(np.abs(measured - oracle)))
    return diff / denom if denom > 0 else diff


def _convergence_walk(div, p, ladder, richardson):
    """The rung-by-rung reference: two extractions per rung, in rung order."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    metric_oracle = np.asarray(div.fisher(p), dtype=float) if hasattr(div, "fisher") else None
    cubic_oracle = np.asarray(div.forward_cubic(p), dtype=float) if hasattr(div, "forward_cubic") else None
    rungs = []
    for h in np.asarray(ladder, dtype=float):
        m = extract_metric(div, p, h=h, richardson=richardson).components
        c = extract_cubic(div, p, h=h, richardson=richardson).components
        rungs.append((float(h), m, c, _tensor_error(m, metric_oracle), _tensor_error(c, cubic_oracle)))
    hs = [r[0] for r in rungs]
    m_err, c_err = [r[3] for r in rungs], [r[4] for r in rungs]
    metric_order = fit_loglog_slope(hs, m_err) if all(e is not None for e in m_err) else None
    cubic_order = fit_loglog_slope(hs, c_err) if all(e is not None for e in c_err) else None
    return rungs, metric_order, cubic_order


_LADDER_FAMILIES = [
    (ExponentialScale(), [1.3], 1.0),
    (Bernoulli(), [0.45], 1.0),
    (natural_view(Bernoulli()), [0.6], 1.0),
    (GaussianFull(), [0.2, 1.3], 1.0),
    (Categorical(4), [0.2, 0.3, 0.25], 0.1),
    (make_chart_divergence("qre:bloch"), [0.1, -0.2, 0.3], 0.1),
]
_LADDERS = [[0.08], [0.08, 0.04], [0.08, 0.04, 0.02], [0.16, 0.08, 0.04, 0.02, 0.01], [0.1, 0.07, 0.03]]


@pytest.mark.parametrize("richardson", [False, True], ids=["plain", "richardson"])
@pytest.mark.parametrize(
    "family, p, scale", _LADDER_FAMILIES,
    ids=["exponential", "bernoulli", "natural:bernoulli", "gaussian-full", "categorical:4", "qre:bloch"],
)
def test_a_batched_ladder_equals_the_rung_by_rung_walk(family, p, scale, richardson):
    for ladder in _LADDERS:
        ladder = scale * np.array(ladder)
        rep = convergence_report(family, p, ladder, richardson=richardson)
        rungs, metric_order, cubic_order = _convergence_walk(family, p, ladder, richardson)
        assert len(rep.rungs) == len(rungs)
        for rung, (h, m, c, m_err, c_err) in zip(rep.rungs, rungs):
            assert rung.h == h
            assert np.array_equal(rung.metric, m) and np.array_equal(rung.cubic, c), (ladder, h)
            assert rung.metric_error == m_err and rung.cubic_error == c_err, (ladder, h)
        assert rep.metric_order == metric_order and rep.cubic_order == cubic_order, ladder


@pytest.mark.parametrize(
    "family, p, rows",
    [(ExponentialScale(), [1.0], 9), (GaussianFull(), [0.2, 1.3], 29)],
    ids=["exponential", "gaussian-full"],
)
def test_a_ladder_is_one_divergence_call(family, p, rows):
    # the metric and cubic of every rung share one call: 9 and 29 distinct
    # points per rung with Richardson, against 7 + 8 and 25 + 28 apart
    div = _CountingRows(family)
    rep = convergence_report(div, p, [0.08, 0.04, 0.02], richardson=True)
    assert div.rows == [3 * rows]
    assert len(rep.rungs) == 3


# a point of categorical:13, whose joint Richardson metric and cubic plan has
# 6169 distinct points per rung: a kernel call of at most 2^16 takes 10 rungs
_WIDE, _WIDE_ROWS = [0.07] * 12, 6169


def test_a_ladder_past_the_point_budget_is_several_calls_that_equal_the_walk():
    family, ladder = Categorical(13), np.geomspace(0.02, 0.002, 23)
    assert len(_stencil_plan(12, (2, 3), True)[0]) == _WIDE_ROWS
    div = _CountingRows(family)
    convergence_report(div, _WIDE, ladder, richardson=True)
    assert div.rows == [10 * _WIDE_ROWS, 10 * _WIDE_ROWS, 3 * _WIDE_ROWS]
    rep = convergence_report(family, _WIDE, ladder, richardson=True)
    rungs, metric_order, cubic_order = _convergence_walk(family, _WIDE, ladder, True)
    assert [(r.h, r.metric.tobytes(), r.cubic.tobytes(), r.metric_error, r.cubic_error) for r in rep.rungs] == [
        (h, m.tobytes(), c.tobytes(), m_err, c_err) for h, m, c, m_err, c_err in rungs]
    assert (rep.metric_order, rep.cubic_order) == (metric_order, cubic_order)


def test_a_refused_call_past_the_point_budget_raises_the_walk_s_first_error():
    # rungs 12 and 14, in the second call, meet a NoisePanic and a stencil
    # that leaves the domain; the call checks the domain first, the walk
    # meets the noise first, and walks the second call's rows alone
    family, ladder = Categorical(13), [0.01] * 20
    ladder[12], ladder[14] = 1e-5, 0.1
    walk = _outcome(lambda: _convergence_walk(family, _WIDE, ladder, True))
    assert walk == (NoisePanic, "rounding-noise estimate 6.400e+00 exceeds 1% of the largest component "
                    "3.416e+02; increase h")
    assert _outcome(lambda: convergence_report(family, _WIDE, ladder, richardson=True)) == walk
    div = _CountingRows(family)
    assert _outcome(lambda: convergence_report(div, _WIDE, ladder, richardson=True)) == walk
    alone = [len(_stencil_plan(12, (order,), True)[0]) for order in (2, 3)]
    assert div.rows == [10 * _WIDE_ROWS] + alone * 3


@pytest.mark.parametrize("richardson", [False, True], ids=["plain", "richardson"])
@pytest.mark.parametrize("d, union", [(1, (5, 9)), (2, (13, 29)), (3, (33, 85))], ids=["d1", "d2", "d3"])
def test_a_joint_plan_evaluates_each_point_of_every_order_once(d, union, richardson):
    offsets, plans = _stencil_plan(d, (2, 3), richardson)
    assert len(offsets) == union[richardson]
    assert len({tuple(o) for o in offsets.tolist()}) == len(offsets)
    for order, (weights, levels, fill) in zip((2, 3), plans):
        alone, [(w, lv, fl)] = _stencil_plan(d, (order,), richardson)
        # the same weights over the same points, each point taken from the union once
        assert np.array_equal(weights, w) and np.array_equal(fill, fl)
        assert np.array_equal(offsets[levels], alone[lv])
        assert len(set(levels.ravel().tolist())) == len(alone)


_JOINT_FAMILIES = [
    (ExponentialScale(), [1.3], 1.0),
    (natural_view(Bernoulli()), [0.6], 1.0),
    (GaussianFull(), [0.2, 1.3], 1.0),
    (Categorical(4), [0.2, 0.3, 0.25], 0.1),
    (make_chart_divergence("qre:bloch"), [0.1, -0.2, 0.3], 0.1),
]


@pytest.mark.parametrize("richardson", [False, True], ids=["plain", "richardson"])
@pytest.mark.parametrize(
    "family, p, scale", _JOINT_FAMILIES,
    ids=["exponential", "natural:bernoulli", "gaussian-full", "categorical:4", "qre:bloch"],
)
def test_a_multi_order_call_equals_one_call_per_order(family, p, scale, richardson):
    rng = np.random.default_rng(17)
    P = np.array(p) + scale * rng.uniform(-0.2, 0.2, (4, len(p)))
    P[2] = P[0]
    for h in [0.04 * scale, scale * np.array([0.08, 0.04, 0.02, 0.01])]:
        joint = _tensors(family, P, h, richardson, (2, 3))
        for order, result in zip((2, 3), joint):
            [alone] = _tensors(family, P, h, richardson, (order,))
            assert (result[1] is None) == (alone[1] is None) == (not richardson)
            for a, b in zip(result, alone):
                assert a is None or a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_step_per_row_equals_one_extraction_per_row():
    rng = np.random.default_rng(11)
    for family, draw in [
        (ExponentialScale(), lambda: [rng.uniform(0.5, 3.0)]),
        (GaussianFull(), lambda: [rng.uniform(-1.0, 1.0), rng.uniform(0.7, 2.0)]),
    ]:
        P = np.array([draw() for _ in range(6)])
        hs = rng.uniform(0.01, 0.1, len(P))
        for order, richardson in itertools.product((2, 3), (False, True)):
            [(t, disagreement, statistic)] = _tensors(family, P, hs, richardson, (order,))
            for i, (p, h) in enumerate(zip(P, hs)):
                # the row's step as a float, and as a 0-d array
                for step in (float(h), np.array(h)):
                    [(ti, di, si)] = _tensors(family, p[None], step, richardson, (order,))
                    assert np.array_equal(t[i], ti[0])
                    assert np.array_equal(statistic[i], si[0])
                    assert disagreement is None or disagreement[i] == di[0]
    # a 0-d array is one step for the row, as a float is
    for extract in (extract_metric, extract_cubic):
        for richardson in (False, True):
            a = extract(ExponentialScale(), [1.0], h=np.array(0.1), richardson=richardson)
            b = extract(ExponentialScale(), [1.0], h=0.1, richardson=richardson)
            assert a.components.tobytes() == b.components.tobytes()
            assert a.richardson_disagreement == b.richardson_disagreement
    # with rows in a strided layout, BLAS summed this rung's third difference
    # in another order and moved its last bit
    p = [0.2271651163414671]
    rep = convergence_report(Bernoulli(), p, [0.1, 0.07, 0.03])
    assert np.array_equal(rep.rungs[0].cubic, extract_cubic(Bernoulli(), p, h=0.1).components)


def test_one_step_for_every_row_is_that_step_on_each_row():
    # 200 rows, as in a finite-difference demon batch: one float step and the
    # same step per row give the same bits, and refuse with the same error
    rng = np.random.default_rng(22)
    P = np.column_stack([rng.uniform(-1.0, 1.0, 200), rng.uniform(0.7, 2.0, 200)])
    div, h = GaussianFull(), 0.05
    for richardson in (False, True):
        shared = _tensors(div, P, h, richardson, (2, 3))
        per_row = _tensors(div, P, np.full(len(P), h), richardson, (2, 3))
        for a, b in zip(itertools.chain(*shared), itertools.chain(*per_row)):
            assert a is None and b is None or a.shape == b.shape and a.tobytes() == b.tobytes()
    # row 150 far from the origin, where the step is not resolved
    Q = P.copy()
    Q[150] = [1e13, 1.0]
    refused = _outcome(lambda: _tensors(div, Q, h, True, (3,)))
    assert refused == _outcome(lambda: _tensors(div, Q, np.full(len(Q), h), True, (3,)))
    assert refused[0] is ConditioningError and "not resolved at [1.e+13 1.e+00]" in refused[1]
    # and at row 90 or 170 a step whose cube underflows, at a point where it is
    # resolved: the first of the two rows names its refusal, as a walk row by
    # row would, among rows that all share one other step
    for row, first in [(90, "cube underflows"), (170, "not resolved")]:
        R, hs = Q.copy(), np.full(len(Q), h)
        R[row], hs[row] = [0.0, 1e-100], 1e-110
        batch = _bits(lambda: _tensors(div, R, hs, True, (3,))[0][0])
        walk = _bits(lambda: np.array([extract_cubic(div, q, h=x, richardson=True).components for q, x in zip(R, hs)]))
        assert batch == walk and batch[0] is ConditioningError and first in batch[1], row


# at 1.0: a step that extracts, one whose cubic meets a NoisePanic, one whose
# cubic stencil (+-2h) leaves the domain, and one whose metric stencil does
_RUNGS = [0.05, 1e-5, 0.6, 1.2]


@pytest.mark.parametrize("richardson", [False, True], ids=["plain", "richardson"])
def test_a_batched_ladder_raises_the_error_the_walk_meets_first(richardson):
    family = ExponentialScale()
    for ladder in itertools.permutations(_RUNGS, 3):
        batch = _outcome(lambda: convergence_report(family, [1.0], ladder, richardson=richardson).rungs)
        walk = _outcome(lambda: _convergence_walk(family, [1.0], ladder, richardson)[0])
        if isinstance(walk, tuple):
            assert batch == walk, ladder
        else:
            assert [r.metric_error for r in batch] == [r[3] for r in walk], ladder
    # both rungs' steps are unresolved at this mean: the walk's first rung names its finest step
    p, ladder = [1e13, 1.0], [0.01, 0.001]
    batch = _outcome(lambda: convergence_report(GaussianFull(), p, ladder, richardson=richardson))
    assert batch == _outcome(lambda: _convergence_walk(GaussianFull(), p, ladder, richardson))
    assert batch == _outcome(lambda: extract_metric(GaussianFull(), p, h=0.01, richardson=richardson))
    step = "2.500e-03" if richardson else "1.000e-02"
    assert batch == (ConditioningError, f"gaussian-full: a step of {step} is not resolved at [1.e+13 1.e+00]; "
                     "a larger step, or a point nearer the origin, is needed")


def test_a_natural_view_ladder_raises_the_error_the_walk_meets_first():
    # the metric at h = 0.05 is not positive; the cubic's stencil (+-2h)
    # reaches eta_2 = 0, outside the domain, but the walk meets the metric first
    div = natural_view(GaussianFull())
    walk = _outcome(lambda: _convergence_walk(div, [1.0, -0.1], [0.05], False))
    assert walk == (NumericalError, "extracted metric has eigenvalue -1.127e+00 < -1e-8")
    assert _outcome(lambda: convergence_report(div, [1.0, -0.1], [0.05]).rungs) == walk


# --- stencil evaluations -----------------------------------------------------


class _CountingDivergence(DivergenceFamily):
    """A family's domain and divergence, recording every (p, q) row ``_divergence`` sees."""

    def __init__(self, family):
        self.family = family
        self.family_id = family.family_id
        self.dimension = family.dimension
        self.calls = []

    def _inside(self, X):
        return self.family._inside(X)

    def _divergence(self, P, Q):
        self.calls += [(tuple(p), tuple(q)) for p, q in zip(*np.broadcast_arrays(P, Q))]
        return self.family._divergence(P, Q)


@pytest.mark.parametrize(
    "family, p, metric_calls, cubic_calls",
    [
        (ExponentialScale(), [1.0], 7, 8),
        (GaussianFull(), [0.2, 1.3], 25, 28),
        (Categorical(4), [0.2, 0.3, 0.25], 55, 84),
    ],
    ids=["exponential", "gaussian-full", "categorical:4"],
)
def test_each_stencil_point_is_evaluated_once_per_extraction(family, p, metric_calls, cubic_calls):
    # the Richardson levels share points (offset 2 at h/2 is offset 1 at h),
    # and each distinct point is asked for once
    for extract, h, calls in [
        (extract_metric, 1e-2, metric_calls),
        (extract_cubic, 2e-2, cubic_calls),
    ]:
        div = _CountingDivergence(family)
        extract(div, p, h=h, richardson=True)
        assert len(div.calls) == calls
        assert len(set(div.calls)) == calls, extract.__name__
        assert {pq[0] for pq in div.calls} == {tuple(p)}


class _CountingRows:
    """Forwards to a family and records the row count of each call of its
    unchecked kernel ``_values``, which the engines evaluate through."""

    def __init__(self, family):
        self.family = family
        self.family_id = family.family_id
        self.dimension = family.dimension
        self.rows = []

    def _rows(self, X):
        return self.family._rows(X)

    def _refuse_outside(self, X, what):
        return self.family._refuse_outside(X, what)

    def divergence(self, p, q):
        raise AssertionError("a batched object was asked for one pair")

    def _values(self, P, Q, YP, YQ):
        values = self.family._values(P, Q, YP, YQ)
        self.rows.append(len(values))
        return values


@pytest.mark.parametrize(
    "family, p, metric_rows, cubic_rows",
    [
        (ExponentialScale(), [1.0], 7, 8),
        (GaussianFull(), [0.2, 1.3], 25, 28),
        (make_chart_divergence("qre:bloch"), [0.1, -0.2, 0.3], 55, 84),
    ],
    ids=["exponential", "gaussian-full", "qre:bloch"],
)
def test_a_richardson_extraction_is_one_divergence_call(family, p, metric_rows, cubic_rows):
    # one call for all three Richardson levels
    for extract, h, rows in [(extract_metric, 1e-2, metric_rows), (extract_cubic, 2e-2, cubic_rows)]:
        div = _CountingRows(family)
        t = extract(div, p, h=h, richardson=True)
        assert div.rows == [rows]
        reference = extract(family, p, h=h, richardson=True)
        assert np.array_equal(t.components, reference.components)
        assert t.richardson_disagreement == reference.richardson_disagreement
    div = _CountingRows(family)
    extract_cubic(div, p, h=2e-2)
    assert div.rows == [{1: 4, 2: 12, 3: 32}[family.dimension]]


@pytest.mark.parametrize(
    "family, eta, direction, rows",
    [
        (Bernoulli(), [0.8], [1.0], 8),
        (GaussianFull(), [0.2, -1.5], [1.0, 0.5], 28),
        (Categorical(4), [-0.3, 0.1, 0.2], [1.0, -0.5, 0.25], 84),
    ],
    ids=["bernoulli", "gaussian-full", "categorical:4"],
)
def test_a_natural_view_maps_each_point_once_per_engine_call(family, eta, direction, rows, monkeypatch):
    view = natural_view(family)
    steps = [0.2, 0.1, 0.05, 0.025]
    cubic = extract_cubic(view, eta, h=0.2, richardson=True)
    probe = asymmetry_probe(view, eta, direction, steps)
    calls = []
    from_natural = family.from_natural

    def counted(x):
        calls.append(len(x))
        return from_natural(x)

    monkeypatch.setattr(family, "from_natural", counted)
    # the base point and the distinct stencil points, mapped in one call that
    # serves both the domain check and the divergence
    t = extract_cubic(view, eta, h=0.2, richardson=True)
    assert calls == [1 + rows]
    assert np.array_equal(t.components, cubic.components)
    calls.clear()
    # the base point and the 4 probe points in one call for both value
    # calls, then the Richardson cubic at the largest step
    again = asymmetry_probe(view, eta, direction, steps)
    assert calls == [1 + 4, 1 + rows]
    assert np.array_equal(again.values, probe.values) and again.ratio == probe.ratio


def test_a_convergence_report_takes_both_closed_forms_from_one_kernel_call(monkeypatch):
    family = Bernoulli()
    for div, ladder in ((family, [0.1, 0.05, 0.025]), (natural_view(family), [0.2, 0.1, 0.05])):
        at = [0.3]
        want = convergence_report(div, at, ladder, richardson=True)
        kernel, mapped = [], []
        closed_rows, from_natural = div._closed_rows, family.from_natural

        def counted_kernel(X, orders):
            kernel.append((len(X), orders))
            return closed_rows(X, orders)

        def counted_map(x):
            mapped.append(len(x))
            return from_natural(x)

        with monkeypatch.context() as patch:
            patch.setattr(div, "_closed_rows", counted_kernel)
            patch.setattr(family, "from_natural", counted_map)
            rep = convergence_report(div, at, ladder, richardson=True)
        # the cubic first, so that its overflow is the one refused
        assert kernel == [(1, (3, 2))]
        # a natural view maps its base point for its check and for the kernel
        # call, then the ladder's points in one domain pass; the family maps none
        assert mapped == ([] if div is family else [1, 1, 30])
        assert (rep.metric_oracle.tobytes(), rep.cubic_oracle.tobytes()) == (
            want.metric_oracle.tobytes(), want.cubic_oracle.tobytes())
        assert [(r.metric_error, r.cubic_error) for r in rep.rungs] == [
            (r.metric_error, r.cubic_error) for r in want.rungs]


class _PatchyExponential(ExponentialScale):
    """The exponential family with a kink in D(p || .) for 5 < p < 10 that
    fails the Richardson check there."""

    family_id = "patchy"

    def _divergence(self, P, Q):
        a, u = P.T[0], Q.T[0] - P.T[0]
        kink = np.where((5.0 < a) & (a < 10.0), 1e-6 * np.sign(u) * np.sqrt(np.abs(u)), 0.0)
        return super()._divergence(P, Q) + kink


class _OverflowingPatchyExponential(_PatchyExponential):
    """The patchy family, whose divergence from a point p > 100 overflows."""

    def _divergence(self, P, Q):
        return np.where(P.T[0] > 100.0, np.inf, super()._divergence(P, Q))


def test_a_later_row_whose_divergence_overflows_leaves_the_refusal_of_an_earlier_row_first():
    # the walk meets row 7's Richardson refusal before row 200's overflow,
    # and so does a batch of both, whichever engine passes it
    family = _OverflowingPatchyExponential()
    walk = _outcome(lambda: extract_cubic(family, [7.0], h=5e-2, richardson=True))
    assert walk[0] is ConditioningError and walk[1].startswith("step-halving disagreement grew")
    assert _outcome(lambda: extract_cubic(family, [200.0], h=5e-2, richardson=True))[0] is NumericalError
    assert _outcome(lambda: _tensors(family, np.array([[7.0], [200.0]]), 5e-2, True, (3,))) == walk
    assert _outcome(lambda: demon_work(family, [[7.0], [200.0]])) == walk


# one row each that extracts, fails the Richardson check (patchy only), fails
# the noise test, leaves the domain with its stencil or its base point, and
# is not resolved by the finest step
_ROWS = [1.0, 7.0, 1e3, 0.08, -1.0, 1e17]


def _outcome(call):
    """What ``call`` returns, or the refusal it raises as (type, message);
    any other exception fails the test."""
    try:
        return call()
    except (DomainError, ConditioningError, NoisePanic, NumericalError) as exc:
        return type(exc), str(exc)


# natural points that extract, meet a NoisePanic, leave the domain with
# their stencil or their base point (in the natural chart or once mapped),
# and are not resolved by the finest step
_NATURAL_ROWS = {
    "bernoulli": [[0.6], [19.5], [20.7], [25.0], [-21.0], [1e17]],
    "gaussian-full": [[0.2, -0.5], [1.0, -0.1], [0.0, -1e4], [1e17, -0.5], [1.0, 0.5]],
}


@pytest.mark.parametrize(
    "family, rows, refused",
    [
        (_PatchyExponential(), [[x] for x in _ROWS], {DomainError, ConditioningError, NoisePanic}),
        (ExponentialScale(), [[x] for x in _ROWS], {DomainError, ConditioningError, NoisePanic}),
        (natural_view(Bernoulli()), _NATURAL_ROWS["bernoulli"], {DomainError, NoisePanic}),
        (natural_view(GaussianFull()), _NATURAL_ROWS["gaussian-full"], {DomainError, ConditioningError, NoisePanic}),
    ],
    ids=["row-by-row", "batched", "natural:bernoulli", "natural:gaussian-full"],
)
def test_a_batch_raises_the_error_a_row_by_row_walk_meets_first(family, rows, refused):
    refusals = set()
    for rows in itertools.permutations(rows, 3):
        P = np.array(rows)
        batch = _outcome(lambda: _tensors(family, P, 5e-2, True, (3,))[0][0])
        walk = _outcome(lambda: np.array([extract_cubic(family, p, h=5e-2, richardson=True).components for p in P]))
        if isinstance(walk, tuple):
            assert isinstance(batch, tuple) and batch == walk, rows
            refusals.add(walk[0])
        else:
            assert isinstance(batch, np.ndarray) and np.array_equal(batch, walk), rows
    assert refusals == refused


def test_a_refused_batch_is_extracted_again_row_by_row():
    # the stencil of 0.95 leaves the domain at 0.95 + 2h, which is refused
    # before any kernel call: then the rows before it, one 8-point
    # Richardson cubic stencil each, and the refused row makes none
    div = _CountingRows(Bernoulli())
    refused = _outcome(lambda: demon_work(div, [[0.3], [0.5], [0.95]]))
    assert refused == (DomainError, "bernoulli: finite-difference stencil leaves the domain at [1.05]")
    assert div.rows == [8, 8]
    # a Richardson refusal at 7.0 and a noise refusal at 1e3 come after the
    # one batched call of 3 rows, then the walk's calls up to the refused row
    for family, rows, refusal in [(_PatchyExponential(), [[1.0], [7.0], [2.0]], ConditioningError),
                                  (ExponentialScale(), [[1.0], [1e3], [2.0]], NoisePanic)]:
        div = _CountingRows(family)
        assert _outcome(lambda: _tensors(div, np.array(rows), 5e-2, True, (3,)))[0] is refusal
        assert div.rows == [3 * 8, 8, 8]


def _bits(call):
    """``_outcome`` of ``call``, with an array result reduced to its bytes."""
    result = _outcome(call)
    return result.tobytes() if isinstance(result, np.ndarray) else result


def _rung_bytes(rungs):
    return [(h, m.tobytes(), c.tobytes(), me, ce) for h, m, c, me, ce in rungs]


# each draws a base point; the patchy family's Richardson ladders fail for
# 5 < p < 10, and the natural views' points reach across the boundaries that
# their mapped points meet, |eta| ~ 20.7 for Bernoulli and eta_2 = 0 for
# gaussian-full
_SWEEP = [
    (_PatchyExponential(), lambda rng: [10 ** rng.uniform(-1.5, 1.2)]),
    (Bernoulli(), lambda rng: [rng.uniform(0.0, 0.3)]),
    (GaussianFull(), lambda rng: [rng.uniform(-1.0, 1.0), 10 ** rng.uniform(-1.5, 0.0)]),
    # far from the origin, where a ladder's larger steps are resolved and its smaller ones not
    (GaussianFull(), lambda rng: [rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(8, 14), 10 ** rng.uniform(-1.5, 0.0)]),
    (natural_view(Bernoulli()), lambda rng: [rng.uniform(-22.0, 22.0)]),
    (natural_view(GaussianFull()), lambda rng: [rng.uniform(-3.0, 3.0), -(10 ** rng.uniform(-2.0, 0.0))]),
]


def test_seeded_ladders_and_batches_raise_what_the_walk_meets_first():
    rng = np.random.default_rng(20)
    outcomes = set()
    for _ in range(120):
        for div, draw in _SWEEP:
            richardson = bool(rng.integers(2))
            steps = 10 ** rng.uniform(-3.0, -0.5, 3)
            # a ladder of one to three rungs at a base point in the domain
            p = draw(rng)
            while not div.contains(p):
                p = draw(rng)
            ladder = steps[: rng.integers(1, 4)]
            batch = _outcome(lambda: _rung_bytes(
                (r.h, r.metric, r.cubic, r.metric_error, r.cubic_error)
                for r in convergence_report(div, p, ladder, richardson=richardson).rungs
            ))
            walk = _outcome(lambda: _rung_bytes(_convergence_walk(div, p, ladder, richardson)[0]))
            assert batch == walk, (div, p, ladder, richardson)
            outcomes.add(walk[0] if isinstance(walk, tuple) else None)
            # three rows of one order, with one step or a step per row
            P = np.array([draw(rng) for _ in range(3)])
            order = int(rng.integers(2, 4))
            h = steps if rng.integers(2) else float(steps[0])
            hs = np.broadcast_to(h, 3)
            extract = {2: extract_metric, 3: extract_cubic}[order]
            batch = _bits(lambda: _tensors(div, P, h, richardson, (order,))[0][0])
            walk = _bits(lambda: np.array(
                [extract(div, p, h=float(x), richardson=richardson).components for p, x in zip(P, hs)]
            ))
            assert batch == walk, (div, P, h, order, richardson)
            outcomes.add(walk[0] if isinstance(walk, tuple) else None)
    assert outcomes == {None, DomainError, ConditioningError, NoisePanic, NumericalError}


# --- failure modes -----------------------------------------------------------


def test_stencil_domain_errors():
    family = _CountingDivergence(ExponentialScale())
    leaves = "finite-difference stencil leaves the domain"
    with pytest.raises(DomainError, match=leaves):
        extract_metric(family, [0.005], h=1e-2)  # stencil reaches theta < 0
    with pytest.raises(DomainError, match=leaves):
        extract_cubic(family, [0.08], h=5e-2)  # 2h reach exits the domain
    with pytest.raises(DomainError, match=leaves):
        extract_cubic(family, [0.08], h=5e-2, richardson=True)
    with pytest.raises(DomainError, match="base point"):
        extract_metric(family, [-1.0])
    assert family.calls == []  # the domain is checked before any evaluation


def test_stencils_over_many_coordinates_are_refused_before_their_plan():
    # a d = 29 Richardson cubic plan took 32 s to build before its base point
    # was refused; above d = 12 no plan is built
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"^categorical:30: base point \[1\.\] outside domain$"):
        extract_cubic(Categorical(30), [1.0], richardson=True)
    with pytest.raises(UnsupportedFamily, match="at most 12 coordinates, not 29$"):
        extract_cubic(Categorical(30), np.full(29, 0.02), richardson=True)
    assert time.perf_counter() - start < 1.0


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


def test_a_step_is_one_number_or_one_per_base_point():
    family = ExponentialScale()
    for h in (np.array([0.1, 0.2]), np.array([[0.1]]), np.full((1, 1, 1), 0.1)):
        for extract in (extract_metric, extract_cubic):
            with pytest.raises(ValueError, match=r"^a step is one number or one per base point") as refused:
                extract(family, [1.0], h=h)
            assert str(refused.value).endswith(f"not an array of shape {h.shape}")
    with pytest.raises(ValueError, match=r"shape \(3,\)$"):
        _tensors(family, np.ones((2, 1)), np.full(3, 0.1), False, (2,))
    # the step is recorded as the Python float it is taken as
    for h in (0.1, np.float64(0.1), np.array(0.1), [0.1], np.array([0.1])):
        for extract in (extract_metric, extract_cubic):
            t = extract(family, [1.0], h=h, richardson=True)
            assert type(t.step) is float and t.step == 0.1
            assert t.components.tobytes() == extract(family, [1.0], h=0.1, richardson=True).components.tobytes()


def test_steps_whose_powers_underflow_are_conditioning_errors():
    # 1e-122 is resolved at sigma = 1e-120, but its cube underflows to 0
    family = GaussianFull()
    p = [0.0, 1e-120]
    with pytest.raises(ConditioningError, match=r"step of 1\.000e-122 is too small: its cube underflows"):
        extract_cubic(family, p, h=1e-122)
    with pytest.raises(ConditioningError, match=r"step of 4\.000e-122 is too small: its cube underflows"):
        asymmetry_probe(family, p, [0.0, 1.0], [4e-122, 2e-122, 1e-122, 5e-123])
    with pytest.raises(ConditioningError, match=r"step of 2\.000e-122 is too small: its cube underflows"):
        convergence_report(family, p, [4e-122, 2e-122])
    # its square does not, and a metric divides by that alone
    g = extract_metric(family, p, h=1e-122).components
    assert g[0, 0] == pytest.approx(1e240, rel=1e-6)


def test_steps_whose_powers_overflow_are_conditioning_errors():
    # the divergence at 1e110 is finite, but the cube it is divided by is not
    family = GaussianFixedSigma(1.0)
    with pytest.raises(ConditioningError, match=r"step of 1\.000e\+110 is too large: its cube overflows"):
        extract_cubic(family, [0.0], h=1e110)
    assert extract_metric(family, [0.0], h=1e110).components[0, 0] == pytest.approx(1.0)
    # a probe that is symmetric divides by no power, and needs none in range
    assert asymmetry_probe(family, [0.0], [1.0], [1e150, 1e140, 1e130, 1e120]).degenerate
    with pytest.raises(ConditioningError, match=r"step of 1\.000e\+199 is too large: its cube overflows"):
        asymmetry_probe(ExponentialScale(), [1e200], [1.0], [1e199, 5e198, 2.5e198, 1.25e198])


def test_stencil_and_probe_points_that_overflow_leave_the_domain_without_a_warning():
    # a point past the float range is infinite, outside every domain, and
    # refused in one error with no floating-point warning before it
    family = ExponentialScale()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, h, richardson in (([1.0], 1.7e308, False), ([1.0], 1.7e308, True), ([1.79e308], 2e306, True)):
            with pytest.raises(DomainError, match=r"stencil leaves the domain at \[inf\]$"):
                extract_cubic(family, p, h=h, richardson=richardson)
        with pytest.raises(DomainError, match=r"probe point \[inf\] outside domain$"):
            asymmetry_probe(family, [1.0], [1e308], [4.0, 2.0, 1.0, 0.5])
        # an outside base point is refused as such, though its stencil overflows
        with pytest.raises(DomainError, match=r"base point \[-1.79e\+308\] outside domain$"):
            extract_cubic(family, [-1.79e308], h=2e306, richardson=True)


def test_zero_cubic_tensor_does_not_panic():
    t = extract_cubic(GaussianFixedSigma(1.0), [0.0], h=1e-3)
    assert np.max(np.abs(t.components)) < 1e-6


class _KinkedDivergence(DivergenceFamily):
    """A C^0 odd defect: third differences grow ~5.7x per step halving."""

    family_id = "kinked"
    dimension = 1

    def _inside(self, X):
        return np.isfinite(X.T[0])

    def _divergence(self, P, Q):
        u = Q.T[0] - P.T[0]
        return 0.5 * u * u + 1e-6 * np.sign(u) * np.sqrt(np.abs(u))


def test_conditioning_error_when_ladder_disagrees():
    with pytest.raises(ConditioningError):
        extract_cubic(_KinkedDivergence(), [0.0], h=5e-2, richardson=True)


def test_fit_loglog_slope_ignores_noise_floor():
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [1e-2, 2.5e-3, 6.25e-4, 1e-17]  # last value is rounding noise
    slope = fit_loglog_slope(hs, errs)
    assert slope == pytest.approx(2.0, abs=0.05)
    assert fit_loglog_slope(hs, [0.0, 0.0, 0.0, 0.0]) is None


def test_fit_loglog_slope_needs_two_distinct_steps():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_loglog_slope([0.05, 0.05], [1e-3, 1e-3]) is None
        assert fit_loglog_slope([0.1, 0.05, 0.05], [1e-17, 1e-3, 1e-3]) is None
        # distinct steps whose logs are equal fit no slope either
        assert fit_loglog_slope([1e-300, np.nextafter(1e-300, 1)], [1e-3, 2e-3]) is None


# _line_fit's error against the exact fit of its float inputs, in ulps of the
# slope and of the larger of |mean y| and |slope * mean x|, which bound the
# intercept's rounding: a few roundings of centred sums, with margin
LINE_FIT_ULPS = 8


def _exact_line_fit(x, y):
    """Least-squares slope, intercept, mean x and mean y in exact rationals."""
    X, Y = [Fraction(a) for a in x], [Fraction(b) for b in y]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    slope = sum((a - mx) * (b - my) for a, b in zip(X, Y)) / sum((a - mx) ** 2 for a in X)
    return slope, my - slope * mx, mx, my


def _ulps(got, exact, scale):
    return abs(Fraction(got) - exact) / Fraction(float(np.spacing(abs(float(scale)))))


def _seeded_ladders():
    """Seeded (x, y) ladders of 2 to 6 points: log-steps from 1e-8 to 1
    against the logs of noisy h^2 or h^3 errors, and x near 1e8 with a spread
    below 1 against a noisy line."""
    for seed in range(200):
        rng = np.random.default_rng([seed, 16])
        n = int(rng.integers(2, 7))
        h = np.sort(np.exp(rng.uniform(math.log(1e-8), 0.0, n)))[::-1]
        errors = rng.uniform(0.1, 10.0) * h ** rng.choice([2.0, 3.0]) * (1.0 + 1e-3 * rng.standard_normal(n))
        yield np.log(h).tolist(), np.log(errors).tolist()
        x = 1e8 + rng.uniform(0.0, 1.0, n)
        y = rng.uniform(-3.0, 3.0) * (x - 1e8) + rng.uniform(-1.0, 1.0) + 1e-3 * rng.standard_normal(n)
        yield x.tolist(), y.tolist()


def test_line_fit_matches_exact_rational_fit():
    for x, y in _seeded_ladders():
        slope, intercept, mx, my = _exact_line_fit(x, y)
        got_slope, got_intercept = _line_fit(x, y)
        assert _ulps(got_slope, slope, slope) <= LINE_FIT_ULPS, (x, y)
        assert _ulps(got_intercept, intercept, max(abs(my), abs(slope * mx))) <= LINE_FIT_ULPS, (x, y)


def test_line_fit_needs_two_distinct_x():
    assert _line_fit([], []) is None
    assert _line_fit([0.3], [1.0]) is None
    # the float mean of three 0.1s is not 0.1; the fit still sees no spread
    assert _line_fit([0.1, 0.1, 0.1], [1.0, 2.0, 3.0]) is None


def test_fitted_statistics_match_polyfit():
    # np.polyfit stands in as an oracle on ladders like the benchmark's
    ladder = np.array([1.0, 0.5, 0.25, 0.125])
    for theta, v in [(0.6, 1.0), (1.3, -1.0), (2.7, 1.0)]:
        probe = asymmetry_probe(ExponentialScale(), [theta], [v], 0.1 * theta * ladder)
        slope = np.polyfit(np.log(probe.steps), np.log(np.abs(probe.values)), 1)[0]
        coefficient = np.polyfit(probe.steps, probe.values / probe.steps**3, 1)[1]
        assert probe.slope == pytest.approx(slope, rel=1e-12)
        assert probe.coefficient == pytest.approx(coefficient, rel=1e-12)
    for family, p in [(ExponentialScale(), 1.7), (Bernoulli(), 0.3)]:
        hs = min(p, 1.0) * np.array([0.08, 0.04, 0.02])
        rep = convergence_report(family, [p], hs, richardson=True)
        for order, errors in [
            (rep.metric_order, [r.metric_error for r in rep.rungs]),
            (rep.cubic_order, [r.cubic_error for r in rep.rungs]),
        ]:
            assert order == pytest.approx(np.polyfit(np.log(hs), np.log(errors), 1)[0], rel=1e-12)
