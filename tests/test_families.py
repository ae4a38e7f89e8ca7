"""Divergence-family contracts: closed forms, oracles, domain handling.

High-precision oracles live here: each closed-form tensor is checked against
mpmath differentiation of the log-partition function (natural chart) or of
the divergence itself (default chart), so the package's formulas never rest
on their own correctness.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo import (
    Bernoulli,
    Categorical,
    DomainError,
    ExponentialScale,
    GaussianFixedSigma,
    GaussianFull,
    Point,
    UnsupportedFamily,
    bregman_divergence,
    make_family,
    natural_chart,
    natural_view,
    score_moment_tensor,
)

mp.mp.dps = 40

ALL_FAMILIES = [
    GaussianFixedSigma(1.0),
    GaussianFixedSigma(2.5),
    ExponentialScale(),
    Bernoulli(),
    Categorical(3),
    Categorical(4),
    GaussianFull(),
]


# --- mpmath twins of the closed-form divergences (independent oracles) -----


def _mp_divergence(family, p, q):
    fid = family.family_id.split(":")[0]
    if fid == "gaussian":
        return (mp.mpf(q[0]) - mp.mpf(p[0])) ** 2 / (2 * mp.mpf(family.sigma) ** 2)
    if fid == "exponential":
        return mp.log(mp.mpf(p[0]) / mp.mpf(q[0])) + mp.mpf(q[0]) / mp.mpf(p[0]) - 1
    if fid == "bernoulli":
        a, b = mp.mpf(p[0]), mp.mpf(q[0])
        return a * mp.log(a / b) + (1 - a) * mp.log((1 - a) / (1 - b))
    if fid == "categorical":
        fp = list(map(mp.mpf, p)) + [1 - mp.fsum(map(mp.mpf, p))]
        fq = list(map(mp.mpf, q)) + [1 - mp.fsum(map(mp.mpf, q))]
        return mp.fsum(a * mp.log(a / b) for a, b in zip(fp, fq))
    if fid == "gaussian-full":
        mup, sp = map(mp.mpf, p)
        muq, sq = map(mp.mpf, q)
        return mp.log(sq / sp) + (sp**2 + (mup - muq) ** 2) / (2 * sq**2) - mp.mpf(1) / 2
    raise AssertionError(fid)


def _mp_log_partition(family, eta):
    fid = family.family_id.split(":")[0]
    if fid == "gaussian":
        return mp.mpf(family.sigma) ** 2 * mp.mpf(eta[0]) ** 2 / 2
    if fid == "exponential":
        return -mp.log(-mp.mpf(eta[0]))
    if fid == "bernoulli":
        return mp.log(1 + mp.exp(mp.mpf(eta[0])))
    if fid == "categorical":
        return mp.log(1 + mp.fsum(mp.exp(mp.mpf(e)) for e in eta))
    if fid == "gaussian-full":
        e1, e2 = map(mp.mpf, eta)
        return -(e1**2) / (4 * e2) - mp.log(-2 * e2) / 2
    raise AssertionError(fid)


def _interior_points(family, n=4, seed=0):
    rng = np.random.default_rng(seed)
    return family.random_interior(rng, n)


# --- closed-form values from the definitions -------------------------------


def test_divergence_reference_values():
    assert Categorical(2).divergence([0.5], [0.5]) == 0.0
    assert ExponentialScale().divergence([1.0], [2.0]) == pytest.approx(
        1.0 - math.log(2.0), abs=1e-15
    )
    assert GaussianFixedSigma(1.0).divergence([0.0], [0.1]) == pytest.approx(
        0.005, abs=1e-18
    )


def test_coincidence_is_exactly_zero():
    for family in ALL_FAMILIES:
        p = _interior_points(family, 1)[0]
        assert family.divergence(p, p) == 0.0


def test_nonnegativity_bulk():
    # 1e4 random domain pairs per family: D >= 0, and > 0 off the diagonal
    rng = np.random.default_rng(7)
    for family in ALL_FAMILIES:
        ps = family.random_interior(rng, 10_000)
        qs = family.random_interior(rng, 10_000)
        for p, q in zip(ps, qs):
            d = family.divergence(p, q)
            assert d >= 0.0
            if not np.allclose(p, q):
                assert d > 0.0


def test_symmetric_family_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    family = GaussianFixedSigma(1.7)
    for p, q in zip(family.random_interior(rng, 200), family.random_interior(rng, 200)):
        assert family.divergence(p, q) == family.divergence(q, p)


def test_bregman_identity_all_exponential_families():
    rng = np.random.default_rng(11)
    for family in ALL_FAMILIES:
        for p, q in zip(family.random_interior(rng, 50), family.random_interior(rng, 50)):
            d = family.divergence(p, q)
            b = bregman_divergence(family, p, q)
            assert b == pytest.approx(d, rel=1e-12, abs=1e-15)


def test_divergence_matches_mpmath():
    rng = np.random.default_rng(5)
    for family in ALL_FAMILIES:
        for p, q in zip(family.random_interior(rng, 10), family.random_interior(rng, 10)):
            expected = float(_mp_divergence(family, p, q))
            assert family.divergence(p, q) == pytest.approx(expected, rel=1e-12, abs=1e-15)


# --- natural charts ---------------------------------------------------------


def test_natural_chart_round_trip_and_jacobian():
    for family in ALL_FAMILIES:
        chart = natural_chart(family)
        for x in _interior_points(family, 4, seed=2):
            eta = chart.forward(x)
            back = chart.inverse(eta)
            assert np.allclose(back, x, rtol=1e-10, atol=1e-12)
            jac = chart.jacobian(x)
            fd = np.empty((family.dimension, family.dimension))
            h = 1e-6
            for j in range(family.dimension):
                e = np.zeros(family.dimension)
                e[j] = h
                fd[:, j] = (chart.forward(x + e) - chart.forward(x - e)) / (2 * h)
            assert np.allclose(jac, fd, rtol=1e-5, atol=1e-7)


def test_natural_chart_examples():
    assert natural_chart(ExponentialScale()).forward([1.5]) == pytest.approx([-1.5])
    assert np.allclose(natural_chart(ExponentialScale()).jacobian([1.5]), [[-1.0]])
    assert natural_chart(Bernoulli()).forward([0.5]) == pytest.approx([0.0])
    assert natural_chart(GaussianFixedSigma(1.0)).forward([0.7]) == pytest.approx([0.7])


def test_log_partition_gradient_is_mean():
    for family in ALL_FAMILIES:
        for x in _interior_points(family, 3, seed=4):
            eta = family.to_natural(x)
            grad = np.array(
                [
                    float(
                        mp.diff(
                            lambda *e: _mp_log_partition(family, e),
                            tuple(map(mp.mpf, eta)),
                            tuple(1 if j == i else 0 for j in range(family.dimension)),
                        )
                    )
                    for i in range(family.dimension)
                ]
            )
            assert np.allclose(family.mean_from_natural(eta), grad, rtol=1e-9, atol=1e-12)


def _mp_partial(func, at, orders):
    return float(mp.diff(func, tuple(map(mp.mpf, at)), tuple(orders)))


def test_natural_fisher_matches_log_partition_hessian():
    for family in ALL_FAMILIES:
        for x in _interior_points(family, 3, seed=6):
            eta = family.to_natural(x)
            d = family.dimension
            psi = lambda *e: _mp_log_partition(family, e)
            hess = np.array(
                [
                    [
                        _mp_partial(psi, eta, [int(i == a) + int(i == b) for i in range(d)])
                        for b in range(d)
                    ]
                    for a in range(d)
                ]
            )
            assert np.allclose(family.natural_fisher(eta), hess, rtol=1e-8, atol=1e-10)


def test_score_moment_matches_log_partition_third_derivative():
    for family in ALL_FAMILIES:
        for x in _interior_points(family, 3, seed=8):
            eta = family.to_natural(x)
            d = family.dimension
            psi = lambda *e: _mp_log_partition(family, e)
            t = score_moment_tensor(family, x)
            for idx in np.ndindex(*t.shape):
                orders = [sum(1 for i in idx if i == a) for a in range(d)]
                expected = _mp_partial(psi, eta, orders)
                assert t[idx] == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_score_moment_reference_values():
    assert score_moment_tensor(ExponentialScale(), [1.0]).ravel()[0] == pytest.approx(2.0)
    assert score_moment_tensor(Bernoulli(), [0.5]).ravel()[0] == pytest.approx(0.0)
    assert np.all(score_moment_tensor(GaussianFixedSigma(1.0), [0.3]) == 0.0)


def test_score_moment_sum_and_quadrature_agree_with_closed():
    rng = np.random.default_rng(9)
    for family in [Bernoulli(), Categorical(3), Categorical(4)]:
        for x in family.random_interior(rng, 3):
            closed = score_moment_tensor(family, x, method="closed")
            summed = score_moment_tensor(family, x, method="sum")
            assert np.allclose(closed, summed, rtol=1e-12, atol=1e-14)
    for family in [ExponentialScale(), GaussianFixedSigma(1.5), GaussianFull()]:
        for x in family.random_interior(rng, 3):
            closed = score_moment_tensor(family, x, method="closed")
            quad = score_moment_tensor(family, x, method="quadrature")
            assert np.allclose(quad, closed, rtol=1e-7, atol=1e-9)


def test_score_moment_symmetric_under_index_permutations():
    rng = np.random.default_rng(10)
    for family in [Categorical(3), GaussianFull()]:
        for x in family.random_interior(rng, 3):
            t = score_moment_tensor(family, x)
            for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]:
                assert np.allclose(t, np.transpose(t, perm), atol=1e-14)


def test_score_moment_method_errors():
    with pytest.raises(UnsupportedFamily):
        score_moment_tensor(ExponentialScale(), [1.0], method="sum")
    with pytest.raises(UnsupportedFamily):
        score_moment_tensor(Bernoulli(), [0.3], method="quadrature")
    with pytest.raises(ValueError):
        score_moment_tensor(Bernoulli(), [0.3], method="magic")


# --- default-chart closed forms vs mpmath differentiation of D -------------


def test_fisher_matches_second_derivative_of_divergence():
    rng = np.random.default_rng(12)
    for family in ALL_FAMILIES:
        for x in family.random_interior(rng, 3):
            d = family.dimension
            f = lambda *q: _mp_divergence(family, x, q)
            hess = np.array(
                [
                    [
                        _mp_partial(f, x, [int(i == a) + int(i == b) for i in range(d)])
                        for b in range(d)
                    ]
                    for a in range(d)
                ]
            )
            assert np.allclose(family.fisher(x), hess, rtol=1e-8, atol=1e-10)


def test_forward_cubic_matches_third_derivative_of_divergence():
    rng = np.random.default_rng(13)
    for family in ALL_FAMILIES:
        for x in family.random_interior(rng, 3):
            d = family.dimension
            f = lambda *q: _mp_divergence(family, x, q)
            t = family.forward_cubic(x)
            for idx in np.ndindex(*t.shape):
                orders = [sum(1 for i in idx if i == a) for a in range(d)]
                expected = _mp_partial(f, x, orders)
                assert t[idx] == pytest.approx(expected, rel=1e-7, abs=1e-9)


# --- domain handling and plumbing -------------------------------------------


def test_domain_errors():
    with pytest.raises(DomainError):
        ExponentialScale().divergence([-1.0], [1.0])
    with pytest.raises(DomainError):
        Bernoulli().divergence([0.5], [1e-10])
    with pytest.raises(DomainError):
        Categorical(3).divergence([0.5, 0.6], [0.3, 0.3])
    with pytest.raises(DomainError):
        GaussianFull().divergence([0.0, -1.0], [0.0, 1.0])


def test_boundary_margin_is_configurable():
    loose = Bernoulli(margin=1e-12)
    assert loose.divergence([0.5], [1e-10]) > 0
    tight = Bernoulli(margin=1e-3)
    with pytest.raises(DomainError):
        tight.divergence([0.5], [1e-4])


def test_point_family_id_mismatch_is_usage_error():
    fam = ExponentialScale()
    alien = Point(coords=(1.0,), family_id="bernoulli")
    with pytest.raises(ValueError):
        fam.divergence(alien, [1.0])
    owned = Point(coords=(2.0,), family_id="exponential")
    assert fam.divergence(owned, owned) == 0.0


def test_make_family_grammar():
    assert make_family("exponential").family_id == "exponential"
    assert make_family("categorical:3").dimension == 2
    assert make_family("gaussian:2.0").sigma == 2.0
    assert make_family("gaussian").sigma == 1.0
    assert make_family("gaussian-full").dimension == 2
    with pytest.raises(ValueError):
        make_family("categorical")
    with pytest.raises(ValueError):
        make_family("weibull")


def test_natural_view_protocol():
    view = natural_view(Bernoulli())
    assert view.family_id == "bernoulli:natural"
    assert view.contains([5.0]) and view.contains([-5.0])
    # D in natural coords equals D of the mapped points
    fam = Bernoulli()
    eta_p, eta_q = [0.2], [-0.4]
    expected = fam.divergence(fam.from_natural(eta_p), fam.from_natural(eta_q))
    assert view.divergence(eta_p, eta_q) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(UnsupportedFamily):
        natural_view(object())


@given(
    a=st.floats(min_value=0.05, max_value=0.95),
    b=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200, deadline=None)
def test_bernoulli_gibbs_inequality(a, b):
    d = Bernoulli().divergence([a], [b])
    assert d >= 0.0
    if abs(a - b) > 1e-12:
        assert d > 0.0
