"""Divergence-family contracts: closed forms, oracles, domain handling.

High-precision oracles live here: each closed-form tensor is checked against
mpmath differentiation of the log-partition function (natural chart) or of
the divergence itself (default chart), so the package's formulas never rest
on their own correctness.
"""

import itertools
import math
import re
import warnings

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
    NumericalError,
    UnsupportedFamily,
    bregman_divergence,
    extract_metric,
    make_chart_divergence,
    make_family,
    natural_view,
    score_moment_tensor,
)
from infogeo.families import _simplex

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
        d = family.divergence_rows(ps, qs)
        assert (d >= 0.0).all()
        apart = ~np.isclose(ps, qs).all(axis=1)
        assert (d[apart] > 0.0).all()
        assert d[:100].tolist() == [family.divergence(p, q) for p, q in zip(ps[:100], qs[:100])]


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
        d = family.dimension
        for x in _interior_points(family, 4, seed=2):
            eta = family.to_natural(x)
            back = family.from_natural(eta)
            assert np.allclose(back, x, rtol=1e-10, atol=1e-12)
            jac = family.natural_jacobian(x)
            assert jac.shape == (d, d)
            assert np.allclose(jac, _central_difference(family.to_natural, x), rtol=1e-5, atol=1e-7)


def _central_difference(f, x, h=1e-6):
    """d f / dx at x by central differences, the derivative's index last."""
    steps = h * np.eye(len(x))
    return np.stack([(f(x + e) - f(x - e)) / (2 * h) for e in steps], axis=-1)


def test_default_chart_forms_are_the_chain_rule_of_the_natural_ones():
    # the module docstring's relation between the charts: g = psi''(J, J) and
    # T = psi'''(J, J, J) + 3 Sym psi''(H, J), with psi'' and psi''' the
    # natural view's closed forms and H the derivative of J
    for family in ALL_FAMILIES:
        for x in _interior_points(family, 4, seed=2):
            eta, jac = family.to_natural(x), family.natural_jacobian(x)
            hess = _central_difference(family.natural_jacobian, x)
            view = natural_view(family)
            psi2, psi3 = view.fisher(eta), view.forward_cubic(eta)
            assert np.allclose(family.fisher(x), jac.T @ psi2 @ jac, rtol=1e-5, atol=1e-7)
            m = np.einsum("aij,ab,bk->ijk", hess, psi2, jac)
            chain = np.einsum("abc,ai,bj,ck->ijk", psi3, jac, jac, jac) + m + m.transpose(0, 2, 1) + m.transpose(2, 0, 1)
            assert np.allclose(family.forward_cubic(x), chain, rtol=1e-5, atol=1e-7)


def test_natural_chart_examples():
    assert ExponentialScale().to_natural([1.5]) == pytest.approx([-1.5])
    assert np.allclose(ExponentialScale().natural_jacobian([1.5]), [[-1.0]])
    assert Bernoulli().to_natural([0.5]) == pytest.approx([0.0])
    assert GaussianFixedSigma(1.0).to_natural([0.7]) == pytest.approx([0.7])


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
            assert np.allclose(family._mean_from_natural(eta), grad, rtol=1e-9, atol=1e-12)


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
            assert np.allclose(natural_view(family).fisher(eta), hess, rtol=1e-8, atol=1e-10)


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


def _central_third(weights, stats):
    """Third central moment of the (n, d) ``stats`` under the (n,) ``weights``."""
    mean = weights @ stats / weights.sum()
    c = stats - mean
    return np.einsum("n,ni,nj,nk->ijk", weights, c, c, c) / weights.sum()


def _summed_score_moment(family, x):
    """Exact summation over the outcomes of a Bernoulli or categorical family."""
    if isinstance(family, Bernoulli):
        a = x[0]
        outcomes = [(1.0 - a, np.array([0.0])), (a, np.array([1.0]))]
    else:
        full, eye = _simplex(x), np.eye(family.k)
        outcomes = [(float(full[i]), eye[i, : family.dimension]) for i in range(family.k)]
    probs, stats = zip(*outcomes)
    return _central_third(np.asarray(probs), np.asarray(stats, dtype=float))


def _quadrature_score_moment(family, x):
    """Gauss-Legendre with 64 nodes over a window whose truncated tail mass is
    below e^-40; the integrand is a polynomial times the density, so the
    quadrature error is negligible at this order."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    if isinstance(family, ExponentialScale):
        theta = float(x[0])
        upper = 40.0 / theta  # 40 mean lifetimes
        xs = 0.5 * upper * (nodes + 1.0)
        w = weights * 0.5 * upper * theta * np.exp(-theta * xs)
        return _central_third(w, xs[:, None])
    # a Gaussian, 12 standard deviations either side of its mean
    m, s = x if isinstance(family, GaussianFull) else (float(x[0]), family.sigma)
    half = 12.0 * s
    xs = m + half * nodes
    pdf = np.exp(-((xs - m) ** 2) / (2 * s**2)) / (s * math.sqrt(2 * math.pi))
    w = weights * half * pdf
    return _central_third(w, np.column_stack([xs, xs**2]) if isinstance(family, GaussianFull) else xs[:, None])


def test_score_moment_sum_and_quadrature_agree_with_closed():
    rng = np.random.default_rng(9)
    for family in [Bernoulli(), Categorical(3), Categorical(4)]:
        for x in family.random_interior(rng, 3):
            closed = score_moment_tensor(family, x)
            summed = _summed_score_moment(family, x)
            assert np.allclose(closed, summed, rtol=1e-12, atol=1e-14)
    for family in [ExponentialScale(), GaussianFixedSigma(1.5), GaussianFull()]:
        for x in family.random_interior(rng, 3):
            closed = score_moment_tensor(family, x)
            quad = _quadrature_score_moment(family, x)
            assert np.allclose(quad, closed, rtol=1e-7, atol=1e-9)


def test_score_moment_symmetric_under_index_permutations():
    rng = np.random.default_rng(10)
    for family in [Categorical(3), Categorical(5), GaussianFull()]:
        for x in family.random_interior(rng, 3):
            t = score_moment_tensor(family, x)
            for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]:
                assert np.array_equal(t, np.transpose(t, perm))


@pytest.mark.parametrize(
    "family", ALL_FAMILIES + [natural_view(f) for f in ALL_FAMILIES], ids=lambda f: f.family_id
)
def test_closed_form_tensors_are_exactly_symmetric(family):
    # the J/H rule leaves rounding-level asymmetry before symmetrization, e.g.
    # gaussian-full off-diagonals of -1.0e-16 and -4.2e-17 at (1.49851003, 1.59404735)
    points = family.random_interior(np.random.default_rng(11), 6)
    if isinstance(family, GaussianFull):
        points = np.vstack([points, [1.49851003, 1.59404735]])
    for x in points:
        g, t = family.fisher(x), family.forward_cubic(x)
        assert np.array_equal(g, g.T)
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(t, t.transpose(perm)), perm


_KERNEL_FAMILIES = [
    GaussianFixedSigma(0.7), ExponentialScale(), Bernoulli(), Categorical(3), Categorical(5), Categorical(12),
    GaussianFull(),
]


@pytest.mark.parametrize(
    "div", _KERNEL_FAMILIES + [natural_view(f) for f in _KERNEL_FAMILIES], ids=lambda f: f.family_id
)
def test_the_closed_form_kernel_over_rows_is_the_one_point_forms_bit_for_bit(div):
    # a batched einsum or matmul may sum in another order than a single row's,
    # and numpy's array powers round otherwise than the one-point forms' did
    rng = np.random.default_rng(21)
    X = div.random_interior(rng, 40)
    family = getattr(div, "family", div)
    if isinstance(family, GaussianFull):
        # means up to 1e14, and scales of 1e+-100 in the default chart and of
        # 1e+-50 in the natural one, whose psi'' and psi''' take s^4 and s^6
        span = 100.0 if family is div else 50.0
        m, s = rng.choice([-1.0, 1.0], 40) * 10 ** rng.uniform(-3.0, 14.0, 40), 10 ** rng.uniform(-span, span, 40)
        X = np.vstack([X, np.column_stack([m, s]) if family is div else family._to_natural(np.column_stack([m, s]))])
    for order, one_point in ((2, div.fisher), (3, div.forward_cubic)):
        assert div._closed_rows(X, (order,))[0].tobytes() == np.array([one_point(x) for x in X]).tobytes()
    # both orders from one call are the tensors of two calls
    both = div._closed_rows(X, (3, 2))
    assert [t.tobytes() for t in both] == [div._closed_rows(X, (order,))[0].tobytes() for order in (3, 2)]


@pytest.mark.parametrize("family", [Bernoulli(), Categorical(5), GaussianFull()], ids=lambda f: f.family_id)
def test_a_natural_view_maps_both_sides_of_a_call_in_one(family, monkeypatch):
    view = natural_view(family)
    calls = []
    from_natural = family.from_natural

    def counted(eta):
        calls.append(len(eta))
        return from_natural(eta)

    monkeypatch.setattr(family, "from_natural", counted)
    rng = np.random.default_rng(23)
    for n in (1, 7, 64):
        P, Q = view.random_interior(rng, 1), view.random_interior(rng, n)
        for A, B in ((P, Q), (Q, P)):
            calls.clear()
            inside, Y = view._rows(np.concatenate([A, B]))
            values = view._values(A, B, Y[: len(A)], Y[len(A) :])
            # one mapping of both sides, for the domain and the kernel alike
            assert inside.all() and calls == [1 + n]
            want = family._values(*(from_natural(X) for X in (A, B, A, B)))
            assert values.tobytes() == want.tobytes()
            assert view.divergence_rows(A, B).tobytes() == want.tobytes()


def test_the_closed_forms_are_exact_quotients_of_numpys_powers():
    # T(m, s) is T(0, 1) over numpy's s**3 whatever m, at scales far past
    # where the generic rule's powers of s leave the float range
    rng = np.random.default_rng(22)
    scales = 10 ** rng.uniform(-100.0, 100.0, 200)
    unit = GaussianFull().forward_cubic([0.0, 1.0])
    X = np.column_stack([rng.uniform(-1e14, 1e14, 200), scales])
    [t] = GaussianFull()._closed_rows(X, (3,))
    assert t.tobytes() == (unit / (scales**3)[:, None, None, None]).tobytes()
    # T = psi'''(J, J, J) = -2 / theta^3, with J = -1
    rates = ExponentialScale()._closed_rows(scales[:, None], (3,))[0].ravel()
    assert rates.tolist() == (-(2.0 / scales**3)).tolist()


def test_score_moment_method_errors():
    # the closed form is the only method; the sums and quadratures above are oracles
    with pytest.raises(TypeError):
        score_moment_tensor(Bernoulli(), [0.3], method="sum")
    with pytest.raises(UnsupportedFamily):
        score_moment_tensor(natural_view(Bernoulli()), [0.3])
    with pytest.raises(DomainError):
        score_moment_tensor(Bernoulli(), [1.3])


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


# where the closed forms cancel: T of one coordinate vanishes at 0.5003605321800448,
# near 1/2, and g and T grow like 1/p^2 near an edge.  The last probability
# 1 - sum x stays large, since it rounds, and a tiny one would measure the
# input, not the form
_EDGE = [[0.5003605321800448], [1e-6], [1.0 - 1e-6]]
_EDGE_POINTS = {
    "bernoulli": _EDGE,
    "categorical:2": _EDGE,
    "categorical:3": [[1e-6, 0.3], [0.3, 1e-6]],
    "categorical:5": [[1e-6, 0.2, 0.1, 0.3], [0.2, 0.1, 0.3, 1e-6]],
    "exponential": [[1e-3], [1e9]],
}


@pytest.mark.parametrize(
    "family, edge",
    [pytest.param(f, False, id=f.family_id) for f in [Bernoulli(), *map(Categorical, (2, 3, 5))]]
    + [pytest.param(f, True, id=f"{f.family_id}-edge") for f in [Bernoulli(), *map(Categorical, (2, 3, 5)), ExponentialScale()]],
)
def test_default_chart_closed_forms_are_accurate_to_rounding(family, edge):
    # psi'' and psi''' are taken at the point itself, with no round trip
    # through the natural chart
    d = family.dimension
    points = _EDGE_POINTS[family.family_id] if edge else family.random_interior(np.random.default_rng(31), 3)
    for x in points:
        f = lambda *q: _mp_divergence(family, x, q)
        for tensor in (family.fisher(x), family.forward_cubic(x)):
            exact = np.array(
                [_mp_partial(f, x, [idx.count(a) for a in range(d)]) for idx in np.ndindex(*tensor.shape)]
            ).reshape(tensor.shape)
            assert np.max(np.abs(tensor - exact)) <= 5e-14 * np.max(np.abs(exact))


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


@pytest.mark.parametrize(
    "family, method, eta",
    [
        # sigma^2 = -1/(2 eta_2) is negative: from_natural took a square root of it
        (GaussianFull(), "forward_cubic", [1.0, 1.0]),
        # eta_2 = 0: from_natural divided by zero
        (GaussianFull(), "fisher", [1.0, 0.0]),
        (Bernoulli(), "fisher", [math.nan]),
    ],
)
def test_natural_view_closed_forms_check_the_natural_domain(family, method, eta):
    with pytest.raises(DomainError, match=f"^{family.family_id}:natural: point "):
        getattr(natural_view(family), method)(eta)


@pytest.mark.parametrize(
    "family, method, point",
    [
        # default-chart points: wrong signs, a negative metric, math domain errors
        (ExponentialScale(), "forward_cubic", [-1.0]),
        (Bernoulli(), "fisher", [1.5]),
        (Bernoulli(), "to_natural", [1.5]),
        (Bernoulli(), "natural_jacobian", [0.0]),
    ],
)
def test_exponential_family_closed_forms_check_the_domain(family, method, point):
    with pytest.raises(DomainError, match=f"^{family.family_id}: .* outside domain$"):
        getattr(family, method)(point)


@pytest.mark.parametrize(
    "div, method, point",
    [
        # the cubic -10 / s^3 is -3.7e308
        (GaussianFull(), "forward_cubic", [0.0, 3e-103]),
        # psi''_22 = 4 m^2 s^2 + 2 s^4 is about 1e599
        (natural_view(GaussianFull()), "fisher", [1e150, -1e-150]),
        (natural_view(ExponentialScale()), "fisher", [-1e-200]),
    ],
)
def test_closed_forms_that_overflow_raise_numerical_error(div, method, point):
    with pytest.raises(NumericalError, match=f"^{div.family_id}: the closed-form tensor at .* overflows"):
        getattr(div, method)(point)


@pytest.mark.parametrize(
    "m, s",
    [
        # 2 s^4 underflowed to 0 in the chain rule, and g_22 read 0 against 2e200
        (0.0, 1e-100),
        # s^4 was subnormal: g_22 was off by 1.1e-5 relative
        (0.0, 1e-80),
        # 8 s^6 underflowed while 1 / s^4 was still finite
        (0.0, 1e-60),
        # psi''_22 = 2 s^4 overflowed, and a representable metric was refused
        (0.0, 1e100),
        # the chain rule's terms of size (m/s)^2 cancelled g_22 to 0
        (1e8, 1.0),
        (-3e12, 0.5),
    ],
)
def test_gaussian_closed_forms_at_extreme_mean_and_sigma(m, s):
    f = GaussianFull()
    assert f.fisher([m, s]) == pytest.approx(np.diag([1.0, 2.0]) / s**2, rel=1e-14, abs=0)
    t = np.zeros((2, 2, 2))
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = -2.0
    t[1, 1, 1] = -10.0
    assert f.forward_cubic([m, s]) == pytest.approx(t / s**3, rel=1e-14, abs=0)


def test_closed_forms_just_inside_the_normal_range_are_the_closed_forms():
    # s^4 and s^6 just above the smallest normal float; a tiny mean is harmless
    f = GaussianFull()
    for m, s in [(0.0, 1.3e-77), (1e-300, 1.0), (0.0, 5.4e-52)]:
        assert f.fisher([m, s]) == pytest.approx(np.diag([1.0, 2.0]) / s**2, rel=1e-12)
    assert f.forward_cubic([0.0, 5.4e-52])[1, 1, 1] == pytest.approx(-10.0 / 5.4e-52**3, rel=1e-12)


def test_bregman_divergence_checks_the_domain():
    # the log-odds of 1.5 was a math domain error
    with pytest.raises(DomainError):
        bregman_divergence(Bernoulli(), [1.5], [0.5])


def test_bregman_divergence_refuses_what_the_natural_view_refuses():
    # eta_2 = -1/(2 sigma^2) is finite, but the sigma^2 it maps back to
    # underflows to 0, so the point is refused before psi(eta) can overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as refused:
            bregman_divergence(GaussianFull(), [0.0, 6e-155], [0.0, 7e-155])
    assert str(refused.value) == "gaussian-full: natural point [ 0.00000000e+000 -1.02040816e+308] outside domain"
    # 2 ulps above the margin, a point whose eta maps back below it
    family = Categorical(3, margin=1e-6)
    edge = [1.0000000000000004e-06, 0.0395]
    assert family.contains(edge)
    with pytest.raises(DomainError) as refused:
        bregman_divergence(family, [0.3, 0.3], edge)
    assert str(refused.value) == "categorical:3: natural point [-13.77520822  -3.19115227] outside domain"
    with pytest.raises(DomainError) as refused:
        natural_view(family).divergence(family.to_natural(edge), [0.0, 0.0])
    assert str(refused.value) == "categorical:3:natural: first argument [-13.77520822  -3.19115227] outside domain"


def test_boundary_margin_is_configurable():
    loose = Bernoulli(margin=1e-12)
    assert loose.divergence([0.5], [1e-10]) > 0
    tight = Bernoulli(margin=1e-3)
    with pytest.raises(DomainError):
        tight.divergence([0.5], [1e-4])


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


@pytest.mark.parametrize(
    "family, p, q, message",
    [
        # sigma^2 = -1/(2 eta_2) is negative, then infinite, off the natural domain
        (GaussianFull(), [1.0, 1.0], [1.0, -1.0], r"gaussian-full:natural: first argument \[1\. 1\.\]"),
        (GaussianFull(), [1.0, 0.0], [1.0, -1.0], r"gaussian-full:natural: first argument \[1\. 0\.\]"),
        # the message names the natural coordinate given, not the rate it maps to
        (ExponentialScale(), [-1.0], [1.0], r"exponential:natural: second argument \[1\.\]"),
        # the family's domain alone refuses infinite, NaN and signed-zero
        # natural points, naming the point given
        *[
            (family, p, q, "^" + re.escape(message) + "$")
            for family, p, q, message in [
                (ExponentialScale(), [math.inf], [-1.0], "exponential:natural: first argument [inf] outside domain"),
                (ExponentialScale(), [-math.inf], [-1.0], "exponential:natural: first argument [-inf] outside domain"),
                (ExponentialScale(), [math.nan], [-1.0], "exponential:natural: first argument [nan] outside domain"),
                (ExponentialScale(), [0.0], [-1.0], "exponential:natural: first argument [0.] outside domain"),
                (ExponentialScale(), [-1.0], [-0.0], "exponential:natural: second argument [-0.] outside domain"),
                (Bernoulli(), [math.inf], [-0.0], "bernoulli:natural: first argument [inf] outside domain"),
                (Bernoulli(), [0.0], [-math.inf], "bernoulli:natural: second argument [-inf] outside domain"),
                (Bernoulli(), [math.nan], [0.0], "bernoulli:natural: first argument [nan] outside domain"),
                (Categorical(3), [math.inf, 0.0], [0.0, -0.0], "categorical:3:natural: first argument [inf  0.] outside domain"),
                (Categorical(3), [0.0, 0.0], [-math.inf, 0.0], "categorical:3:natural: second argument [-inf   0.] outside domain"),
                (Categorical(3), [math.nan, 0.0], [0.0, 0.0], "categorical:3:natural: first argument [nan  0.] outside domain"),
                (Categorical(3), [-0.0, -math.inf], [0.0, 0.0], "categorical:3:natural: first argument [ -0. -inf] outside domain"),
                (GaussianFull(), [math.inf, -1.0], [0.0, -1.0], "gaussian-full:natural: first argument [inf -1.] outside domain"),
                (GaussianFull(), [math.nan, -1.0], [0.0, -1.0], "gaussian-full:natural: first argument [nan -1.] outside domain"),
                (GaussianFull(), [1.0, math.inf], [0.0, -1.0], "gaussian-full:natural: first argument [ 1. inf] outside domain"),
                (GaussianFull(), [0.0, -1.0], [1.0, -math.inf], "gaussian-full:natural: second argument [  1. -inf] outside domain"),
                (GaussianFull(), [1.0, math.nan], [0.0, -1.0], "gaussian-full:natural: first argument [ 1. nan] outside domain"),
                (GaussianFull(), [1.0, -0.0], [0.0, -1.0], "gaussian-full:natural: first argument [ 1. -0.] outside domain"),
                (GaussianFull(), [-0.0, -0.0], [0.0, -1.0], "gaussian-full:natural: first argument [-0. -0.] outside domain"),
            ]
        ],
    ],
)
def test_natural_view_checks_points_in_the_natural_chart(family, p, q, message):
    with pytest.raises(DomainError, match=message):
        natural_view(family).divergence(p, q)


def test_natural_view_refuses_what_its_family_refuses():
    # eta = 25 is a natural point, but the mean 1 - 1.4e-11 it maps to lies
    # within the family's margin of 1: the view names the point it was given
    with pytest.raises(DomainError) as refused:
        natural_view(Bernoulli()).divergence([25.0], [0.0])
    assert str(refused.value) == "bernoulli:natural: first argument [25.] outside domain"
    with pytest.raises(DomainError) as refused:
        extract_metric(natural_view(Bernoulli()), [20.0], h=5.0)
    assert str(refused.value) == "bernoulli:natural: finite-difference stencil leaves the domain at [25.]"
    # sigma^2 = -1/(2 eta_2) overflows, without a floating-point warning
    with pytest.raises(DomainError) as refused:
        natural_view(GaussianFull()).divergence([0.0, -1e-320], [0.0, -0.5])
    assert str(refused.value) == "gaussian-full:natural: first argument [ 0.e+000 -1.e-320] outside domain"
    with pytest.raises(NumericalError) as overflow:
        natural_view(GaussianFull()).divergence([1e200, -0.5], [0.0, -0.5])
    assert str(overflow.value) == (
        "gaussian-full:natural: the divergence from [ 1.e+200 -5.e-001] to [ 0.  -0.5] overflows the float range"
    )


@pytest.mark.parametrize(
    "family, p, q",
    [(Bernoulli(), [20.0], [np.nextafter(20.0, 21.0)]), (Categorical(3), [5.0, 0.0], [5.0, 1e-16])],
    ids=["bernoulli", "categorical:3"],
)
def test_natural_points_mapped_to_one_point_are_exactly_zero_apart(family, p, q):
    assert p != q and np.array_equal(family.from_natural(p), family.from_natural(q))
    view = natural_view(family)
    assert view.divergence(p, q) == 0.0
    assert view.divergence_rows([p, q], [q, p]).tolist() == [0.0, 0.0]


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


@pytest.mark.parametrize(
    "family, p, q",
    [
        # the closed forms round to -5.55e-18 and -1.11e-16 at these pairs
        (Bernoulli(), 0.05, 0.05000000000000001),
        (ExponentialScale(), 0.08687617154257521, 0.08687617154257524),
    ],
)
def test_divergence_rounding_below_zero_comes_back_zero(family, p, q):
    assert family.divergence([p], [q]) == 0.0
    assert family.divergence_rows([[p]], [[q]]).tolist() == [0.0]


# --- row-wise domain predicates ----------------------------------------------

_ROW_DOMAINS = [
    GaussianFixedSigma(2.0),
    ExponentialScale(),
    Bernoulli(),
    Categorical(3),
    Categorical(5),
    GaussianFull(),
]
_ROW_DOMAINS += [natural_view(family) for family in list(_ROW_DOMAINS)]
_ROW_DOMAINS += [make_chart_divergence(f"qre:{chart}") for chart in ("bloch", "diag-qutrit", "veronese")]
_ROW_DOMAINS += [domain.chart for domain in _ROW_DOMAINS[-3:]]

_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-9, 1.0 - 1e-9, 0.6, 0.8, math.pi, -math.pi,
          math.nan, math.inf, -math.inf, 1e200, -1e308]
_COORDINATE = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_contains_rows_matches_contains(data):
    domain = data.draw(st.sampled_from(_ROW_DOMAINS), label="domain")
    d = domain.dimension
    width = data.draw(st.sampled_from([d, d, d, 0, d - 1, d + 1]), label="width")
    rows = data.draw(st.lists(st.lists(_COORDINATE, min_size=width, max_size=width), max_size=6))
    X = np.array(rows, dtype=float).reshape(len(rows), width)
    inside = domain.contains_rows(X)
    assert inside.shape == (len(rows),) and inside.dtype == bool
    assert inside.tolist() == [domain.contains(x) for x in X]


# --- batched divergences -----------------------------------------------------

_FIVE_FAMILIES = [GaussianFixedSigma(2.0), ExponentialScale(), Bernoulli(), Categorical(4), GaussianFull()]
_BATCHED = _FIVE_FAMILIES + [natural_view(family) for family in _FIVE_FAMILIES]
_BATCHED += [
    make_chart_divergence(f"{kind}:{chart}")
    for kind in ("qre", "qjsd")
    for chart in ("bloch", "diag-qutrit", "veronese")
]


def _batch_interior(div, rng, n):
    """``n`` points inside ``div``'s domain, as an (n, d) array."""
    if hasattr(div, "random_interior"):
        return div.random_interior(rng, n)
    box = rng.uniform(-math.pi, math.pi, size=(4000, div.dimension))
    return box[div.contains_rows(box)][:n]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_divergence_rows_matches_divergence(data):
    div = data.draw(st.sampled_from(_BATCHED), label="divergence")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(1, 6), label="rows")
    # 1: an independent point, 1e-3: a close one (the domains are convex), 0: q = p
    t = np.array(data.draw(st.lists(st.sampled_from([1.0, 1e-3, 0.0]), min_size=n, max_size=n)))
    P = _batch_interior(div, rng, n)
    Q = P + t[:, None] * (_batch_interior(div, rng, n) - P)
    if data.draw(st.booleans(), label="one base point"):
        P = P[0]
    pairs = list(zip(*np.broadcast_arrays(np.atleast_2d(P), Q)))
    batched = div.divergence_rows(P, Q)
    assert batched.shape == (n,)
    np.testing.assert_allclose(batched, [div.divergence(p, q) for p, q in pairs], rtol=1e-14, atol=0)
    assert all(batched[i] == 0.0 for i, (p, q) in enumerate(pairs) if np.array_equal(p, q))

    outside = np.array(data.draw(st.lists(_COORDINATE, min_size=div.dimension, max_size=div.dimension)))
    if div.contains(outside):
        return
    row = data.draw(st.integers(0, n - 1), label="outside row")
    if data.draw(st.booleans(), label="outside first"):
        P, pair = outside, (outside, pairs[row][1])
    else:
        Q = Q.copy()
        Q[row] = outside
        pair = (pairs[row][0], outside)
    with pytest.raises(Exception) as scalar:
        div.divergence(*pair)
    with pytest.raises(type(scalar.value)):
        div.divergence_rows(P, Q)


@pytest.mark.parametrize("div", _BATCHED, ids=lambda div: div.family_id)
def test_divergence_takes_one_point_per_argument(div):
    p = _batch_interior(div, np.random.default_rng(0), 2)
    message = rf"^{re.escape(div.family_id)}: expected {div.dimension} coordinate\(s\), got shape"
    for pair in [(p[:1], p[1]), (p[0], p[1:]), (p[0], np.append(p[1], 0.5))]:
        with pytest.raises(ValueError, match=message):
            div.divergence(*pair)
