"""State geometry: rays, embeddings, quantum divergences, holonomy, charts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo import (
    BlochChart,
    Categorical,
    ChartDivergence,
    DensityMatrix,
    DiagonalQutritChart,
    DimensionMismatch,
    DomainError,
    NumericalError,
    OrthogonalLink,
    PureState,
    VeroneseChart,
    bargmann_phase,
    extract_cubic,
    extract_metric,
    fubini_study_distance,
    make_chart_divergence,
    pure_density,
    quantum_jsd,
    quantum_relative_entropy,
    veronese_embed,
    von_neumann_entropy,
)
from infogeo import quantum
from infogeo.quantum import _as_matrix, parse_amplitudes

KET0 = PureState([1, 0])
KET1 = PureState([0, 1])
PLUS = PureState([1, 1])
PLUS_I = PureState([1, 1j])


def _haar_qubit(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState(z)


# --- pure states and rays ----------------------------------------------------


def test_pure_state_normalizes_and_validates():
    s = PureState([3, 4])
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        PureState([0, 0])
    with pytest.raises(ValueError):
        PureState([1.0])


def test_ray_equality_ignores_global_phase():
    s = PureState([1, 1j])
    t = PureState(np.exp(1j * 0.83) * s.amplitudes)
    assert s.same_ray(t)
    assert not s.same_ray(KET0)


def test_fubini_study_reference_values():
    assert fubini_study_distance(KET0, KET0) == 0.0
    assert fubini_study_distance(KET0, KET1) == pytest.approx(math.pi / 2)
    assert fubini_study_distance(KET0, PLUS) == pytest.approx(math.pi / 4)
    with pytest.raises(DimensionMismatch):
        fubini_study_distance(KET0, PureState([1, 0, 0]))


def test_fubini_study_symmetric_and_phase_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = _haar_qubit(rng), _haar_qubit(rng)
        assert fubini_study_distance(a, b) == pytest.approx(
            fubini_study_distance(b, a), abs=1e-15
        )
        b2 = PureState(np.exp(1j * rng.uniform(0, 2 * np.pi)) * b.amplitudes)
        assert fubini_study_distance(a, b2) == pytest.approx(
            fubini_study_distance(a, b), abs=1e-12
        )


# --- Veronese embedding ------------------------------------------------------


def test_veronese_reference_values():
    assert np.allclose(veronese_embed(KET0).amplitudes, [1, 0, 0])
    assert np.allclose(veronese_embed(KET1).amplitudes, [0, 0, 1])
    v = veronese_embed(PLUS)
    assert np.allclose(v.amplitudes, [0.5, 1 / math.sqrt(2), 0.5])
    with pytest.raises(DimensionMismatch):
        veronese_embed(PureState([1, 0, 0]))


def test_veronese_overlap_squaring_identity():
    rng = np.random.default_rng(1)
    for _ in range(500):
        p, q = _haar_qubit(rng), _haar_qubit(rng)
        lhs = abs(veronese_embed(p).overlap(veronese_embed(q)))
        rhs = abs(p.overlap(q)) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_veronese_contracts_fubini_study_distance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p, q = _haar_qubit(rng), _haar_qubit(rng)
        d_img = fubini_study_distance(veronese_embed(p), veronese_embed(q))
        d_pre = fubini_study_distance(p, q)
        assert d_img == pytest.approx(math.acos(math.cos(d_pre) ** 2), abs=1e-9)


# --- density matrices and entropies -----------------------------------------


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 0.1], [0.3, 0.5]])  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix([[0.9, 0], [0, 0.2]])  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix([[1.5, 0], [0, -0.5]])  # negative eigenvalue
    rho = DensityMatrix(np.eye(2) / 2)
    assert rho.dim == 2


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2))
    assert von_neumann_entropy(pure_density(KET0)) == pytest.approx(0.0, abs=1e-12)


def test_qre_identical_states_is_zero():
    rho = np.eye(2) / 2
    assert quantum_relative_entropy(rho, rho, eps=0.01) == 0.0


def test_qre_commuting_reduction_reference():
    # diag(0.7, 0.3) vs diag(0.3, 0.7) as eps -> 0: the categorical value
    rho = np.diag([0.7, 0.3]).astype(complex)
    sigma = np.diag([0.3, 0.7]).astype(complex)
    expected = 0.4 * math.log(7.0 / 3.0)
    assert quantum_relative_entropy(rho, sigma, eps=1e-9) == pytest.approx(
        expected, abs=1e-8
    )


def test_qre_commuting_reduction_across_eps():
    rng = np.random.default_rng(3)
    cat2, cat3 = Categorical(2, margin=1e-15), Categorical(3, margin=1e-15)
    for _ in range(50):
        for d, cat in ((2, cat2), (3, cat3)):
            p = rng.dirichlet(np.ones(d)) * 0.98 + 0.01 / d
            q = rng.dirichlet(np.ones(d)) * 0.98 + 0.01 / d
            p, q = p / p.sum(), q / q.sum()
            for eps in (1e-3, 1e-2, 0.1):
                sp = (1 - eps) * p + eps / d
                sq = (1 - eps) * q + eps / d
                expected = cat.divergence(sp[: d - 1], sq[: d - 1])
                got = quantum_relative_entropy(np.diag(p), np.diag(q), eps=eps)
                assert got == pytest.approx(expected, abs=1e-10)


def test_qre_diverges_as_smoothing_shrinks_on_orthogonal_pures():
    rho, sigma = pure_density(KET0), pure_density(KET1)
    values = [quantum_relative_entropy(rho, sigma, eps) for eps in (0.1, 0.01, 0.001)]
    assert values[0] < values[1] < values[2]


def test_qre_validates_inputs():
    with pytest.raises(ValueError):
        quantum_relative_entropy(np.eye(2) / 2, np.eye(2) / 2, eps=0.0)
    with pytest.raises(DimensionMismatch):
        quantum_relative_entropy(np.eye(2) / 2, np.eye(3) / 3, eps=0.01)


def test_qjsd_reference_values():
    rho = pure_density(KET0)
    assert quantum_jsd(rho, rho) == 0.0
    assert quantum_jsd(rho, pure_density(KET1)) == pytest.approx(math.log(2))


def test_qjsd_symmetric_and_bounded():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = _haar_qubit(rng)
        b = _haar_qubit(rng)
        rho = 0.7 * pure_density(a).entries + 0.3 * np.eye(2) / 2
        sigma = 0.4 * pure_density(b).entries + 0.6 * np.eye(2) / 2
        v = quantum_jsd(rho, sigma)
        assert v == quantum_jsd(sigma, rho)
        assert 0.0 <= v <= math.log(2) + 1e-12


# --- holonomy ----------------------------------------------------------------


def test_octant_loop_phase():
    assert bargmann_phase([KET0, PLUS, PLUS_I]) == pytest.approx(-math.pi / 4, abs=1e-12)
    assert bargmann_phase([PLUS_I, PLUS, KET0]) == pytest.approx(math.pi / 4, abs=1e-12)
    # an explicitly closed loop gives the same answer
    assert bargmann_phase([KET0, PLUS, PLUS_I, KET0]) == pytest.approx(
        -math.pi / 4, abs=1e-12
    )


def test_identical_ray_loop_has_zero_phase():
    assert bargmann_phase([KET0, KET0, KET0]) == 0.0


def test_bargmann_rephasing_invariance():
    rng = np.random.default_rng(5)
    loop = [_haar_qubit(rng) for _ in range(5)]
    base = bargmann_phase(loop)
    for _ in range(20):
        rephased = [
            PureState(np.exp(1j * rng.uniform(0, 2 * np.pi)) * s.amplitudes)
            for s in loop
        ]
        assert bargmann_phase(rephased) == pytest.approx(base, abs=1e-12)


def test_bargmann_orthogonal_link_raises():
    with pytest.raises(OrthogonalLink):
        bargmann_phase([KET0, KET1, PLUS])
    with pytest.raises(ValueError):
        bargmann_phase([KET0, PLUS])


def test_bargmann_result_in_principal_branch():
    rng = np.random.default_rng(6)
    for _ in range(50):
        loop = [_haar_qubit(rng) for _ in range(4)]
        try:
            phase = bargmann_phase(loop)
        except OrthogonalLink:
            continue
        assert -math.pi < phase <= math.pi


# --- charts ------------------------------------------------------------------


def test_bloch_chart_reference_points():
    chart = BlochChart(eps=1e-3)
    rho = chart.point([0.0, 0.0, 0.0]).entries
    assert np.allclose(rho, np.eye(2) / 2)
    r = 0.4
    rho = chart.point([0.0, 0.0, r]).entries
    scaled = (1 - chart.eps) * r
    assert np.allclose(np.diag(rho).real, [(1 + scaled) / 2, (1 - scaled) / 2])
    with pytest.raises(DomainError):
        chart.point([0.8, 0.8, 0.8])


def test_diag_qutrit_chart_reference_points():
    chart = DiagonalQutritChart(eps=1e-3)
    rho = chart.point([1 / 3, 1 / 3]).entries
    assert np.allclose(rho, np.eye(3) / 3)
    assert not chart.contains([0.6, 0.6])


def test_veronese_chart_points_are_smoothed_projectors():
    chart = VeroneseChart(eps=1e-2)
    rho = chart.point([math.pi / 2, 0.3]).entries
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() == pytest.approx(1e-2 / 3, rel=1e-6)
    assert eigs.max() == pytest.approx(1 - 1e-2 + 1e-2 / 3, rel=1e-6)


@pytest.mark.parametrize("eps", [1e-3, 0.3])
def test_veronese_map_takes_complex_scalar_products(eps):
    # one scalar map serves veronese_embed and the chart's state map
    rng = np.random.default_rng(13)
    for _ in range(200):
        z = 10.0 ** rng.uniform(-5.0, 5.0, 2) * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        a, b = (complex(v) for v in z / np.linalg.norm(z))
        want = np.array([a * a, math.sqrt(2.0) * a * b, b * b])
        assert veronese_embed(z).amplitudes.tobytes() == (want / np.linalg.norm(want)).tobytes()
    chart = VeroneseChart(eps)
    for x in _chart_rows("veronese", rng, 200):
        nu = veronese_embed([np.cos(x[0] / 2), np.sin(x[0] / 2) * np.exp(1j * x[1])]).amplitudes
        want = (1.0 - eps) * np.outer(nu, nu.conj()) + eps * np.eye(3) / 3
        assert chart.point(x).entries.tobytes() == want.tobytes()


CHART_POINTS = {
    # chart: (inside, inside, outside)
    "bloch": ([0.1, 0.2, 0.3], [-0.2, 0.0, 0.4], [0.8, 0.8, 0.8]),
    "diag-qutrit": ([0.2, 0.3], [0.5, 0.1], [0.8, 0.8]),
    "veronese": ([1.0, 0.5], [2.0, -0.5], [4.0, 0.0]),
}


@pytest.mark.parametrize("kind", ["qre", "qjsd"])
@pytest.mark.parametrize("chart", sorted(CHART_POINTS))
def test_chart_divergence_validates_each_state_once(kind, chart, monkeypatch):
    # a chart state is validated once, as point() builds it; the public
    # functions check a DensityMatrix no further, a raw matrix once, and both
    # sides' spectra in one stacked eigh
    states = []  # how many states each validation saw
    spectra = []  # how many matrices each spectrum check saw
    check, checked_eigh = quantum._check_density, quantum._checked_eigh

    def counting_check(m):
        states.append(m.size // m.shape[-1] ** 2)
        check(m)

    def counting_eigh(m):
        spectra.append(len(m))
        return checked_eigh(m)

    monkeypatch.setattr(quantum, "_check_density", counting_check)
    monkeypatch.setattr(quantum, "_checked_eigh", counting_eigh)
    div = make_chart_divergence(f"{kind}:{chart}")
    p, q = (div.chart.point(x) for x in CHART_POINTS[chart][:2])
    assert states == [1, 1]
    fn = quantum_relative_entropy if kind == "qre" else quantum_jsd
    sides = 2 if kind == "qre" else 3  # qjsd decomposes the mixture too
    states.clear()
    value = fn(p, q)
    assert value > 0.0
    assert states == [] and spectra == [sides]
    spectra.clear()
    assert np.float64(fn(p.entries, q.entries)).tobytes() == np.float64(value).tobytes()
    assert states == [1, 1] and spectra == [sides]


def _chart_rows(chart, rng, n):
    """``n`` seeded points inside the named chart's domain."""
    if chart == "bloch":
        v = rng.standard_normal((n, 3))
        return rng.uniform(0.0, 0.9, (n, 1)) * v / np.linalg.norm(v, axis=1, keepdims=True)
    if chart == "diag-qutrit":
        return rng.dirichlet(np.ones(3), n)[:, :2]
    return np.column_stack([rng.uniform(0.1, math.pi - 0.1, n), rng.uniform(-3.0, 3.0, n)])


def _reference_divergence(kind, rho, sigma):
    """The chart divergence with rho, sigma and their mixture each decomposed
    by an ``eigh`` call of its own."""

    def log(m):
        w, v = np.linalg.eigh(m)
        return (v * np.log(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)

    def entropy(m):
        w = np.clip(np.linalg.eigh(m)[0], 0.0, None)
        return -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)

    if kind == "qre":
        value = np.trace(rho @ (log(rho) - log(sigma)), axis1=-2, axis2=-1).real
        return np.where(value < 0.0, 0.0, value)
    value = entropy(0.5 * (rho + sigma)) - 0.5 * (entropy(rho) + entropy(sigma))
    return np.where(value > 0.0, value, 0.0)


def _count_decompositions(monkeypatch) -> dict:
    """Counters of the ``np.linalg.eigh`` and ``eigvalsh`` calls from now on."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def call(m):
            calls[name] += 1
            return original(m)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


@pytest.mark.parametrize("kind", ["qre", "qjsd"])
@pytest.mark.parametrize("chart", sorted(CHART_POINTS))
def test_chart_divergence_batch_decomposes_once(kind, chart, monkeypatch):
    # each public function decomposes its two matrices, and qjsd their
    # mixture, in one eigh call
    div = make_chart_divergence(f"{kind}:{chart}")
    p, q = (div.chart.point(x) for x in CHART_POINTS[chart][:2])
    calls = _count_decompositions(monkeypatch)
    (quantum_relative_entropy if kind == "qre" else quantum_jsd)(p, q)
    assert calls == {"eigh": 1, "eigvalsh": 0}


@pytest.mark.parametrize("kind", ["qre", "qjsd"])
@pytest.mark.parametrize("chart", sorted(CHART_POINTS))
def test_chart_kernels_make_no_eigendecomposition(kind, chart, monkeypatch):
    div = make_chart_divergence(f"{kind}:{chart}")
    rng = np.random.default_rng(5)

    def no_matrix(self, X):
        raise AssertionError("a chart kernel built a density matrix")

    monkeypatch.setattr(type(div.chart), "_state", no_matrix)
    calls = _count_decompositions(monkeypatch)
    for P, Q in ((_chart_rows(chart, rng, 1), _chart_rows(chart, rng, 9)),
                 (_chart_rows(chart, rng, 9), _chart_rows(chart, rng, 1))):
        assert np.all(div.divergence_rows(P, Q) > 0.0)
    extract_cubic(div, CHART_POINTS[chart][0], h=5e-2, richardson=True)
    assert calls == {"eigh": 0, "eigvalsh": 0}


@pytest.mark.parametrize("kind", ["qre", "qjsd"])
@pytest.mark.parametrize("chart", sorted(CHART_POINTS))
def test_stacked_decomposition_matches_separate_ones_bit_for_bit(kind, chart):
    # the public functions decompose a pair of chart states in one stacked
    # eigh, which gives what a call of its own for each matrix gives
    div = make_chart_divergence(f"{kind}:{chart}")
    for seed in range(5):
        x, y = _chart_rows(chart, np.random.default_rng([seed, 11]), 2)
        want = _reference_divergence(kind, div.chart.point(x).entries, div.chart.point(y).entries)
        if kind == "qre":  # the public function smooths the states it is given
            got = quantum_relative_entropy(div.chart._state(x), div.chart._state(y), eps=div.chart.eps)
        else:
            got = quantum_jsd(div.chart.point(x), div.chart.point(y))
        assert np.float64(got).tobytes() == want.tobytes()


# rows where a closed kernel takes a special branch or nears its domain's edge
EDGE_ROWS = {
    "bloch": (
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [1e-9, 0.0, -1e-9], [0.0, 0.0, 0.999]],
        [[0.2, 0.4, -0.1], [0.0, 0.0, 1e-9], [0.0, 0.0, 0.0], [0.0, 0.0, -0.999], [0.0, 0.0, 0.998]],
    ),
    "diag-qutrit": (
        [[1e-12, 0.5], [0.5, 0.5 - 1e-12], [1.0 - 2e-12, 1e-12], [1e-12, 1e-12], [0.3, 0.3]],
        [[0.3, 0.3], [1e-12, 1e-12], [1e-12, 1.0 - 2e-12], [2e-12, 1e-12], [1e-12, 0.5]],
    ),
    "veronese": (
        [[1e-9, 0.3], [1e-9, 0.3], [math.pi - 1e-9, 1.0], [math.pi - 1e-9, 1.0], [1e-9, -3.0], [1.0, 3.1]],
        [[2e-9, -2.0], [0.5, 1.0], [math.pi - 2e-9, -1.0], [1e-9, 1.0], [math.pi / 2, 3.0], [1.0, -3.1]],
    ),
}


@pytest.mark.parametrize("eps", [1e-3, 0.3])
@pytest.mark.parametrize("kind", ["qre", "qjsd"])
@pytest.mark.parametrize("chart", sorted(CHART_POINTS))
def test_closed_chart_kernels_match_the_eigh_kernel(chart, kind, eps):
    div = make_chart_divergence(f"{kind}:{chart}", eps=eps)
    rng = np.random.default_rng([7, round(eps * 1e3)])
    edge_p, edge_q = (np.array(X) for X in EDGE_ROWS[chart])
    cases = [(edge_p, edge_q), (edge_q, edge_p), (edge_p, edge_p)]
    cases += [(_chart_rows(chart, rng, n_p), _chart_rows(chart, rng, 40)) for n_p in (1, 40, 40)]
    for P, Q in cases:
        got = div.chart._divergence_rows(kind, P, Q)
        rho, sigma = (np.array([div.chart.point(x).entries for x in X]) for X in (P, Q))
        want = _reference_divergence(kind, rho, sigma)
        # the chart's largest log term: -log of the least eigenvalue of either side
        scale = -math.log(np.linalg.eigvalsh(np.concatenate([rho, sigma])).min())
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.all(got >= 0.0)
        # P == Q gives exactly 0, from the kernel and from the checked entry
        assert not div.chart._divergence_rows(kind, Q, Q).any()
        assert not div.divergence_rows(Q, Q).any()


@pytest.mark.parametrize(
    "eps, exact",
    # D(rho || sigma) at p = (1, 0.5), q = (1.2, 0.4), evaluated in mpmath at 50 digits
    [(1e-9, 0.517382550690306), (1e-12, 0.681160940456501), (1e-15, 0.844939329690901), (1e-300, 16.4038863068928)],
)
def test_qre_veronese_is_exact_at_small_smoothing(eps, exact):
    # the least eigenvalue eps/3 lies below what eigh resolves beside 1; the
    # closed form takes log(a/b) from eps itself, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = make_chart_divergence("qre:veronese", eps=eps).divergence_rows([[1.0, 0.5]], [[1.2, 0.4]])
    assert abs(value[0] - exact) <= 1e-12 * exact


def _bloch_radial(kind, eps, x):
    """Radial g and T of a Bloch-chart divergence at x.  Along the Bloch
    vector the states commute, so the divergence is the classical one of
    the eigenvalue a = (1 + (1 - eps)|x|)/2, moving at rate c = (1 - eps)/2:
    the Bernoulli relative entropy, or the JSD from the binary entropy H,
    whose g and T are -H''/4 and -3H'''/8."""
    a, c = (1.0 + (1.0 - eps) * np.linalg.norm(x)) / 2.0, (1.0 - eps) / 2.0
    if kind == "qre":
        g, t = 1.0 / (a * (1.0 - a)), 2.0 / (1.0 - a) ** 2 - 2.0 / a**2
    else:
        g, t = 0.25 / (a * (1.0 - a)), -0.375 * (1.0 / a**2 - 1.0 / (1.0 - a) ** 2)
    return c**2 * g, c**3 * t


@pytest.mark.parametrize("kind", ["qre", "qjsd"])
@pytest.mark.parametrize("x", [[0.1, 0.2, 0.3], [-0.4, 0.1, 0.2], [0.0, -0.5, 0.1], [0.3, -0.3, -0.3]])
def test_bloch_radial_tensors_match_their_closed_forms(kind, x):
    div = make_chart_divergence(f"{kind}:bloch", eps=1e-3)
    x = np.array(x)
    r_hat = x / np.linalg.norm(x)
    g_rr, t_rrr = _bloch_radial(kind, 1e-3, x)
    g = extract_metric(div, x, h=1e-2, richardson=True).components
    t = extract_cubic(div, x, h=5e-2, richardson=True).components
    got_g, got_t = r_hat @ g @ r_hat, np.einsum("ijk,i,j,k->", t, r_hat, r_hat, r_hat)
    # the benchmark's own check allows 1e-6 and 1e-3
    assert abs(got_g - g_rr) / max(abs(g_rr), np.max(np.abs(g))) < 1e-8
    assert abs(got_t - t_rrr) / max(abs(t_rrr), np.max(np.abs(t))) < 1e-4


@pytest.mark.parametrize("p", [[1.0, 0.5], [2.0, -1.0], [0.7, 2.5], [2.5, 0.0]])
def test_veronese_tensors_match_their_closed_forms(p):
    # D = k3 (1 - c^2) with k3 = (1 - eps) log((3 - 2 eps)/eps): g = k3
    # diag(1, sin^2 theta), and symmetry in (p, q) leaves T = 3/2 sym(dg),
    # whose one entry is T_theta,phi,phi = k3 sin(theta) cos(theta)
    eps, theta = 1e-3, p[0]
    k3 = (1.0 - eps) * math.log((3.0 - 2.0 * eps) / eps)
    div = make_chart_divergence("qre:veronese", eps=eps)
    g = extract_metric(div, p, h=1e-2, richardson=True).components
    t = extract_cubic(div, p, h=5e-2, richardson=True).components
    t_ref = np.zeros((2, 2, 2))
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        t_ref[idx] = k3 * math.sin(theta) * math.cos(theta)
    # the benchmark's own check allows 1e-6 and 1e-3
    assert np.max(np.abs(g - k3 * np.diag([1.0, math.sin(theta) ** 2]))) / k3 < 1e-10
    assert np.max(np.abs(t - t_ref)) / k3 < 1e-6


def test_checked_eigh_refuses_a_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)  # Hermitian, trace one, not PSD
    quantum._check_density(m)
    with pytest.raises(ValueError, match="eigenvalue below -1e-12"):
        quantum._checked_eigh(m[None])
    with pytest.raises(ValueError, match="eigenvalue below -1e-12"):
        quantum._checked_eigh(np.stack([np.eye(2) / 2, m]))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 40])
def test_checked_eigh_refuses_eigenvectors_that_do_not_rebuild_the_matrix(k, n, monkeypatch):
    rng = np.random.default_rng([k, n])
    a = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
    m = a @ a.conj().swapaxes(-1, -2)
    m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    w, v = quantum._checked_eigh(m)  # the true decomposition passes
    assert w.shape == (n, k) and v.shape == (n, k, k)
    eigh = np.linalg.eigh

    def off_by_1e8(x):
        w, v = eigh(x)
        v[-1] += 1e-8  # only the last matrix of the stack is off
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", off_by_1e8)
    with pytest.raises(NumericalError, match=r"^eigendecomposition residual \d\.\d{3}e-\d\d > 1e-10$"):
        quantum._checked_eigh(m)


@pytest.mark.parametrize("chart", sorted(CHART_POINTS))
def test_chart_points_outside_the_domain_name_the_chart(chart):
    div = make_chart_divergence(f"qre:{chart}")
    _, q, outside = CHART_POINTS[chart]
    with pytest.raises(DomainError, match=f"^{chart}: "):
        div.chart.point(outside)
    with pytest.raises(DomainError, match=f"^qre:{chart}: first argument "):
        div.divergence(outside, q)


def test_chart_divergence_protocol_and_extraction():
    div = make_chart_divergence("qre:bloch", eps=1e-3)
    assert div.family_id == "qre:bloch"
    assert div.dimension == 3
    assert div.divergence([0, 0, 0.2], [0, 0, 0.2]) == 0.0
    # at the ball center every direction is equivalent and the commuting
    # reduction gives g = (1-eps)^2 I; the cubic vanishes by parity
    g = extract_metric(div, [0.0, 0.0, 0.0], h=1e-2, richardson=True)
    assert np.allclose(g.components, (1 - 1e-3) ** 2 * np.eye(3), atol=1e-6)
    t = extract_cubic(div, [0.0, 0.0, 0.0], h=8e-2)
    assert np.max(np.abs(t.components)) < 1e-4


def test_chart_divergence_qjsd_symmetric_probe():
    from infogeo import asymmetry_probe

    div = make_chart_divergence("qjsd:bloch", eps=1e-3)
    probe = asymmetry_probe(div, [0.1, 0.0, 0.2], [0.0, 0.0, 1.0], [0.2, 0.1, 0.05, 0.025])
    assert probe.degenerate  # JSD is symmetric in its arguments


def test_qre_diag_qutrit_matches_classical_cubic():
    # on the diagonal chart the quantum divergence is the smoothed categorical
    # KL, so extraction picks up the classical mean-chart cubic coefficient
    eps = 1e-6
    div = make_chart_divergence("qre:diag-qutrit", eps=eps)
    p = np.array([0.3, 0.4])
    t = extract_cubic(div, p, h=4e-2, richardson=True)
    oracle = Categorical(3).forward_cubic(p)
    assert np.max(np.abs(t.components - oracle)) / np.max(np.abs(oracle)) < 5e-3


def test_veronese_chart_qre_is_a_function_of_fidelity():
    # uniform smoothing keeps the spectrum of a projector fixed, so relative
    # entropy between smoothed pure states reduces to a symmetric function of
    # the fidelity: on this chart the cubic term vanishes to stencil noise,
    # and the divergence is symmetric in its arguments
    div = make_chart_divergence("qre:veronese", eps=1e-3)
    t = extract_cubic(div, [math.pi / 2, 0.0], h=5e-2)
    assert np.max(np.abs(t.components)) < 1e-6
    x, y = [1.1, 0.4], [1.4, -0.2]
    assert div.divergence(x, y) == pytest.approx(div.divergence(y, x), rel=1e-12)


def test_bloch_interior_qre_cubic_is_nonzero():
    # away from the ball center the states are genuinely mixed with varying
    # spectrum and the relative-entropy cubic term does not vanish
    div = make_chart_divergence("qre:bloch", eps=1e-3)
    t = extract_cubic(div, [0.1, 0.2, 0.3], h=5e-2, richardson=True)
    assert np.max(np.abs(t.components)) > 0.5


def density_to_json(rho) -> dict:
    """Serialize as row-major [re, im] pairs with a declared dimension."""
    m = _as_matrix(rho)
    return {
        "dim": m.shape[0],
        "entries": [[z.real, z.imag] for z in m.reshape(-1)],
    }


def density_from_json(data: dict) -> DensityMatrix:
    d = int(data["dim"])
    flat = np.array([complex(re, im) for re, im in data["entries"]])
    if flat.size != d * d:
        raise ValueError(f"expected {d * d} entries for dim {d}, got {flat.size}")
    return DensityMatrix(flat.reshape(d, d))


def test_density_matrix_json_round_trip():
    chart = BlochChart(eps=1e-3)
    rho = chart.point([0.2, -0.1, 0.4])
    data = density_to_json(rho)
    assert data["dim"] == 2 and len(data["entries"]) == 4
    back = density_from_json(data)
    assert np.allclose(back.entries, rho.entries)
    with pytest.raises(ValueError):
        density_from_json({"dim": 3, "entries": data["entries"]})


def test_parse_amplitudes():
    s = parse_amplitudes("1,0")
    assert np.allclose(s.amplitudes, [1, 0])
    s = parse_amplitudes("0.7071+0i,0+0.7071i")
    assert abs(s.amplitudes[1].imag) == pytest.approx(1 / math.sqrt(2), rel=1e-4)
    with pytest.raises(ValueError):
        parse_amplitudes("not,a,number")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_veronese_identity_hypothesis(seed):
    rng = np.random.default_rng(seed)
    p, q = _haar_qubit(rng), _haar_qubit(rng)
    assert abs(veronese_embed(p).overlap(veronese_embed(q))) == pytest.approx(
        abs(p.overlap(q)) ** 2, abs=1e-12
    )
