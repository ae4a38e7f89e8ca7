"""Rays, density matrices, quantum divergences, and loop holonomy.

Pure states are rays: global phase is unobservable, so equality means the
overlap modulus is 1.  The quadratic Veronese map sends a qubit ray to the
symmetric-subspace ray of its tensor square, the set of two-qubit product
states reachable by acting on each factor identically.

Quantum relative entropy is infinite between states of non-overlapping
support, so every evaluation happens on smoothed states
rho_eps = (1 - eps) rho + eps I/d; the smoothing value always travels with
the result.  A chart supplies its domain ``_inside``, its state map
``_state`` of one point, which ``point`` smooths and validates, and its
divergence kernel, in closed form from the smoothed spectra with no
``eigh``; ``eigh`` serves only matrices given by the user.  The holonomy
of a loop of rays is the phase of the cyclic product of successive
overlaps, taken in the order that makes the octant loop |0> -> |x+> ->
|y+> come out at -pi/4 (minus half the enclosed solid angle for the
traversal orientation); reversing the loop flips the sign.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalError, OrthogonalLink
from .families import DivergenceFamily, RowDomain, _format_point, _simplex

__all__ = [
    "PureState",
    "DensityMatrix",
    "pure_density",
    "fubini_study_distance",
    "veronese_embed",
    "von_neumann_entropy",
    "quantum_relative_entropy",
    "quantum_jsd",
    "bargmann_phase",
    "BlochChart",
    "DiagonalQutritChart",
    "VeroneseChart",
    "ChartDivergence",
    "make_chart_divergence",
    "parse_amplitudes",
]

_ATOL = 1e-12


class PureState:
    """A unit complex vector modulo global phase."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise ValueError("pure states need dimension >= 2")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        # a NaN or infinite amplitude makes the norm NaN or infinite
        if not np.isfinite(norm):
            raise ValueError("amplitudes must be finite, with a norm in the float range")
        if norm < 1e-12:
            raise ValueError("zero vector is not a state")
        amps = amps / norm
        amps.setflags(write=False)
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "PureState") -> complex:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} != {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def same_ray(self, other: "PureState", tol: float = 1e-12) -> bool:
        return abs(abs(self.overlap(other)) - 1.0) <= tol

    def __repr__(self):
        return f"PureState({np.array2string(self.amplitudes, precision=6)})"


def _as_state(x) -> PureState:
    return x if isinstance(x, PureState) else PureState(x)


class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one complex matrix."""

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        _check_density(m)
        if np.linalg.eigvalsh(m).min() < -_ATOL:
            raise ValueError("matrix has an eigenvalue below -1e-12")
        m.setflags(write=False)
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _check_density(m: np.ndarray) -> None:
    """Raise ValueError unless the (k, k) matrix ``m`` is Hermitian and of
    trace one within 1e-12.  Callers check the spectrum where they compute
    it, as ``_checked_eigh`` does.
    """
    if np.max(np.abs(m - _adjoint(m))) > _ATOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    if abs(np.trace(m).real - 1.0) > _ATOL:
        raise ValueError("trace differs from 1 by more than 1e-12")


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def pure_density(psi) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix."""
    psi = _as_state(psi)
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.entries
    if isinstance(x, PureState):
        return pure_density(x).entries
    return DensityMatrix(x).entries


def _smooth(m: np.ndarray, eps: float) -> np.ndarray:
    """``m`` mixed with weight ``eps`` into the maximally mixed state I/d."""
    d = m.shape[-1]
    return (1.0 - eps) * m + eps * np.eye(d) / d


def fubini_study_distance(a, b) -> float:
    """arccos |<a|b>|, the geodesic distance between rays; in [0, pi/2]."""
    a, b = _as_state(a), _as_state(b)
    return math.acos(min(1.0, abs(a.overlap(b))))


def veronese_embed(q) -> PureState:
    """Embed a qubit ray as the symmetric two-copy state (a^2, sqrt2 ab, b^2).

    The basis is {|00>, (|01>+|10>)/sqrt2, |11>}.  The overlap identity
    |<v(p)|v(q)>| = |<p|q>|^2 characterizes the map.
    """
    q = _as_state(q)
    if q.dim != 2:
        raise DimensionMismatch(f"veronese embedding needs a qubit, got dim {q.dim}")
    return PureState(_veronese(*map(complex, q.amplitudes)))


def _veronese(a: complex, b: complex) -> list:
    """(a^2, sqrt2 ab, b^2) of the qubit amplitudes a, b, as complex scalars."""
    return [a * a, math.sqrt(2.0) * a * b, b * b]


def _atanh_over(t2: np.ndarray) -> np.ndarray:
    """atanh(t)/t at t = sqrt(t2) in [0, 1), exactly 1 at t = 0."""
    t = np.sqrt(t2)
    safe = np.where(t > 0.0, t, 0.5)
    return np.where(t > 0.0, np.arctanh(safe) / safe, 1.0)


def _checked_eigh(m: np.ndarray):
    """(w, v) of every matrix of the Hermitian (n, k, k) stack ``m``.

    One stacked ``eigh`` decomposes each matrix exactly as a call of its own
    would.  Raises ValueError for an eigenvalue below -1e-12."""
    w, v = np.linalg.eigh(m)
    if w.min() < -_ATOL:
        raise ValueError("matrix has an eigenvalue below -1e-12")
    # one einsum loop rebuilds the stack; a stacked matmul runs a BLAS call per matrix
    residual = np.max(np.abs(m - np.einsum("nik,nk,njk->nij", v, w, v.conj())))
    if residual > 1e-10:
        raise NumericalError(f"eigendecomposition residual {residual:.3e} > 1e-10")
    return w, v


def _entropy(w: np.ndarray) -> np.ndarray:
    """S from each row of eigenvalues ``w``, with 0 log 0 = 0."""
    w = np.clip(w, 0.0, None)
    return -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho log rho] in nats, with 0 log 0 = 0."""
    w, _ = _checked_eigh(_as_matrix(rho)[None])
    return float(_entropy(w)[0])


def _nonnegative(value: np.ndarray) -> np.ndarray:
    """Relative entropies ``value`` with rounding below zero clipped to 0;
    NumericalError if one came out below -1e-12."""
    worst = np.min(value, initial=0.0)
    if worst < -1e-12:
        raise NumericalError(f"relative entropy came out negative: {worst:.3e}")
    return np.where(value < 0.0, 0.0, value)


def _jsd_spectra(wp: np.ndarray, wq: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """The JSD from the spectra of rho, sigma and their mixture, clipped at 0."""
    value = _entropy(wm) - 0.5 * (_entropy(wp) + _entropy(wq))
    return np.where(value > 0.0, value, 0.0)


def quantum_relative_entropy(rho, sigma, eps: float = 1e-3) -> float:
    """Tr[rho_eps (log rho_eps - log sigma_eps)] on smoothed states.

    ``eps`` must lie in (0, 1); the smoothing keeps the value finite for
    states with non-overlapping support and must be reported alongside any
    published number.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    rho, sigma = _as_matrix(rho), _as_matrix(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} != {sigma.shape}")
    m = _smooth(np.stack([rho, sigma]), eps)
    w, v = _checked_eigh(m)
    log = (v * np.log(w)[..., None, :]) @ _adjoint(v)
    return float(_nonnegative(np.trace(m[0] @ (log[0] - log[1])).real))


def quantum_jsd(rho, sigma) -> float:
    """S((rho+sigma)/2) - (S(rho) + S(sigma))/2; symmetric, in [0, log 2]."""
    rho, sigma = _as_matrix(rho), _as_matrix(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} != {sigma.shape}")
    w, _ = _checked_eigh(np.stack([rho, sigma, 0.5 * (rho + sigma)]))
    return float(_jsd_spectra(w[0], w[1], w[2]))


def bargmann_phase(loop) -> float:
    """Holonomy phase of a closed loop of rays, in (-pi, pi].

    The loop is given by its vertices; the closure back to the first vertex
    is implicit (a repeated final vertex is detected and dropped).  The
    result is invariant under independent rephasing of every vertex and
    changes sign when the loop is traversed backwards.  A link whose overlap
    has modulus at most 1e-9 is refused as orthogonal.
    """
    states = [_as_state(s) for s in loop]
    if len(states) >= 4 and states[-1].same_ray(states[0], tol=1e-9):
        states = states[:-1]
    if len(states) < 3:
        raise ValueError("a loop needs at least 3 vertices")
    product = complex(1.0)
    n = len(states)
    for k in range(n):
        step = states[(k + 1) % n].overlap(states[k])
        if abs(step) <= 1e-9:
            raise OrthogonalLink(
                f"consecutive states {k} and {(k + 1) % n} are orthogonal"
            )
        product *= step
    return float(np.angle(product))


# ---------------------------------------------------------------------------
# Charts: explicit local coordinates for differentiation on state space
# ---------------------------------------------------------------------------

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class _Chart(RowDomain):
    """Local coordinates on a smoothed state space.

    A chart supplies its open domain, as ``_inside`` (which gives it
    ``contains`` and ``contains_rows``), its state map ``_state``, the
    unsmoothed matrix at one point of that domain, and its divergence kernel
    ``_divergence_rows``.  ``point`` checks one point and returns its state
    smoothed by ``eps``, validated as a ``DensityMatrix``.
    """

    chart_id: str

    def __init__(self, eps: float = 1e-3):
        if not 0.0 < eps < 1.0:
            raise ValueError("smoothing eps must lie in (0, 1)")
        self.eps = float(eps)

    def _state(self, x: np.ndarray) -> np.ndarray:
        """The (m, m) unsmoothed state at the (d,) point ``x``."""
        raise NotImplementedError

    def point(self, x) -> DensityMatrix:
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError(f"{self.chart_id}: {_format_point(x)} outside the chart domain")
        return DensityMatrix(_smooth(self._state(x), self.eps))

    def _divergence_rows(self, kind: str, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """``kind`` ("qre" or "qjsd") from the (n, d) rows P to Q, which lie in
        the domain and broadcast, as (n,) values of at least 0; written in
        closed form from both sides' smoothed spectra, building no matrix."""
        raise NotImplementedError


class BlochChart(_Chart):
    """Bloch-ball coordinates for qubit states: rho = (I + x.sigma)/2."""

    chart_id = "bloch"
    dimension = 3

    def _inside(self, X):
        # the ball lies in the box [-1, 1]^3, so clipping |x| to it changes
        # no answer, and keeps huge coordinates from overflowing the square
        X = np.minimum(np.abs(X), 1.0)
        return (X * X).sum(axis=-1) < 1.0

    def _state(self, x):
        return 0.5 * (np.eye(2, dtype=complex) + sum(x[i] * s for i, s in enumerate(_PAULI)))

    def _divergence_rows(self, kind, P, Q):
        # smoothed Bloch vectors r, s and spectra (1 +- |r|)/2: qre = -h(|r|) - log((1 - s^2)/4)/2 -
        # (r.s) atanh|s|/|s| and qjsd = h(|m|) - (h(|r|) + h(|s|))/2, m = (r + s)/2, for the binary
        # entropy h, written with log 2 - h(t) = t atanh(t) + log(1 - t^2)/2 so the log 2 terms cancel
        r, s = (1.0 - self.eps) * P, (1.0 - self.eps) * Q
        rr, ss, rs = (r * r).sum(-1), (s * s).sum(-1), (r * s).sum(-1)
        if kind == "qre":
            return _nonnegative(rr * _atanh_over(rr) - rs * _atanh_over(ss) + 0.5 * (np.log1p(-rr) - np.log1p(-ss)))
        m = 0.5 * (r + s)
        phi = [t2 * _atanh_over(t2) + 0.5 * np.log1p(-t2) for t2 in (rr, ss, (m * m).sum(-1))]
        return np.maximum(0.5 * (phi[0] + phi[1]) - phi[2], 0.0)


class DiagonalQutritChart(_Chart):
    """Eigenvalue-simplex coordinates for diagonal qutrit states."""

    chart_id = "diag-qutrit"
    dimension = 2

    def _inside(self, X):
        # as for the categorical simplex: clipping |x| to 1 changes no answer
        return (X > 0.0).all(axis=-1) & (np.minimum(np.abs(X), 1.0).sum(axis=-1) < 1.0)

    def _state(self, x):
        return np.diag(_simplex(x)).astype(complex)

    def _divergence_rows(self, kind, P, Q):
        # the states commute: classical KL and JSD of the smoothed spectra,
        # qre with the arithmetic of quantum_relative_entropy, bit for bit
        p, q = ((1.0 - self.eps) * _simplex(X) + self.eps / 3 for X in (P, Q))
        if kind == "qre":
            return _nonnegative((p * (np.log(p) - np.log(q))).sum(axis=-1))
        return _jsd_spectra(p, q, 0.5 * (p + q))


class VeroneseChart(_Chart):
    """Polar qubit coordinates pushed through the Veronese embedding.

    (theta, phi) parametrize the qubit ray cos(theta/2)|0> +
    e^{i phi} sin(theta/2)|1>; the chart point is the smoothed projector onto
    its symmetric two-copy image, i.e. a point of the product-state
    submanifold inside the spin-1 state space.
    """

    chart_id = "veronese"
    dimension = 2

    def _inside(self, X):
        theta, phi = X.T
        return (0.0 < theta) & (theta < math.pi) & (-math.pi < phi) & (phi < math.pi)

    def _state(self, x):
        half, phi = x[0] / 2, x[1]
        nu = veronese_embed([np.cos(half), np.sin(half) * np.exp(1j * phi)]).amplitudes
        return np.outer(nu, nu.conj())

    def _divergence_rows(self, kind, P, Q):
        # spectra {a, b, b}, b = eps/3, a = 1 - eps + b: qre = k3 (1 - c^2) with k3 = (1 - eps) log(a/b) =
        # (1 - eps) log((3 - 2 eps)/eps) and c = (1 + n.m)/2 the qubits' fidelity, Bloch vectors n, m; the
        # mixture's spectrum is (1 - eps)(1 +- c)/2 + b and b.  u = 1 - c = |n - m|^2/4, summed as squares
        (t1, f1), (t2, f2) = P.T, Q.T
        u = np.sin(0.5 * (t1 - t2)) ** 2 + np.sin(t1) * np.sin(t2) * np.sin(0.5 * (f1 - f2)) ** 2
        eps, b = self.eps, self.eps / 3
        if kind == "qre":
            return _nonnegative((1.0 - eps) * (math.log(3.0 - 2.0 * eps) - math.log(eps)) * u * (2.0 - u))
        mixture = [np.full_like(u, b), 0.5 * (1.0 - eps) * u + b, 0.5 * (1.0 - eps) * (2.0 - u) + b]
        state = np.array([b, b, 1.0 - eps + b])
        return _jsd_spectra(state, state, np.stack(mixture, axis=-1))


_CHARTS = {
    "bloch": BlochChart,
    "diag-qutrit": DiagonalQutritChart,
    "veronese": VeroneseChart,
}


class ChartDivergence(DivergenceFamily):
    """A quantum divergence viewed through a chart, for tensor extraction.

    Its kernel is the chart's ``_divergence_rows``; a built-in chart takes
    both sides' rows in closed form from the smoothed spectra, builds no
    matrix and makes no ``eigh``.  The chart's smoothing is the only smoothing
    applied: its states are full rank, so the divergences are finite.
    """

    def __init__(self, chart, kind: str = "qre"):
        if kind not in ("qre", "qjsd"):
            raise ValueError("kind must be 'qre' or 'qjsd'")
        self.chart = chart
        self.kind = kind
        self.family_id = f"{kind}:{chart.chart_id}"
        self.dimension = chart.dimension

    def _inside(self, X):
        return self.chart._inside(X)

    def _divergence(self, P, Q):
        return self.chart._divergence_rows(self.kind, P, Q)


def make_chart_divergence(spec: str, eps: float = 1e-3) -> ChartDivergence:
    """Build a chart divergence from a spec like ``qre:bloch``."""
    kind, _, chart_name = (part.strip().lower() for part in spec.partition(":"))
    if chart_name not in _CHARTS:
        raise ValueError(f"unknown chart {chart_name!r}; choose from {sorted(_CHARTS)}")
    return ChartDivergence(_CHARTS[chart_name](eps=eps), kind=kind)


def parse_amplitudes(text: str) -> PureState:
    """Parse comma-separated complex literals, accepting i or j notation."""
    parts = [p.strip().replace("i", "j") for p in text.split(",") if p.strip()]
    try:
        return PureState([complex(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse amplitudes {text!r}: {exc}") from None

