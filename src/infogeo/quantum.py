"""Rays, density matrices, quantum divergences, and loop holonomy.

Pure states are rays: global phase is unobservable, so equality means the
overlap modulus is 1.  The quadratic Veronese map sends a qubit ray to the
symmetric-subspace ray of its tensor square, the set of two-qubit product
states reachable by acting on each factor identically.

Quantum relative entropy is infinite between states of non-overlapping
support, so every evaluation happens on smoothed states
rho_eps = (1 - eps) rho + eps I/d; the smoothing value always travels with
the result.  A chart supplies only its domain ``_inside`` and its state map
``_state``; the chart base checks, smooths and validates each point.  The
holonomy of a loop of rays is the phase of the cyclic product of successive
overlaps, taken in the order that makes the octant loop |0> -> |x+> -> |y+>
come out at -pi/4 (minus half the enclosed solid angle for the traversal
orientation); reversing the loop flips the sign.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalError, OrthogonalLink
from .families import RowDomain

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
    "density_to_json",
    "density_from_json",
]

_ATOL = 1e-12


class PureState:
    """A unit complex vector modulo global phase."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise ValueError("pure states need dimension >= 2")
        norm = np.linalg.norm(amps)
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
        if np.max(np.abs(m - m.conj().T)) > _ATOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > _ATOL:
            raise ValueError("trace differs from 1 by more than 1e-12")
        if np.linalg.eigvalsh(m).min() < -_ATOL:
            raise ValueError("matrix has an eigenvalue below -1e-12")
        m.setflags(write=False)
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


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
    d = m.shape[0]
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
    a, b = q.amplitudes
    return PureState([a * a, math.sqrt(2.0) * a * b, b * b])


def _checked_eigh(m: np.ndarray):
    w, v = np.linalg.eigh(m)
    residual = np.max(np.abs(m - (v * w) @ v.conj().T))
    if residual > 1e-10:
        raise NumericalError(f"eigendecomposition residual {residual:.3e} > 1e-10")
    return w, v


def _entropy(matrix: np.ndarray) -> float:
    w, _ = _checked_eigh(matrix)
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-(nz * np.log(nz)).sum())


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho log rho] in nats, with 0 log 0 = 0."""
    return _entropy(_as_matrix(rho))


def _relative_entropy_strict(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[rho (log rho - log sigma)] for full-rank inputs."""
    wr, vr = _checked_eigh(rho)
    ws, vs = _checked_eigh(sigma)
    log_rho = (vr * np.log(wr)) @ vr.conj().T
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    value = float(np.trace(rho @ (log_rho - log_sigma)).real)
    if value < 0.0:
        if value < -1e-12:
            raise NumericalError(f"relative entropy came out negative: {value:.3e}")
        value = 0.0
    return value


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
    return _relative_entropy_strict(_smooth(rho, eps), _smooth(sigma, eps))


def quantum_jsd(rho, sigma) -> float:
    """S((rho+sigma)/2) - (S(rho) + S(sigma))/2; symmetric, in [0, log 2]."""
    rho, sigma = _as_matrix(rho), _as_matrix(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} != {sigma.shape}")
    value = _entropy(0.5 * (rho + sigma)) - 0.5 * (_entropy(rho) + _entropy(sigma))
    return max(0.0, value)


def bargmann_phase(loop, min_overlap: float = 1e-9) -> float:
    """Holonomy phase of a closed loop of rays, in (-pi, pi].

    The loop is given by its vertices; the closure back to the first vertex
    is implicit (a repeated final vertex is detected and dropped).  The
    result is invariant under independent rephasing of every vertex and
    changes sign when the loop is traversed backwards.
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
        if abs(step) <= min_overlap:
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

    A chart supplies only its open domain, as ``_inside`` (which gives it
    ``contains`` and ``contains_rows``), and its state map ``_state``, the
    unsmoothed matrix at a point of that domain.  ``point`` checks the point
    and returns the state smoothed by ``eps``.
    """

    chart_id: str

    def __init__(self, eps: float = 1e-3):
        if not 0.0 < eps < 1.0:
            raise ValueError("smoothing eps must lie in (0, 1)")
        self.eps = float(eps)

    def _state(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def point(self, x) -> DensityMatrix:
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError(f"{self.chart_id}: {x} outside the chart domain")
        return DensityMatrix(_smooth(self._state(x), self.eps))


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
        return 0.5 * (np.eye(2, dtype=complex) + sum(c * s for c, s in zip(x, _PAULI)))


class DiagonalQutritChart(_Chart):
    """Eigenvalue-simplex coordinates for diagonal qutrit states."""

    chart_id = "diag-qutrit"
    dimension = 2

    def _inside(self, X):
        # as for the categorical simplex: clipping |x| to 1 changes no answer
        return (X > 0.0).all(axis=-1) & (np.minimum(np.abs(X), 1.0).sum(axis=-1) < 1.0)

    def _state(self, x):
        return np.diag([x[0], x[1], 1.0 - x.sum()]).astype(complex)


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
        theta, phi = x
        nu = veronese_embed([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        return np.outer(nu.amplitudes, nu.amplitudes.conj())


_CHARTS = {
    "bloch": BlochChart,
    "diag-qutrit": DiagonalQutritChart,
    "veronese": VeroneseChart,
}


class ChartDivergence(RowDomain):
    """A quantum divergence viewed through a chart, for tensor extraction.

    Exposes the same (family_id, dimension, contains, divergence) protocol
    as the classical families.  The chart's smoothing is the only smoothing
    applied: chart points are full rank by construction, so relative entropy
    is evaluated directly on them.
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

    def divergence(self, p, q) -> float:
        rho, sigma = self.chart.point(p), self.chart.point(q)
        if self.kind == "qre":
            return _relative_entropy_strict(rho.entries, sigma.entries)
        return quantum_jsd(rho, sigma)


def make_chart_divergence(spec: str, eps: float = 1e-3) -> ChartDivergence:
    """Build a chart divergence from a spec like ``qre:bloch``."""
    kind, _, chart_name = spec.partition(":")
    kind = kind.strip().lower()
    chart_name = chart_name.strip().lower()
    if chart_name not in _CHARTS:
        raise ValueError(
            f"unknown chart {chart_name!r}; choose from {sorted(_CHARTS)}"
        )
    return ChartDivergence(_CHARTS[chart_name](eps=eps), kind=kind)


def parse_amplitudes(text: str) -> PureState:
    """Parse comma-separated complex literals, accepting i or j notation."""
    parts = [p.strip().replace("i", "j") for p in text.split(",") if p.strip()]
    try:
        return PureState([complex(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse amplitudes {text!r}: {exc}") from None


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
