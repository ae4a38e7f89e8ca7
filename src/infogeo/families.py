"""Closed-form divergence families on classical statistical manifolds.

The direction convention is fixed once for the whole package:
``divergence(p, q)`` is the Kullback-Leibler divergence KL(p || q), the
expectation under p of log(dP/dQ).  Every Taylor expansion elsewhere in the
package moves the *second* argument.  In natural coordinates of an
exponential family this convention makes the divergence the Bregman form of
the log-partition function,

    D(p || q) = psi(eta_q) - psi(eta_p) - (eta_q - eta_p) . grad psi(eta_p),

which is the identity the tests use as an oracle.

All operations are pure functions of their arguments; instances hold only
immutable configuration and are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedFamily

__all__ = [
    "Point",
    "DivergenceFamily",
    "ExponentialFamily",
    "GaussianFixedSigma",
    "ExponentialScale",
    "Bernoulli",
    "Categorical",
    "GaussianFull",
    "NaturalChart",
    "NaturalView",
    "score_moment_tensor",
    "natural_chart",
    "natural_view",
    "bregman_divergence",
    "make_family",
    "BUILTIN_FAMILIES",
]


@dataclass(frozen=True)
class Point:
    """Chart coordinates tagged with the family that owns them."""

    coords: tuple
    family_id: str


def _coerce(family, x) -> np.ndarray:
    """Turn ``x`` into a float vector, checking ownership and dimension."""
    if isinstance(x, Point):
        if x.family_id != family.family_id:
            raise ValueError(
                f"point belongs to {x.family_id!r}, not {family.family_id!r}"
            )
        x = x.coords
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size != family.dimension:
        raise ValueError(
            f"{family.family_id}: expected {family.dimension} coordinate(s), "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{family.family_id}: non-finite coordinates {arr}")
    return arr


class DivergenceFamily:
    """A parametric family of states with a chart and a directed divergence.

    Subclasses define the open domain and the closed-form divergence; this
    base class owns validation.  ``fisher`` and ``forward_cubic`` return the
    quadratic and cubic Taylor coefficients of D(p || p + u) at u = 0 in the
    family's default chart, when a closed form exists.
    """

    family_id: str
    dimension: int

    def contains(self, x) -> bool:
        raise NotImplementedError

    def _divergence(self, p: np.ndarray, q: np.ndarray) -> float:
        raise NotImplementedError

    def divergence(self, p, q) -> float:
        p = _coerce(self, p)
        q = _coerce(self, q)
        if not self.contains(p):
            raise DomainError(f"{self.family_id}: first argument {p} outside domain")
        if not self.contains(q):
            raise DomainError(f"{self.family_id}: second argument {q} outside domain")
        if np.array_equal(p, q):
            return 0.0
        return float(self._divergence(p, q))

    def random_interior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Sample ``n`` points from a representative interior region."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.family_id}>"


class ExponentialFamily(DivergenceFamily):
    """Mixin for families with a natural-parameter chart and log-partition."""

    def to_natural(self, x) -> np.ndarray:
        raise NotImplementedError

    def from_natural(self, eta) -> np.ndarray:
        raise NotImplementedError

    def natural_jacobian(self, x) -> np.ndarray:
        """d(natural)/d(default chart), shape (dim, dim)."""
        raise NotImplementedError

    def natural_contains(self, eta) -> bool:
        raise NotImplementedError

    def log_partition(self, eta) -> float:
        raise NotImplementedError

    def mean_from_natural(self, eta) -> np.ndarray:
        """grad psi(eta), the expectation of the sufficient statistic."""
        raise NotImplementedError

    def natural_fisher(self, eta) -> np.ndarray:
        """Hessian of psi(eta); equals the Fisher metric in natural coords."""
        raise NotImplementedError

    def score_moment(self, x) -> np.ndarray:
        """Closed-form third central moment of the sufficient statistic.

        This is E[d_i l d_j l d_k l] in natural coordinates, equal to the
        third derivative tensor of the log-partition function.
        """
        raise NotImplementedError

    def fisher(self, x) -> np.ndarray:
        raise NotImplementedError

    def forward_cubic(self, x) -> np.ndarray:
        """Cubic Taylor coefficient of D(x || x + u) in the default chart."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


class GaussianFixedSigma(ExponentialFamily):
    """Gaussians with a fixed known scale; chart = (mean,).

    D(p || q) = (mu_q - mu_p)^2 / (2 sigma^2), symmetric, so the cubic
    coefficient vanishes identically.
    """

    dimension = 1

    def __init__(self, sigma: float = 1.0):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.family_id = f"gaussian:{self.sigma:g}"

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(np.isfinite(x)))

    def _divergence(self, p, q):
        return (q[0] - p[0]) ** 2 / (2.0 * self.sigma**2)

    def fisher(self, x):
        return np.array([[1.0 / self.sigma**2]])

    def forward_cubic(self, x):
        return np.zeros((1, 1, 1))

    # natural chart: eta = mu / sigma^2, psi(eta) = sigma^2 eta^2 / 2
    def to_natural(self, x):
        return _coerce(self, x) / self.sigma**2

    def from_natural(self, eta):
        return np.atleast_1d(np.asarray(eta, dtype=float)) * self.sigma**2

    def natural_jacobian(self, x):
        return np.array([[1.0 / self.sigma**2]])

    def natural_contains(self, eta) -> bool:
        return bool(np.all(np.isfinite(np.asarray(eta, dtype=float))))

    def log_partition(self, eta):
        return 0.5 * self.sigma**2 * float(np.atleast_1d(eta)[0]) ** 2

    def mean_from_natural(self, eta):
        return self.from_natural(eta)

    def natural_fisher(self, eta):
        return np.array([[self.sigma**2]])

    def score_moment(self, x):
        return np.zeros((1, 1, 1))

    def random_interior(self, rng, n):
        return rng.uniform(-3.0, 3.0, size=(n, 1))

    def _quad_stats(self, x, order):
        mu = float(_coerce(self, x)[0])
        nodes, weights = np.polynomial.legendre.leggauss(order)
        half = 12.0 * self.sigma
        xs = mu + half * nodes
        pdf = np.exp(-((xs - mu) ** 2) / (2 * self.sigma**2)) / (
            self.sigma * math.sqrt(2 * math.pi)
        )
        w = weights * half * pdf
        return w, xs[:, None]


class ExponentialScale(ExponentialFamily):
    """Exponential distributions theta * exp(-theta x); chart = (rate,).

    D(p || q) = log(theta_p / theta_q) + theta_q / theta_p - 1.
    """

    family_id = "exponential"
    dimension = 1

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(np.isfinite(x)) and x[0] > 0.0)

    def _divergence(self, p, q):
        return math.log(p[0] / q[0]) + q[0] / p[0] - 1.0

    def fisher(self, x):
        return np.array([[1.0 / x[0] ** 2]])

    def forward_cubic(self, x):
        return np.full((1, 1, 1), -2.0 / x[0] ** 3)

    # natural chart: eta = -theta, psi(eta) = -log(-eta)
    def to_natural(self, x):
        return -_coerce(self, x)

    def from_natural(self, eta):
        return -np.atleast_1d(np.asarray(eta, dtype=float))

    def natural_jacobian(self, x):
        return np.array([[-1.0]])

    def natural_contains(self, eta) -> bool:
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return bool(np.all(np.isfinite(eta)) and eta[0] < 0.0)

    def log_partition(self, eta):
        return -math.log(-float(np.atleast_1d(eta)[0]))

    def mean_from_natural(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return -1.0 / eta

    def natural_fisher(self, eta):
        e = float(np.atleast_1d(eta)[0])
        return np.array([[1.0 / e**2]])

    def score_moment(self, x):
        # psi'''(eta) = -2/eta^3 = 2/theta^3
        return np.full((1, 1, 1), 2.0 / _coerce(self, x)[0] ** 3)

    def random_interior(self, rng, n):
        return np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=(n, 1)))

    def _quad_stats(self, x, order):
        theta = float(_coerce(self, x)[0])
        nodes, weights = np.polynomial.legendre.leggauss(order)
        # truncate the tail at 40 mean lifetimes; mass beyond is < e^-40
        upper = 40.0 / theta
        xs = 0.5 * upper * (nodes + 1.0)
        w = weights * 0.5 * upper * theta * np.exp(-theta * xs)
        return w, xs[:, None]


class Bernoulli(ExponentialFamily):
    """Bernoulli family; chart = (success probability,).

    Probabilities within ``margin`` of {0, 1} are rejected with DomainError
    rather than clamped: the divergence blows up at the boundary and a loud
    failure beats NaN propagation.
    """

    family_id = "bernoulli"
    dimension = 1

    def __init__(self, margin: float = 1e-9):
        if not 0 < margin < 0.5:
            raise ValueError("margin must be in (0, 0.5)")
        self.margin = float(margin)

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(
            np.all(np.isfinite(x)) and self.margin < x[0] < 1.0 - self.margin
        )

    def _divergence(self, p, q):
        a, b = p[0], q[0]
        return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))

    def fisher(self, x):
        a = x[0]
        return np.array([[1.0 / (a * (1.0 - a))]])

    def forward_cubic(self, x):
        a = x[0]
        return np.full((1, 1, 1), 2.0 / (1.0 - a) ** 2 - 2.0 / a**2)

    def to_natural(self, x):
        a = _coerce(self, x)[0]
        return np.array([math.log(a / (1.0 - a))])

    def from_natural(self, eta):
        t = float(np.atleast_1d(eta)[0])
        # numerically stable logistic
        p = 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))
        return np.array([p])

    def natural_jacobian(self, x):
        a = _coerce(self, x)[0]
        return np.array([[1.0 / (a * (1.0 - a))]])

    def natural_contains(self, eta) -> bool:
        return bool(np.all(np.isfinite(np.asarray(eta, dtype=float))))

    def log_partition(self, eta):
        return float(np.logaddexp(0.0, float(np.atleast_1d(eta)[0])))

    def mean_from_natural(self, eta):
        return self.from_natural(eta)

    def natural_fisher(self, eta):
        p = self.from_natural(eta)[0]
        return np.array([[p * (1.0 - p)]])

    def score_moment(self, x):
        a = _coerce(self, x)[0]
        return np.full((1, 1, 1), a * (1.0 - a) * (1.0 - 2.0 * a))

    def outcomes(self, x) -> Iterable[tuple[float, np.ndarray]]:
        """(probability, sufficient statistic) pairs for exact summation."""
        a = _coerce(self, x)[0]
        return [(1.0 - a, np.array([0.0])), (a, np.array([1.0]))]

    def random_interior(self, rng, n):
        return rng.uniform(0.05, 0.95, size=(n, 1))


class Categorical(ExponentialFamily):
    """Categorical distribution on k outcomes; chart = first k-1 probabilities."""

    def __init__(self, k: int, margin: float = 1e-9):
        if k < 2:
            raise ValueError("need at least two outcomes")
        if not 0 < margin < 1.0 / k:
            raise ValueError("margin too large for this k")
        self.k = int(k)
        self.dimension = self.k - 1
        self.margin = float(margin)
        self.family_id = f"categorical:{self.k}"

    def _full(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.concatenate([x, [1.0 - x.sum()]])

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(x)) or x.size != self.dimension:
            return False
        full = self._full(x)
        return bool(np.all(full > self.margin))

    def _divergence(self, p, q):
        fp, fq = self._full(p), self._full(q)
        return float(np.sum(fp * np.log(fp / fq)))

    def fisher(self, x):
        full = self._full(_coerce(self, x))
        d = self.dimension
        return np.diag(1.0 / full[:d]) + 1.0 / full[-1]

    def forward_cubic(self, x):
        full = self._full(_coerce(self, x))
        d = self.dimension
        t = np.full((d, d, d), 2.0 / full[-1] ** 2)
        for i in range(d):
            t[i, i, i] -= 2.0 / full[i] ** 2
        return t

    def to_natural(self, x):
        full = self._full(_coerce(self, x))
        return np.log(full[: self.dimension] / full[-1])

    def from_natural(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        z = np.concatenate([eta, [0.0]])
        z -= z.max()  # stable softmax
        w = np.exp(z)
        return (w / w.sum())[: self.dimension]

    def natural_jacobian(self, x):
        full = self._full(_coerce(self, x))
        d = self.dimension
        return np.diag(1.0 / full[:d]) + 1.0 / full[-1]

    def natural_contains(self, eta) -> bool:
        return bool(np.all(np.isfinite(np.asarray(eta, dtype=float))))

    def log_partition(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        m = max(0.0, float(eta.max()))
        return m + math.log(math.exp(-m) + np.exp(eta - m).sum())

    def mean_from_natural(self, eta):
        return self.from_natural(eta)

    def natural_fisher(self, eta):
        p = self.from_natural(eta)
        return np.diag(p) - np.outer(p, p)

    def score_moment(self, x):
        # third joint cumulant of the one-hot indicator vector
        p = _coerce(self, x)
        d = self.dimension
        t = 2.0 * np.einsum("i,j,k->ijk", p, p, p)
        eye = np.eye(d)
        t -= np.einsum("ij,i,k->ijk", eye, p, p)
        t -= np.einsum("jk,j,i->ijk", eye, p, p)
        t -= np.einsum("ik,i,j->ijk", eye, p, p)
        for i in range(d):
            t[i, i, i] += p[i]
        return t

    def outcomes(self, x):
        full = self._full(_coerce(self, x))
        eye = np.eye(self.k)
        return [(float(full[i]), eye[i, : self.dimension]) for i in range(self.k)]

    def random_interior(self, rng, n):
        raw = rng.dirichlet(np.ones(self.k), size=n)
        mixed = 0.9 * raw + 0.1 / self.k  # keep clear of the boundary
        return mixed[:, : self.dimension]


class GaussianFull(ExponentialFamily):
    """Univariate Gaussians; chart = (mean, standard deviation)."""

    family_id = "gaussian-full"
    dimension = 2

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(np.isfinite(x)) and x.size == 2 and x[1] > 0.0)

    def _divergence(self, p, q):
        mp, sp = p
        mq, sq = q
        return (
            math.log(sq / sp) + (sp**2 + (mp - mq) ** 2) / (2.0 * sq**2) - 0.5
        )

    def fisher(self, x):
        s = x[1]
        return np.diag([1.0 / s**2, 2.0 / s**2])

    def forward_cubic(self, x):
        s = x[1]
        t = np.zeros((2, 2, 2))
        for perm in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            t[perm] = -2.0 / s**3
        t[1, 1, 1] = -10.0 / s**3
        return t

    # natural chart: eta = (mu/sigma^2, -1/(2 sigma^2)), stats (x, x^2)
    def to_natural(self, x):
        m, s = _coerce(self, x)
        return np.array([m / s**2, -1.0 / (2.0 * s**2)])

    def from_natural(self, eta):
        e1, e2 = np.atleast_1d(np.asarray(eta, dtype=float))
        s2 = -1.0 / (2.0 * e2)
        return np.array([e1 * s2, math.sqrt(s2)])

    def natural_jacobian(self, x):
        m, s = _coerce(self, x)
        return np.array([[1.0 / s**2, -2.0 * m / s**3], [0.0, 1.0 / s**3]])

    def natural_contains(self, eta) -> bool:
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return bool(np.all(np.isfinite(eta)) and eta.size == 2 and eta[1] < 0.0)

    def log_partition(self, eta):
        e1, e2 = np.atleast_1d(np.asarray(eta, dtype=float))
        return -(e1**2) / (4.0 * e2) - 0.5 * math.log(-2.0 * e2)

    def mean_from_natural(self, eta):
        m, s = self.from_natural(eta)
        return np.array([m, m**2 + s**2])

    def natural_fisher(self, eta):
        m, s = self.from_natural(eta)
        return np.array(
            [[s**2, 2.0 * m * s**2], [2.0 * m * s**2, 4.0 * m**2 * s**2 + 2.0 * s**4]]
        )

    def score_moment(self, x):
        m, s = _coerce(self, x)
        t = np.zeros((2, 2, 2))
        t112 = 2.0 * s**4
        t122 = 8.0 * m * s**4
        for perm in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            t[perm] = t112
        for perm in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            t[perm] = t122
        t[1, 1, 1] = 24.0 * m**2 * s**4 + 8.0 * s**6
        return t

    def random_interior(self, rng, n):
        mu = rng.uniform(-2.0, 2.0, size=n)
        sig = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=n))
        return np.column_stack([mu, sig])

    def _quad_stats(self, x, order):
        m, s = _coerce(self, x)
        nodes, weights = np.polynomial.legendre.leggauss(order)
        half = 12.0 * s
        xs = m + half * nodes
        pdf = np.exp(-((xs - m) ** 2) / (2 * s**2)) / (s * math.sqrt(2 * math.pi))
        w = weights * half * pdf
        return w, np.column_stack([xs, xs**2])


# ---------------------------------------------------------------------------
# Chart machinery and module-level operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaturalChart:
    """Forward/inverse map between a family's default and natural charts."""

    family_id: str
    forward: Callable[[Sequence[float]], np.ndarray]
    inverse: Callable[[Sequence[float]], np.ndarray]
    jacobian: Callable[[Sequence[float]], np.ndarray]


class NaturalView:
    """The same family re-parametrized by its natural coordinates.

    Exposes the (family_id, dimension, contains, divergence) protocol the
    extraction module works on, so tensors can be extracted directly in the
    chart where the score-moment oracle lives.  In this chart the closed-form
    ``fisher`` is the Hessian of the log-partition and ``forward_cubic``
    coincides with the score moment.
    """

    def __init__(self, family: ExponentialFamily):
        if not isinstance(family, ExponentialFamily):
            raise UnsupportedFamily(f"{family!r} has no natural chart")
        self.family = family
        self.family_id = family.family_id + ":natural"
        self.dimension = family.dimension

    def contains(self, eta) -> bool:
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if eta.size != self.dimension or not np.all(np.isfinite(eta)):
            return False
        return self.family.natural_contains(eta)

    def divergence(self, p, q) -> float:
        return self.family.divergence(
            self.family.from_natural(p), self.family.from_natural(q)
        )

    def fisher(self, eta):
        return self.family.natural_fisher(eta)

    def forward_cubic(self, eta):
        return self.family.score_moment(self.family.from_natural(eta))

    def random_interior(self, rng, n):
        pts = self.family.random_interior(rng, n)
        return np.array([self.family.to_natural(p) for p in pts])

    def __repr__(self):
        return f"<NaturalView of {self.family.family_id}>"


def natural_chart(family: ExponentialFamily) -> NaturalChart:
    """Chart transform between the default and natural parametrizations."""
    if not isinstance(family, ExponentialFamily):
        raise UnsupportedFamily(f"{family!r} is not an exponential family")
    return NaturalChart(
        family_id=family.family_id,
        forward=family.to_natural,
        inverse=family.from_natural,
        jacobian=family.natural_jacobian,
    )


def natural_view(family: ExponentialFamily) -> NaturalView:
    return NaturalView(family)


def score_moment_tensor(
    family: ExponentialFamily, p, method: str = "closed", quad_order: int = 64
) -> np.ndarray:
    """Third score moment E[d_i l d_j l d_k l] in natural coordinates.

    Methods:
      closed      closed-form third cumulant (default; exact)
      sum         exact summation over outcomes (discrete families)
      quadrature  Gauss-Legendre with ``quad_order`` nodes (continuous
                  families; the integration window is wide enough that the
                  truncated tail mass is below e^-40, and the integrand is a
                  polynomial times the density, so the quadrature error is
                  negligible at order 64)
    """
    if not isinstance(family, ExponentialFamily):
        raise UnsupportedFamily(
            f"{getattr(family, 'family_id', family)!r} has no score-moment oracle"
        )
    x = _coerce(family, p)
    if not family.contains(x):
        raise DomainError(f"{family.family_id}: {x} outside domain")
    if method == "closed":
        return family.score_moment(x)
    if method == "sum":
        if not hasattr(family, "outcomes"):
            raise UnsupportedFamily(
                f"{family.family_id} is not discrete; use closed or quadrature"
            )
        probs, stats = zip(*family.outcomes(x))
        w = np.asarray(probs)
        t = np.asarray(stats, dtype=float)
        return _central_third(w, t)
    if method == "quadrature":
        if not hasattr(family, "_quad_stats"):
            raise UnsupportedFamily(
                f"{family.family_id} has no quadrature rule; use closed or sum"
            )
        w, t = family._quad_stats(x, quad_order)
        return _central_third(w, t)
    raise ValueError(f"unknown method {method!r}")


def _central_third(weights: np.ndarray, stats: np.ndarray) -> np.ndarray:
    mean = weights @ stats / weights.sum()
    c = stats - mean
    return np.einsum("n,ni,nj,nk->ijk", weights, c, c, c) / weights.sum()


def bregman_divergence(family: ExponentialFamily, p, q) -> float:
    """psi(eta_q) - psi(eta_p) - (eta_q - eta_p) . grad psi(eta_p).

    Identity oracle: equals ``family.divergence(p, q)`` for every
    exponential-family member.
    """
    ep = family.to_natural(p)
    eq = family.to_natural(q)
    return (
        family.log_partition(eq)
        - family.log_partition(ep)
        - float((eq - ep) @ family.mean_from_natural(ep))
    )


BUILTIN_FAMILIES = ("gaussian", "exponential", "bernoulli", "categorical", "gaussian-full")


def make_family(spec: str, margin: float = 1e-9) -> DivergenceFamily:
    """Build a family from its CLI spec string.

    Grammar: ``gaussian[:sigma]``, ``exponential``, ``bernoulli``,
    ``categorical:k``, ``gaussian-full``.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "gaussian":
        return GaussianFixedSigma(float(arg) if arg else 1.0)
    if name == "exponential":
        return ExponentialScale()
    if name == "bernoulli":
        return Bernoulli(margin=margin)
    if name == "categorical":
        if not arg:
            raise ValueError("categorical needs an outcome count, e.g. categorical:3")
        return Categorical(int(arg), margin=margin)
    if name == "gaussian-full":
        return GaussianFull()
    raise ValueError(f"unknown family {spec!r}; choose from {BUILTIN_FAMILIES}")
