"""Closed-form divergence families on classical statistical manifolds.

The direction convention is fixed once for the whole package:
``divergence(p, q)`` is the Kullback-Leibler divergence KL(p || q), the
expectation under p of log(dP/dQ).  Every Taylor expansion elsewhere in the
package moves the *second* argument.  In natural coordinates of an
exponential family this convention makes the divergence the Bregman form of
the log-partition function,

    D(p || q) = psi(eta_q) - psi(eta_p) - (eta_q - eta_p) . grad psi(eta_p),

which is the identity the tests use as an oracle.

In a default chart x, with eta = eta(x) and mu = grad psi(eta), it reads
D(x || x + u) = psi(eta(x + u)) - psi(eta) - mu . (eta(x + u) - eta).  The
grad psi terms cancel at u = 0, so with J = d eta / dx and H = d^2 eta / dx^2
(natural index first) the chain rule relates the Taylor coefficients of the
two charts (Amari & Nagaoka, Methods of Information Geometry, 2000, ch. 2-3):

    g_ij  = psi''_ab J_ai J_bj
    T_ijk = psi'''_abc J_ai J_bj J_ck
            + psi''_ab (H_aij J_bk + H_aik J_bj + H_ajk J_bi)

The second term of T, from a chart not affine in eta, is why T is not a
tensor across charts: in the Bernoulli mean chart it is -3 times the first,
so T is -2 times the transported score moment.  Each family writes its
default-chart g and T as read off the expansion of its own divergence, and
the tests check that they satisfy this relation, with psi'' and psi''' from
the natural view.

All operations are pure functions of their arguments; instances hold only
immutable configuration and are safe to share across threads.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedFamily

__all__ = [
    "RowDomain",
    "DivergenceFamily",
    "ExponentialFamily",
    "GaussianFixedSigma",
    "ExponentialScale",
    "Bernoulli",
    "Categorical",
    "GaussianFull",
    "NaturalView",
    "score_moment_tensor",
    "natural_view",
    "bregman_divergence",
    "make_family",
    "BUILTIN_FAMILIES",
]


def _format_point(x) -> str:
    """A point as the text of ``str``, on one line however many coordinates it has."""
    return np.array2string(np.asarray(x), max_line_width=sys.maxsize)


def _outside(owner, what: str, x) -> DomainError:
    """The DomainError naming, as ``what``, the point ``x`` outside ``owner``'s domain."""
    return DomainError(f"{owner.family_id}: {what} {_format_point(x)} outside domain")


def _refuse_rows(owner, X, inside, what: str) -> None:
    """DomainError naming, as ``what``, the first row of ``X`` that the
    (n,) bool ``inside`` marks outside ``owner``'s domain."""
    inside = inside.tolist()
    if not all(inside):
        raise _outside(owner, what, X[inside.index(False)])


class RowDomain:
    """An open domain written once, as the predicate ``_inside(X)``.

    ``_inside`` answers over the last axis: for a point of shape (d,) it
    returns one truth value, for a stack of shape (n, d) one per row.  The
    scalar ``contains(x)`` and the batched ``contains_rows(X)`` are built on
    it, and both answer False for a point of the wrong width.  Predicates
    compare rather than compute where they can, so NaN and infinite
    coordinates fall outside without floating-point warnings.
    """

    dimension: int

    def _inside(self, X: np.ndarray):
        raise NotImplementedError

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return x.shape == (self.dimension,) and bool(self._inside(x))

    def contains_rows(self, X) -> np.ndarray:
        """Which rows of the (n, d) array ``X`` lie in the domain, as (n,) bool."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected an (n, d) array of points, got shape {X.shape}")
        if X.shape[1] != self.dimension:
            return np.zeros(X.shape[0], dtype=bool)
        return self._inside(X)


def _tensor(entries: list, shape: tuple) -> np.ndarray:
    """The tensor of ``shape`` over the last axes with C-order ``entries``: floats, or arrays over the first axes."""
    entries = np.broadcast_arrays(*entries)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + shape)


def _one_coordinate(orders: tuple, g: np.ndarray, t: np.ndarray) -> list:
    """The closed forms of each order in ``orders`` of a one-coordinate chart
    whose g and T at n rows are the (n, 1) columns ``g`` and ``t``."""
    return [(g if order == 2 else t).reshape((-1,) + (1,) * order) for order in orders]


def _simplex(X: np.ndarray) -> np.ndarray:
    """(..., k) simplex coordinates completed to (..., k + 1) probabilities."""
    return np.concatenate([X, 1.0 - X.sum(axis=-1, keepdims=True)], axis=-1)


class DivergenceFamily(RowDomain):
    """A directed divergence on a chart: a classical family, a natural view
    or a quantum chart divergence.

    A subclass writes its whole open domain as ``_inside`` and its
    divergence as ``_divergence(Y_P, Y_Q)``.  ``_rows(X)`` is the one
    domain pass over (n, d) rows X: it gives which rows lie in the domain
    and the rows Y that ``_divergence`` is written on, X itself for a family
    or a quantum chart and the family's points for a natural view.
    ``divergence_rows(P, Q)`` is the checked public entry: it makes one
    ``_rows`` pass over each side, then evaluates the rows through
    ``_values(P, Q, Y_P, Y_Q)``, the one unchecked kernel, which gives
    exactly 0.0 for a row with p == q, refuses an overflow naming p and q,
    and clips rounding below zero.  ``divergence(p, q)`` is its one-row
    case.  The engines check every row they evaluate in one ``_rows`` pass
    and keep its Y, so they call ``_values`` directly, and each row is
    checked and mapped once.  A family and its natural view have their
    tensors in closed form too, in the same shape (``_ClosedForms``).
    """

    family_id: str

    def _divergence(self, P: np.ndarray, Q: np.ndarray):
        raise NotImplementedError

    def divergence(self, p, q) -> float:
        """D(p || q) for two points of ``dimension`` coordinates each."""
        p, q = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (p, q))
        for x in (p, q):
            if x.shape != (self.dimension,):
                raise ValueError(
                    f"{self.family_id}: expected {self.dimension} coordinate(s), got shape {x.shape}"
                )
        return float(self.divergence_rows(p, q)[0])

    def divergence_rows(self, P, Q) -> np.ndarray:
        """D(P[i] || Q[i]) over the rows of P and Q, broadcast to (n, d).

        Raises ValueError for rows of the wrong width, DomainError naming
        the first row outside the domain, and NumericalError naming the
        first pair whose divergence overflows, with no floating-point warning.
        A value that rounds below zero comes back as zero.
        """
        return self._values(*self._checked_rows(P, Q))

    def _rows(self, X: np.ndarray) -> tuple:
        """(inside, Y): which rows of the float (n, d) array X lie in the
        domain, as (n,) bool, and the rows ``_divergence`` is written on."""
        return self._inside(X), X

    def _checked_rows(self, P, Q) -> tuple:
        """P and Q as float arrays of rows, each row checked against the
        domain, then the rows ``_rows`` maps each of them to."""
        P, Q = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (P, Q))
        mapped = []
        for which, X in (("first", P), ("second", Q)):
            if X.ndim != 2 or X.shape[1] != self.dimension:
                raise ValueError(
                    f"{self.family_id}: expected rows of {self.dimension} coordinate(s), got shape {X.shape}"
                )
            mapped.append(self._refuse_outside(X, f"{which} argument"))
        return (P, Q, *mapped)

    def _refuse_outside(self, X: np.ndarray, what: str) -> np.ndarray:
        """The rows ``_rows`` maps the float (n, d) array ``X`` to, else
        DomainError naming, as ``what``, the first row outside the domain;
        an array of the wrong width or of more axes has no row inside."""
        inside, Y = self._rows(X) if X.ndim == 2 and X.shape[1] == self.dimension else (np.zeros(len(X), bool), X)
        _refuse_rows(self, X, inside, what)
        return Y

    def _values(self, P: np.ndarray, Q: np.ndarray, YP: np.ndarray, YQ: np.ndarray) -> np.ndarray:
        """``divergence_rows`` without its checks: float (n, d) rows of P and
        Q, broadcast, that the caller has checked against the domain, and
        the rows YP and YQ that ``_rows`` maps them to."""
        with np.errstate(all="ignore"):
            values = np.where((P == Q).all(axis=-1), 0.0, self._divergence(YP, YQ))
        finite = np.isfinite(values)
        if not finite.all():
            p, q = (_format_point(X[finite.argmin()]) for X in np.broadcast_arrays(P, Q))
            raise NumericalError(f"{self.family_id}: the divergence from {p} to {q} overflows the float range")
        return np.maximum(values, 0.0, out=values)

    def __repr__(self):
        return f"<{type(self).__name__} {self.family_id}>"


class _ClosedForms(DivergenceFamily):
    """A divergence whose metric g and cubic T, the quadratic and cubic Taylor
    coefficients of D(p || p + u) at u = 0, have closed forms.

    A subclass writes them once as ``_closed(X, orders)``, over (n, d) rows
    checked against the domain: in one pass, g (n, d, d) for each order 2
    and T (n, d, d, d) for each order 3 in ``orders``.  Each is exactly
    symmetric as written: an entry and its permutations are one computation.
    ``_closed_rows`` is the one unchecked kernel: it refuses the first
    tensor, in the order given, where a row overflows with NumericalError.
    The engines call it on rows they have checked; the public ``fisher(x)``
    and ``forward_cubic(x)`` are its checked one-row case.
    """

    def _point(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self._refuse_outside(x[None], "point")
        return x

    def _closed_rows(self, X: np.ndarray, orders: tuple) -> list:
        with np.errstate(all="ignore"):
            tensors = self._closed(X, orders)
        for t in tensors:
            finite = np.isfinite(t.reshape(len(t), -1)).all(axis=1)
            if not finite.all():
                x = _format_point(X[finite.argmin()])
                raise NumericalError(f"{self.family_id}: the closed-form tensor at {x} overflows the float range")
        return tensors

    def fisher(self, x) -> np.ndarray:
        """Quadratic Taylor coefficient g of D(x || x + u)."""
        return self._closed_rows(self._point(x)[None], (2,))[0][0]

    def forward_cubic(self, x) -> np.ndarray:
        """Cubic Taylor coefficient T of D(x || x + u)."""
        return self._closed_rows(self._point(x)[None], (3,))[0][0]


class ExponentialFamily(_ClosedForms):
    """A family with a natural chart eta(x) and a log-partition function psi.

    A family supplies ``_inside``, ``_divergence``, its default-chart closed
    forms ``_closed`` (``_ClosedForms``), the unchecked inverse chart
    ``from_natural``, whose preimage of the family's domain is the natural
    domain, and these unchecked bodies, all over the last axis, on
    default-chart rows x that their caller has coerced and checked against
    the family's domain (a (d,) point is one row):

        _to_natural(x)           eta
        _natural_jacobian(x)     J = d eta / dx, (d, d), natural index first
        _natural_fisher(x)       psi'' at eta(x), (d, d)
        _score_moment(x)         psi''' at eta(x), (d, d, d)

    and, on one point, ``_log_partition(eta)`` (psi) and
    ``_mean_from_natural(eta)`` (grad psi).  The public ``to_natural``,
    ``natural_jacobian``, ``fisher`` and ``forward_cubic`` raise DomainError
    off the default chart's domain.
    """

    def to_natural(self, x) -> np.ndarray:
        return self._to_natural(self._point(x))

    def natural_jacobian(self, x) -> np.ndarray:
        """d(natural)/d(default chart), shape (dim, dim)."""
        return self._natural_jacobian(self._point(x))


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
        sigma = float(sigma)
        # the divergence and its tensors divide by sigma^2
        if not (sigma > 0.0 and np.finfo(float).tiny <= sigma * sigma < math.inf):
            raise ValueError(f"sigma must be positive, with a finite normal square; got {sigma:g}")
        self.sigma = sigma
        self.family_id = f"gaussian:{self.sigma:g}"

    def _inside(self, X):
        return np.isfinite(X.T[0])

    def _divergence(self, P, Q):
        return (Q.T[0] - P.T[0]) ** 2 / (2.0 * self.sigma**2)

    def _closed(self, X, orders):
        # D(x || x + u) = u^2 / (2 sigma^2): g = 1 / sigma^2 and T = 0
        return _one_coordinate(orders, np.full(X.shape, 1.0 / self.sigma**2), np.zeros(X.shape))

    # natural chart: eta = mu / sigma^2, psi(eta) = sigma^2 eta^2 / 2
    def _to_natural(self, x):
        return x / self.sigma**2

    def from_natural(self, eta):
        return np.atleast_1d(np.asarray(eta, dtype=float)) * self.sigma**2

    def _natural_jacobian(self, x):
        return np.full(x.shape[:-1] + (1, 1), 1.0 / self.sigma**2)

    def _log_partition(self, eta):
        return 0.5 * self.sigma**2 * eta[0] ** 2

    _mean_from_natural = from_natural

    def _natural_fisher(self, x):
        return np.full(x.shape[:-1] + (1, 1), self.sigma**2)

    def _score_moment(self, x):
        return np.zeros(x.shape[:-1] + (1, 1, 1))

    def random_interior(self, rng, n):
        return rng.uniform(-3.0, 3.0, size=(n, 1))


class ExponentialScale(ExponentialFamily):
    """Exponential distributions theta * exp(-theta x); chart = (rate,).

    D(p || q) = log(theta_p / theta_q) + theta_q / theta_p - 1.
    """

    family_id = "exponential"
    dimension = 1

    def _inside(self, X):
        theta = X.T[0]
        return (0.0 < theta) & (theta < math.inf)

    def _divergence(self, P, Q):
        a, b = P.T[0], Q.T[0]
        return np.log(a / b) + b / a - 1.0

    def _closed(self, X, orders):
        # D(x || x + u) = u/x - log(1 + u/x): g = 1/x^2 and T = -2/x^3
        return _one_coordinate(orders, 1.0 / X**2, -2.0 / X**3)

    # natural chart: eta = -theta, psi(eta) = -log(-eta)
    def _to_natural(self, x):
        return -x

    def from_natural(self, eta):
        return -np.atleast_1d(np.asarray(eta, dtype=float))

    def _natural_jacobian(self, x):
        return np.full(x.shape[:-1] + (1, 1), -1.0)

    def _log_partition(self, eta):
        return -math.log(-eta[0])

    def _mean_from_natural(self, eta):
        return -1.0 / eta

    def _natural_fisher(self, x):
        # psi''(eta) = 1/eta^2 = 1/theta^2
        return (1.0 / x**2)[..., None]

    def _score_moment(self, x):
        # psi'''(eta) = -2/eta^3 = 2/theta^3
        return (2.0 / x**3)[..., None, None]

    def random_interior(self, rng, n):
        return np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=(n, 1)))


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

    def _inside(self, X):
        a = X.T[0]
        return (self.margin < a) & (a < 1.0 - self.margin)

    def _divergence(self, P, Q):
        a, b = P.T[0], Q.T[0]
        return a * np.log(a / b) + (1.0 - a) * np.log((1.0 - a) / (1.0 - b))

    def _closed(self, X, orders):
        # D(x || x + u) = -x log(1 + u/x) - (1 - x) log(1 - u/(1 - x)), so with
        # w = x (1 - x), g = 1/w and T = 2/(1 - x)^2 - 2/x^2 = 2 (2x - 1)/w^2
        w = X * (1.0 - X)
        return _one_coordinate(orders, 1.0 / w, 2.0 * (2.0 * X - 1.0) / w**2)

    def _to_natural(self, x):
        return np.log(x / (1.0 - x))

    def from_natural(self, eta):
        t = np.atleast_1d(np.asarray(eta, dtype=float))
        # numerically stable logistic
        e = np.exp(-np.abs(t))
        return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def _natural_jacobian(self, x):
        return (1.0 / (x * (1.0 - x)))[..., None]

    def _log_partition(self, eta):
        return np.logaddexp(0.0, eta[0])

    _mean_from_natural = from_natural

    def _natural_fisher(self, x):
        return (x * (1.0 - x))[..., None]

    def _score_moment(self, x):
        return (x * (1.0 - x) * (1.0 - 2.0 * x))[..., None, None]

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

    def _inside(self, X):
        # the simplex lies in the unit box, so clipping |x| to 1 changes no
        # answer, and keeps infinite or huge coordinates out of the sum
        last = 1.0 - np.minimum(np.abs(X), 1.0).sum(axis=-1)
        return (X > self.margin).all(axis=-1) & (last > self.margin)

    def _divergence(self, P, Q):
        fp, fq = _simplex(P), _simplex(Q)
        return np.sum(fp * np.log(fp / fq), axis=-1)

    def _closed(self, X, orders):
        # D(x || x + u) = -sum_i p_i log(1 + u_i/p_i) - p_k log(1 - sum u/p_k), p_k
        # = 1 - sum x: g_ij = delta_ij/p_i + 1/p_k, T_ijk = 2/p_k^2 - delta_ijk 2/p_i^2,
        # its diagonal a product that keeps its digits where p_i is near p_k
        full = _simplex(X)
        p, last = full[:, :-1], full[:, -1:]
        tensors = []
        for order in orders:
            if order == 2:
                tensors.append(np.eye(self.dimension) / p[:, None, :] + (1.0 / last)[..., None])
                continue
            t = np.full((len(X),) + (self.dimension,) * 3, (2.0 / last**2)[..., None, None])
            t[(slice(None),) + (np.arange(self.dimension),) * 3] = 2.0 * (p - last) * (p + last) / (p * last) ** 2
            tensors.append(t)
        return tensors

    def _to_natural(self, x):
        full = _simplex(x)
        return np.log(full[..., :-1] / full[..., -1:])

    def from_natural(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        z = np.concatenate([eta, np.zeros(eta.shape[:-1] + (1,))], axis=-1)
        z -= z.max(axis=-1, keepdims=True)  # stable softmax
        w = np.exp(z)
        return (w / w.sum(axis=-1, keepdims=True))[..., : self.dimension]

    def _natural_jacobian(self, x):
        full = _simplex(x)
        return np.eye(self.dimension) * (1.0 / full[..., None, :-1]) + (1.0 / full[..., -1:])[..., None]

    def _log_partition(self, eta):
        m = max(0.0, float(eta.max()))
        return m + math.log(math.exp(-m) + np.exp(eta - m).sum())

    _mean_from_natural = from_natural

    def _natural_fisher(self, p):
        return np.eye(self.dimension) * p[..., None, :] - p[..., :, None] * p[..., None, :]

    def _score_moment(self, p):
        # third joint cumulant of the one-hot indicator vector, each entry taken
        # at its sorted index a <= b <= c, so exactly symmetric: 2 p_a p_b p_c, less
        # p_a p_c, p_b p_a and p_a p_b where a = b, b = c and a = c, plus p_a where a = c
        i, j, k = np.ogrid[: self.dimension, : self.dimension, : self.dimension]
        a, c = np.minimum(np.minimum(i, j), k), np.maximum(np.maximum(i, j), k)
        b = i + j + k - a - c
        pa, pb, pc = p[..., a], p[..., b], p[..., c]
        t = 2.0 * (pa * pb * pc) - (a == b) * (pa * pc) - (b == c) * (pb * pa) - (a == c) * (pa * pb)
        return t + (a == c) * pa

    def random_interior(self, rng, n):
        raw = rng.dirichlet(np.ones(self.k), size=n)
        mixed = 0.9 * raw + 0.1 / self.k  # keep clear of the boundary
        return mixed[:, : self.dimension]


# g and T of GaussianFull at (m, s) = (0, 1), read off D((0, 1) || (u, 1 + v))
# = log(1 + v) + (1 + u^2) / (2 (1 + v)^2) - 1/2
_UNIT_GAUSSIAN = {2: np.diag([1.0, 2.0]), 3: np.array([[[0.0, -2.0], [-2.0, 0.0]], [[-2.0, 0.0], [0.0, -10.0]]])}


class GaussianFull(ExponentialFamily):
    """Univariate Gaussians; chart = (mean, standard deviation)."""

    family_id = "gaussian-full"
    dimension = 2

    def _inside(self, X):
        mu, sigma = X.T
        return np.isfinite(mu) & (0.0 < sigma) & (sigma < math.inf)

    def _divergence(self, P, Q):
        mp, sp = P.T
        mq, sq = Q.T
        return np.log(sq / sp) + (sp**2 + (mp - mq) ** 2) / (2.0 * sq**2) - 0.5

    # natural chart: eta = (mu/sigma^2, -1/(2 sigma^2)), stats (x, x^2)
    def _to_natural(self, x):
        m, s2 = x[..., 0], x[..., 1] ** 2
        return np.stack([m / s2, -1.0 / (2.0 * s2)], axis=-1)

    def from_natural(self, eta):
        e1, e2 = np.atleast_1d(np.asarray(eta, dtype=float)).T
        s2 = -1.0 / (2.0 * e2)
        return np.stack([e1 * s2, np.sqrt(s2)], axis=-1)

    def _natural_jacobian(self, x):
        m, s = x[..., 0], x[..., 1]
        s3 = s**3
        return _tensor([1.0 / s**2, -2.0 * m / s3, 0.0, 1.0 / s3], (2, 2))

    # the family is location-scale, so g(m, s) = g(0, 1) / s^2 and
    # T(m, s) = T(0, 1) / s^3 exactly; a form written at (m, s) would add
    # terms of size (m/s)^2 that cancel, and its powers of s would leave the
    # float range long before the tensor does
    def _closed(self, X, orders):
        return [_UNIT_GAUSSIAN[order] / (X[:, 1] ** order).reshape((-1,) + (1,) * order) for order in orders]

    def _log_partition(self, eta):
        e1, e2 = eta
        return -(e1**2) / (4.0 * e2) - 0.5 * math.log(-2.0 * e2)

    def _mean_from_natural(self, eta):
        m, s = self.from_natural(eta)
        return np.array([m, m**2 + s**2])

    def _natural_fisher(self, x):
        m, s = x[..., 0], x[..., 1]
        s2 = s**2
        g12 = 2.0 * m * s2
        return _tensor([s2, g12, g12, 4.0 * m**2 * s2 + 2.0 * s**4], (2, 2))

    def _score_moment(self, x):
        m, s = x[..., 0], x[..., 1]
        s4 = s**4
        t112, t122 = 2.0 * s4, 8.0 * m * s4
        t222 = 24.0 * m**2 * s4 + 8.0 * s**6
        return _tensor([0.0, t112, t112, t122, t112, t122, t122, t222], (2, 2, 2))

    def random_interior(self, rng, n):
        mu = rng.uniform(-2.0, 2.0, size=n)
        sig = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=n))
        return np.column_stack([mu, sig])


# ---------------------------------------------------------------------------
# Chart machinery and module-level operations
# ---------------------------------------------------------------------------


class NaturalView(_ClosedForms):
    """The same family re-parametrized by its natural coordinates.

    The domain is the natural points that ``from_natural`` maps into the
    family's domain (a natural point can round onto its boundary), so a
    refusal names the view and the point given.  ``_rows`` maps the rows
    through ``from_natural`` once, answers the domain from the family's
    ``_inside`` on their images alone, and hands the images on: the kernel
    evaluates the family's divergence on them and maps nothing itself.
    This lets tensors be extracted directly in the chart where the
    score-moment oracle lives.
    In this chart the closed-form g is the Hessian psi'' of the
    log-partition and T is the score moment psi''', the family's bodies
    on the rows mapped once through ``from_natural``.
    """

    def __init__(self, family: ExponentialFamily):
        if not isinstance(family, ExponentialFamily):
            raise UnsupportedFamily(f"{family!r} has no natural chart")
        self.family = family
        self.family_id = family.family_id + ":natural"
        self.dimension = family.dimension

    def _rows(self, eta):
        with np.errstate(all="ignore"):
            X = self.family.from_natural(eta)
            return self.family._inside(X), X

    def _inside(self, eta):
        return self._rows(eta)[0]

    def _divergence(self, P, Q):
        return self.family._divergence(P, Q)

    def _closed(self, eta, orders):
        family = self.family
        X = family.from_natural(eta)
        return [family._natural_fisher(X) if order == 2 else family._score_moment(X) for order in orders]

    def random_interior(self, rng, n):
        return self.family._to_natural(self.family.random_interior(rng, n))

    def __repr__(self):
        return f"<NaturalView of {self.family.family_id}>"


def natural_view(family: ExponentialFamily) -> NaturalView:
    return NaturalView(family)


def score_moment_tensor(family: ExponentialFamily, p) -> np.ndarray:
    """Third score moment E[d_i l d_j l d_k l] in natural coordinates, in
    closed form: the third cumulant of the sufficient statistic, exactly
    symmetric."""
    if not isinstance(family, ExponentialFamily):
        raise UnsupportedFamily(
            f"{getattr(family, 'family_id', family)!r} has no score-moment oracle"
        )
    return family._score_moment(family._point(p))


def bregman_divergence(family: ExponentialFamily, p, q) -> float:
    """psi(eta_q) - psi(eta_p) - (eta_q - eta_p) . grad psi(eta_p).

    Identity oracle: equals ``family.divergence(p, q)`` for every
    exponential-family member.  It refuses, naming the natural point, the
    natural points that the family's natural view refuses.
    """
    ep, eq = family.to_natural(p), family.to_natural(q)
    E = np.stack([eq, ep])
    _refuse_rows(family, E, NaturalView(family)._rows(E)[0], "natural point")
    return float(family._log_partition(eq) - family._log_partition(ep) - (eq - ep) @ family._mean_from_natural(ep))


BUILTIN_FAMILIES = ("gaussian", "exponential", "bernoulli", "categorical", "gaussian-full")


def make_family(spec: str, margin: float = 1e-9) -> DivergenceFamily:
    """Build a family from its CLI spec string.

    Grammar: ``gaussian[:sigma]``, ``exponential``, ``bernoulli``,
    ``categorical:k``, ``gaussian-full``.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    plain = {"exponential": ExponentialScale, "bernoulli": lambda: Bernoulli(margin), "gaussian-full": GaussianFull}
    if name in plain:
        if arg:
            raise ValueError(f"{name} takes no argument, not {arg!r}")
        return plain[name]()
    if name == "gaussian":
        return GaussianFixedSigma(float(arg) if arg else 1.0)
    if name == "categorical":
        if not arg:
            raise ValueError("categorical needs an outcome count, e.g. categorical:3")
        return Categorical(int(arg), margin=margin)
    raise ValueError(f"unknown family {spec!r}; choose from {BUILTIN_FAMILIES}")
