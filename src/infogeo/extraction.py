"""Finite-difference extraction of the metric and cubic expansion tensors.

Given a divergence (a classical family, its natural view, or a quantum
chart divergence), these routines recover the Taylor coefficients of

    D(p || p + u) = 1/2 g_ij u_i u_j + 1/6 T_ijk u_i u_j u_k + ...

by central differences in the second argument, plus the antisymmetric probe
D(p || p + h v) - D(p + h v || p) whose leading term is cubic in h.

Stencils: one rule serves both orders.  The partial derivative for a sorted
index tuple is the tensor product of 1-D second-order central differences,
one per distinct axis, of the order with which the axis occurs:

    first   {+1: 1/2, -1: -1/2}
    second  {+1: 1, 0: -2, -1: 1}
    third   {+2: 1/2, +1: -1, -1: 1, -2: -1/2}

A plan, cached per (dimension, orders, Richardson or not), holds the
distinct integer offsets of all the orders and step levels in units of the
finest step, and a weight matrix W per order, so every stencil point is
checked against the domain first, then evaluated once, and each order's
and level's T = W f / h^order: several orders over one set of nodes, as in
Fornberg (1988).  Each value fills every permutation of its index tuple
through a precomputed index, so the recorded pre-symmetrization residual is
structurally zero.

A divergence is a ``families.DivergenceFamily``, which writes its domain
as ``_inside`` and its values as ``_divergence`` over rows.  The engines ask
it about the rows of an (n, d) array through ``_rows(X)``, one domain pass
that also gives the rows Y the divergence is written on (a natural view's
images under ``from_natural``).  Having checked every row once that way,
they evaluate D(P[i] || Q[i]) over rows broadcast to (n, d) through the
unchecked kernel ``_values(P, Q, Y_P, Y_Q)``, which takes the Y of that
pass, not through the checked public entry ``divergence_rows``.
``_tensors`` takes the stencils of many rows P at once, with one step for
all of them or a step per row, and of several orders at once; what depends
on the step alone is worked out once per distinct step.  Each batch of as
many rows as fit in ``_MAX_POINTS`` stencil points is one domain pass and
one kernel call, as an extraction or a short ladder is.  A request raises
the error that extracting its rows one by one, each order after the one
before, meets first: a batch that a check refuses is extracted again that
way, through the same code.  ``_oracle`` alone asks for closed forms.

A step is refused with ConditioningError when it is not resolved at the
base point: when p + s - p differs from s by more than 1e-3 s in some
coordinate, the differences would measure rounding of p, not the divergence.
A step whose square or cube, which the differences are divided by, leaves
the normal float range is refused with ConditioningError too, where that
division is made.

The default steps are 1e-2 for a metric and 5e-2 for a cubic
(``_DEFAULT_STEP``); the command line and ``roundtrip`` read them from here.

Richardson extrapolation is opt-in.  When enabled, the tensor is computed at
h, h/2 and h/4; the extrapolated value is (4 T(h/4) - T(h/2)) / 3 and a
ConditioningError is raised when the (h/2, h/4) disagreement exceeds ten
times the value truncation theory predicts from the (h, h/2) disagreement.
"""

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DomainError, InfoGeoError, NoisePanic, NumericalError, UnsupportedFamily
from .families import _format_point, _refuse_rows

__all__ = [
    "MetricTensor", "CubicTensor", "AsymmetryProbe", "ConvergenceRung", "ConvergenceReport", "extract_metric",
    "extract_cubic", "asymmetry_probe", "convergence_report", "fit_loglog_slope",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_POWER_NAME = {2: "square", 3: "cube"}
_DEFAULT_STEP = {"metric": 1e-2, "cubic": 5e-2}
# the widest point a stencil is taken at: a plan's dense weights grow like d^6,
# and a Richardson cubic plan takes 0.17 s to build at d = 12, 0.7 s at 16
# and 32 s at 29
_MAX_DIMENSION = 12
_MAX_POINTS = 1 << 16  # the most stencil points one kernel call takes: 10 rows of a d = 12 Richardson cubic


class MetricTensor(NamedTuple):
    components: np.ndarray  # (d, d), symmetric
    base_point: np.ndarray
    step: float
    method: str  # "central-2nd" or "central-2nd+richardson"
    family_id: str
    presym_residual: float
    min_eigenvalue: float
    richardson_disagreement: float | None = None


class CubicTensor(NamedTuple):
    components: np.ndarray  # (d, d, d), fully symmetric
    base_point: np.ndarray
    step: float
    method: str
    family_id: str
    presym_residual: float
    noise_estimate: float
    richardson_disagreement: float | None = None


class AsymmetryProbe(NamedTuple):
    base_point: np.ndarray
    direction: np.ndarray
    steps: np.ndarray
    values: np.ndarray  # D(p || p+hv) - D(p+hv || p) at each h
    family_id: str
    degenerate: bool  # True when the divergence is identically symmetric
    slope: float | None
    coefficient: float | None  # c in value ~ c h^3
    cubic_vvv: float | None  # T_ijk v_i v_j v_k from extract_cubic
    ratio: float | None  # coefficient / cubic_vvv


class ConvergenceRung(NamedTuple):
    h: float
    metric: np.ndarray
    cubic: np.ndarray
    metric_error: float | None
    cubic_error: float | None


class ConvergenceReport(NamedTuple):
    base_point: np.ndarray
    family_id: str
    rungs: list[ConvergenceRung] = ()  # a shared default, so not a list
    metric_order: float | None = None
    cubic_order: float | None = None
    metric_oracle: np.ndarray | None = None
    cubic_oracle: np.ndarray | None = None


# 1-D second-order central differences, {offset in steps: weight}
_CENTRAL = {
    1: {+1: 0.5, -1: -0.5},
    2: {+1: 1.0, 0: -2.0, -1: 1.0},
    3: {+2: 0.5, +1: -1.0, -1: 1.0, -2: -0.5},
}

# the steps of the levels, as divisors of h: h alone, or h, h/2 and h/4
_LEVELS = {False: (1,), True: (1, 2, 4)}


def _order_stencil(d: int, order: int):
    """Stencil of every order-``order`` partial derivative in ``d`` dimensions.

    Returns (W, offsets, fill).  T[tuples[r]] = (W @ f)[r] / s^order, where f
    holds D(p || p + s o) at the offsets o, in steps s; a tuple's stencil is
    the tensor product of the 1-D rules of its distinct axes, the rule's
    order being how often the axis occurs.  ``fill`` gives, for each entry
    of a (d,)*order tensor in C order, the row r of its sorted index tuple.
    """
    tuples = tuple(itertools.combinations_with_replacement(range(d), order))
    rows = []
    for idx in tuples:
        axes = sorted(set(idx))
        row = {}
        for terms in itertools.product(*(_CENTRAL[idx.count(a)].items() for a in axes)):
            offset = [0] * d
            weight = 1.0
            for a, (step, w) in zip(axes, terms):
                offset[a] = step
                weight *= w
            row[tuple(offset)] = weight
        rows.append(row)
    # descending, so a mixed row adds f(++), f(+-), f(-+), f(--) in that order:
    # the summation order that keeps metrics bit-identical to the 4-corner rule
    offsets = sorted(set().union(*rows), reverse=True)
    weights = np.array([[row.get(o, 0.0) for o in offsets] for row in rows])
    fill = [tuples.index(tuple(sorted(i))) for i in itertools.product(range(d), repeat=order)]
    return weights, offsets, np.array(fill)


@functools.lru_cache(maxsize=None)
def _stencil_plan(d: int, orders: tuple, richardson: bool):
    """Stencils of each order in ``orders`` over one set of points.

    Returns (offsets, plans).  ``offsets`` (m, d) are the distinct offsets of
    every order and level in units of the finest step: order by order,
    coarsest level first, each point once.  ``plans`` holds, per order,
    (W, levels, fill) of ``_order_stencil``, where ``levels[l]`` picks level
    l's offsets out of ``offsets`` in the column order of W.
    """
    finest = _LEVELS[richardson][-1]
    union: dict[tuple, int] = {}
    plans = []
    for order in orders:
        weights, offsets, fill = _order_stencil(d, order)
        # offset 2 at h/2 is offset 1 at h, and scaling a step by a power of
        # two leaves the coordinates bit-equal
        levels = [
            [union.setdefault(tuple(finest // q * c for c in o), len(union)) for o in offsets]
            for q in _LEVELS[richardson]
        ]
        plans.append((weights, np.array(levels), fill))
    offsets = np.array(list(union), dtype=float)
    for a in (offsets, *itertools.chain(*plans)):
        a.flags.writeable = False
    return offsets, tuple(plans)


def _unresolved(P: np.ndarray, U) -> np.ndarray:
    """Which rows p of the (n, d) array P leave p + u - p off u by more than
    1e-3 |u| in some coordinate, where u is the row's displacement: the
    iterable U gives a list of d floats per row, one list for the rows that
    share a step.

    Near a coordinate of magnitude |p_i| a displacement is rounded to a
    multiple of half an ulp of p_i, so one below about 1e3 ulps measures
    rounding, not the divergence.
    """
    # in Python floats an overflow gives inf and a comparison with NaN is
    # False, without warnings; a step that is not finite is the callers' to refuse
    coordinates = zip(P.ravel().tolist(), itertools.chain.from_iterable(U))
    bad = iter([abs(x + s - x - s) > 1e-3 * abs(s) for x, s in coordinates])
    # d coordinates at a time, one row after another
    return np.fromiter(map(any, zip(*[bad] * P.shape[1])), bool, len(P))


def _not_resolved(div, p, u: list) -> ConditioningError:
    return ConditioningError(
        f"{div.family_id}: a step of {max(map(abs, u)):.3e} is not resolved at "
        f"{_format_point(p)}; a larger step, or a point nearer the origin, is needed"
    )


def _check_powers(div, steps, order: int) -> None:
    """Refuse the first positive, finite step whose power ``order``, which
    differences are divided by, leaves the normal float range."""
    for s in map(float, steps):
        try:
            # a Python float power underflows to 0 quietly and raises on overflow
            if not 0.0 < s < np.inf or s**order >= _TINY:
                continue
        except OverflowError:
            pass
        size, flow = ("small", "under") if s < 1.0 else ("large", "over")
        raise ConditioningError(
            f"{div.family_id}: a step of {s:.3e} is too {size}: "
            f"its {_POWER_NAME[order]} {flow}flows the float range"
        )


def _metric_test(g: np.ndarray, noise):
    """Smallest eigenvalue of each metric; a metric fails below -1e-8."""
    min_eig = np.linalg.eigvalsh(g).min(axis=-1)
    return min_eig, min_eig < -1e-8, lambda r: NumericalError(
        f"extracted metric has eigenvalue {min_eig[r]:.3e} < -1e-8"
    )


def _cubic_test(t: np.ndarray, noise: np.ndarray):
    """Rounding-noise estimate 1e-16 / h^3 of each row; a cubic fails when it
    exceeds 1% of its largest component, and that component is clearly
    non-zero."""
    largest = np.abs(t).reshape(len(t), -1).max(axis=1)
    return noise, (largest > 1e-9) & (noise > 0.01 * largest), lambda r: NoisePanic(
        f"rounding-noise estimate {noise[r]:.3e} exceeds 1% of the largest "
        f"component {largest[r]:.3e}; increase h"
    )


_ACCEPT = {2: _metric_test, 3: _cubic_test}


def _first(bad: np.ndarray, make_error) -> None:
    """Raise ``make_error(r)`` for the first row r that the (n,) bool ``bad`` marks."""
    bad = bad.tolist()
    if True in bad:
        raise make_error(bad.index(True))


def _tensors(div, P, h, richardson: bool, orders: tuple):
    """Derivative tensors of D(p || .) of each order in ``orders`` at each
    row p of the (n >= 1, d) array P, with step ``h``: one number for every
    row, a 0-d array included, or an (n,) array of a step per row; either way
    it becomes a Python float per row, and nothing after that tells the two apart.

    Returns, per order, (T, disagreements, statistic) over the rows: the
    tensors, the Richardson (h/2, h/4) disagreements or None, and the order's
    acceptance statistic (smallest metric eigenvalue, or cubic noise
    estimate).

    The steps are checked first, then the base points' width and the
    plan's size.  Then each row gets these checks with its step, in this
    order: base point in the domain, finest step resolved, then order by
    order the order's stencil in the domain, its divergences in the float
    range (the kernel's check), the steps' powers in the float range, the
    Richardson ladder and the acceptance test.  A batch is one ``_rows``
    pass over the base points and the stencil points of all rows and orders
    and one call of the unchecked kernel ``_values`` on its mapped rows, so
    each point is checked and mapped once; it takes at most ``_MAX_POINTS``
    stencil points, and the batches of more rows are joined, since checks
    and W f are row by row.  A batch that a check refuses is extracted
    again row after row, order after order, each (row, order) a batch of its
    own, and the first error that walk meets is the one raised.
    """
    P, hs = _checked_steps(div, P, h)
    size = _MAX_POINTS // len(_stencil_plan(P.shape[1], orders, richardson)[0])
    if len(P) > size:
        parts = [_tensors(div, P[i : i + size], hs[i : i + size], richardson, orders) for i in range(0, len(P), size)]
        return [tuple(None if a[0] is None else np.concatenate(a) for a in zip(*order)) for order in zip(*parts)]
    try:
        return _batch(div, P, hs, richardson, orders)
    except InfoGeoError:
        # the walk, each (row, order) a batch of its own, raises what it meets first
        if len(P) * len(orders) > 1:
            for p, x in zip(P, hs):
                for order in orders:
                    _batch(div, p[None], [x], richardson, (order,))
        raise


def _checked_steps(div, P, h):
    """P as floats and a Python float step per row, once the steps are
    positive and finite and the rows of P have a width a stencil is taken at."""
    P = np.asarray(P, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.shape not in ((), P.shape[:1]):
        raise ValueError(f"a step is one number or one per base point, not an array of shape {h.shape}")
    # a Python float per row, so the powers below are libm's, which numpy's
    # SIMD paths may not round alike
    hs = h.tolist() if h.ndim else [h.item()] * len(P)
    for x in dict.fromkeys(hs):
        if not 0.0 < x < np.inf:
            raise ValueError(f"step size must be positive and finite, got {x}")
    d = div.dimension
    if P.ndim != 2 or P.shape[1] != d or d > _MAX_DIMENSION:
        # no stencil is built for base points of the wrong width, which numpy
        # would broadcast, nor a plan past the widest: the base points first
        div._refuse_outside(P, "base point")
        raise UnsupportedFamily(
            f"{div.family_id}: finite-difference stencils take at most {_MAX_DIMENSION} coordinates, not {d}"
        )
    return P, hs


def _batch(div, P, hs: list, richardson: bool, orders: tuple):
    """``_tensors`` of the checked (n, d) base points P with the step hs[i]
    of each row, raising at the first check that any row fails."""
    n, d = P.shape
    # the distinct steps are numbered in the order the rows first carry them,
    # and ``slot`` holds each row's number
    distinct = {}
    slot = np.array([distinct.setdefault(x, len(distinct)) for x in hs], dtype=np.intp)
    offsets, plans = _stencil_plan(d, orders, richardson)
    # each distinct step's steps of the levels, and its finest as the
    # displacement of every coordinate
    steps = [[x / q for q in _LEVELS[richardson]] for x in distinct]
    U = [[s[-1]] * d for s in steps]
    m = len(offsets)
    with np.errstate(over="ignore"):  # an infinite point is outside every domain
        points = P[:, None, :] + np.array(U).take(slot, axis=0)[:, None, :] * offsets
    # the base points and every stencil point in one domain pass
    X = np.concatenate([P, points.reshape(-1, d)])
    inside, Y = div._rows(X)
    _refuse_rows(div, P, inside[:n], "base point")
    _first(_unresolved(P, map(U.__getitem__, slot.tolist())), lambda r: _not_resolved(div, P[r], U[slot[r]]))
    if not inside.all():
        # the first stencil point outside, in the order of the orders' plans
        picked = np.concatenate([levels.ravel() for _, levels, _ in plans])
        r, c = np.argwhere(~inside[n:].reshape(n, m)[:, picked])[0]
        raise DomainError(
            f"{div.family_id}: finite-difference stencil leaves the domain at {_format_point(points[r, picked[c]])}"
        )
    # each stencil point's base row; rows that share their base point pass it
    # as one row, which the kernel broadcasts
    base = slice(1) if n == 1 or (P[1:] == P[0]).all() else np.repeat(np.arange(n), m)
    f = div._values(X[base], X[n:], Y[base], Y[n:]).reshape(n, m)
    results = []
    for order, (weights, levels, fill) in zip(orders, plans):
        # per distinct step, the powers its levels are divided by and the
        # rounding-noise estimate 1e-16 / h^order of its finest level
        table = []
        for row in steps:
            _check_powers(div, row, order)
            powers = [s**order for s in row]
            table.append(powers + [1e-16 / powers[-1]])
        table = np.array(table).take(slot, axis=0)
        # W @ f for every row and level as one stack of matrix-vector products,
        # each summed exactly as the product for a single row and level is: the
        # values are taken into C order, as a single row's are, since a strided
        # vector can take another summation order in BLAS
        t = (weights @ f.take(levels, axis=1)[..., None])[..., 0][..., fill]
        t = (t / table[:, :-1, None]).reshape((n, len(_LEVELS[richardson])) + (d,) * order)
        noise = table[:, -1]
        disagreement = None
        if richardson:
            # the (h, h/2) and (h/2, h/4) disagreements of each row
            d1, disagreement = np.abs(t[:, :-1] - t[:, 1:]).reshape(n, 2, -1).max(axis=-1).T
            # disagreements at the rounding-noise floor of the finest level carry no
            # information about the truncation ladder (zero tensors live there);
            # expected d2 ~ d1/4; tolerate 10x before declaring the ladder unusable
            _first((disagreement > 2.5 * d1) & (disagreement > 10.0 * noise), lambda r: ConditioningError(
                f"step-halving disagreement grew from {d1[r]:.3e} to {disagreement[r]:.3e}; "
                "the step ladder is outside the asymptotic regime"
            ))
            t = (4.0 * t[:, 2] - t[:, 1]) / 3.0
        else:
            t = t[:, 0]
        statistic, rejected, reject = _ACCEPT[order](t, noise)
        _first(rejected, reject)
        results.append((t, disagreement, statistic))
    return results


# per order, the record of one extraction and the stem of its method
_RECORD = {2: (MetricTensor, "central-2nd"), 3: (CubicTensor, "central-3rd")}


def _extract(div, p, h: float, richardson: bool, order: int):
    """One row of ``_tensors``, as the order's record."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    [(t, disagreement, statistic)] = _tensors(div, p[None], h, richardson, (order,))
    record, method = _RECORD[order]
    return record(
        t[0], p, np.asarray(h, dtype=float).item(), method + "+richardson" if richardson else method,
        div.family_id, 0.0, float(statistic[0]), None if disagreement is None else float(disagreement[0]),
    )


def extract_metric(div, p, h: float = _DEFAULT_STEP["metric"], richardson: bool = False) -> MetricTensor:
    """Quadratic coefficient g_ij of D(p || p + u), by central differences.

    Raises DomainError when the stencil leaves the domain, NumericalError
    when the result is not positive semidefinite within 1e-8, and
    ConditioningError when Richardson levels disagree implausibly.
    """
    return _extract(div, p, h, richardson, 2)


def extract_cubic(div, p, h: float = _DEFAULT_STEP["cubic"], richardson: bool = False) -> CubicTensor:
    """Cubic coefficient T_ijk of D(p || p + u), by central third differences.

    Raises NoisePanic when the rounding-noise estimate 1e-16 / h^3 exceeds 1%
    of the largest component of a clearly non-zero tensor; the remedy is a
    larger step.
    """
    return _extract(div, p, h, richardson, 3)


def _line_fit(x: list, y: list):
    """Least-squares (slope, intercept) of the points (x, y), from centred
    sums in Python floats; None when sum (x - mean x)^2 is 0, as it is
    unless x holds two distinct values.

    x is centred through its offsets from x[0], which are exact for x close
    together, so equal x values centre to exactly 0 and a small spread far
    from 0 keeps its digits.
    """
    if not x:
        return None
    n = len(x)
    offsets = [a - x[0] for a in x]
    mean_offset = math.fsum(offsets) / n
    dx = [o - mean_offset for o in offsets]
    sxx = math.fsum([d * d for d in dx])
    if sxx == 0.0:
        return None
    my = math.fsum(y) / n
    slope = math.fsum([d * (b - my) for d, b in zip(dx, y)]) / sxx
    return slope, my - slope * (x[0] + mean_offset)


def fit_loglog_slope(h_values, errors):
    """Least-squares slope of log(error) vs log(h), ignoring errors at the
    noise floor 100 eps; None when fewer than two distinct log-steps remain."""
    h_values = np.asarray(h_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 100.0 * _EPS
    fit = _line_fit(np.log(h_values[mask]).tolist(), np.log(errors[mask]).tolist())
    return None if fit is None else fit[0]


def asymmetry_probe(div, p, v, steps) -> AsymmetryProbe:
    """Measure D(p || p + h v) - D(p + h v || p) across a ladder of steps.

    Fits the scaling slope (3 for any divergence with a non-vanishing cubic
    term), the cubic coefficient c in value ~ c h^3, and the ratio of c to
    the forward cubic contraction T_ijk v_i v_j v_k, extracted with
    Richardson at the largest step.  A divergence that is symmetric to
    machine precision is flagged degenerate rather than fitted; a zero
    direction, which would probe nothing, is refused with ValueError, and
    a coefficient or T(v, v, v) past the float range with NumericalError.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    steps = np.asarray(steps, dtype=float)
    if steps.size < 4 or not np.all(np.diff(steps) < 0):
        raise ValueError("need at least 4 strictly decreasing step scales")
    if not np.all((0.0 < steps) & (steps < np.inf)):
        raise ValueError(f"step scales must be positive and finite, got {_format_point(steps)}")
    # the base point and, for a direction of its width, the probe points in
    # one domain pass; a non-finite probe point is outside every domain
    X, width = p[None], p.shape == (div.dimension,)
    if width and v.shape == p.shape:
        with np.errstate(all="ignore"):
            X = np.concatenate([X, p + steps[:, None] * v])
    inside, Y = div._rows(X) if width else (np.zeros(1, dtype=bool), X)
    _refuse_rows(div, X[:1], inside[:1], "base point")
    if v.shape != p.shape:
        raise ValueError(
            f"direction has {v.size} coordinate(s) but the base point has {p.size}"
        )
    if not v.any():
        raise ValueError(f"direction {_format_point(v)} is zero: every probe would sit at the base point")
    _refuse_rows(div, X[1:], inside[1:], "probe point")
    u = (steps[-1] * v).tolist()
    if _unresolved(p[None], [u])[0]:
        raise _not_resolved(div, p, u)
    # both sides' points are checked and mapped above, so the kernel takes them unchecked
    values = div._values(X[:1], X[1:], Y[:1], Y[1:]) - div._values(X[1:], X[:1], Y[1:], Y[:1])

    degenerate = bool(np.max(np.abs(values)) < 1e-14)
    slope = coeff = tvvv = ratio = None
    if not degenerate:
        _check_powers(div, steps, 3)
        slope = fit_loglog_slope(steps, np.abs(values))
        # value/h^3 = c + O(h); a linear fit in h isolates the intercept c.
        # The steps are distinct and their cubes normal, so the fit exists
        with np.errstate(over="ignore"):
            scaled = (values / steps**3).tolist()
        try:
            coeff = _line_fit(steps.tolist(), scaled)[1]
        except (OverflowError, ValueError):  # math.fsum of values past the float range
            coeff = math.nan
        cubic = extract_cubic(div, p, h=float(steps[0]), richardson=True)
        tvvv = float(np.einsum("ijk,i,j,k->", cubic.components, v, v, v))
        if not (math.isfinite(coeff) and math.isfinite(tvvv)):
            raise NumericalError(
                f"{div.family_id}: the cubic term of the asymmetry along {_format_point(v)} overflows the float range"
            )
        ratio = coeff / tvvv if abs(tvvv) > 1e-12 else None
    return AsymmetryProbe(
        base_point=p,
        direction=v,
        steps=steps,
        values=values,
        family_id=div.family_id,
        degenerate=degenerate,
        slope=slope,
        coefficient=coeff,
        cubic_vvv=tvvv,
        ratio=ratio,
    )


def _oracle(div, X, orders: tuple) -> list | None:
    """The closed forms of each order in ``orders`` at the checked (n, d) rows
    X, from the divergence's unchecked kernel ``_closed_rows``, or None; rows
    wider than a stencil's are refused (a cubic of d = 200 is 64 MB a row)."""
    if not hasattr(div, "_closed_rows"):
        return None
    if X.shape[1] > _MAX_DIMENSION:
        raise UnsupportedFamily(
            f"{div.family_id}: closed-form tensors take at most {_MAX_DIMENSION} coordinates, not {X.shape[1]}"
        )
    return div._closed_rows(X, orders)


def _tensor_errors(measured: np.ndarray, oracle: np.ndarray | None) -> list:
    """Per rung of the (n, ...) stack ``measured``: max |measured - oracle|
    over the oracle's largest |component| (absolute when that is 0), or None
    without an oracle."""
    if oracle is None:
        return [None] * len(measured)
    denom = float(np.max(np.abs(oracle)))
    diff = np.abs(measured - oracle).reshape(len(measured), -1).max(axis=1)
    return (diff / denom if denom > 0 else diff).tolist()


def convergence_report(div, p, ladder, richardson: bool = False) -> ConvergenceReport:
    """Run metric and cubic extraction across a step ladder.

    The oracle tensors are the divergence object's closed forms, both from
    one ``_oracle`` call at the checked base point; errors are then max-abs
    deviations normalized by the oracle's largest component (absolute when
    the oracle vanishes).

    The metric and cubic of every rung come from one ``_tensors`` request
    over the whole ladder, which raises the error that extracting the rungs
    one by one, metric then cubic, would meet first.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    ladder = np.asarray(ladder, dtype=float)
    # before the closed forms, which may divide by zero outside the domain,
    # overflow where the finest step's cube underflows, and refuse in their
    # own words a point too wide for a stencil
    div._refuse_outside(p[None], "base point")
    hs = []
    if ladder.size:
        _check_powers(div, [float(ladder.min()) / (4.0 if richardson else 1.0)], 3)
        P, hs = _checked_steps(div, np.repeat(p[None], ladder.size, axis=0), ladder)
    # the cubic first: where both closed forms are refused, its overflow is the
    # cause to name, ahead of the metric's underflow
    closed = _oracle(div, p[None], (3, 2))
    cubic_oracle, metric_oracle = (None, None) if closed is None else (t[0] for t in closed)
    rungs, metric_order, cubic_order = [], None, None
    if hs:
        (metric, _, _), (cubic, _, _) = _tensors(div, P, hs, richardson, (2, 3))
        m_err = _tensor_errors(metric, metric_oracle)
        c_err = _tensor_errors(cubic, cubic_oracle)
        rungs = [ConvergenceRung(*rung) for rung in zip(hs, metric, cubic, m_err, c_err)]
        if metric_oracle is not None:  # and so the cubic's, from the same kernel call
            metric_order, cubic_order = fit_loglog_slope(hs, m_err), fit_loglog_slope(hs, c_err)
    return ConvergenceReport(p, div.family_id, rungs, metric_order, cubic_order, metric_oracle, cubic_oracle)
