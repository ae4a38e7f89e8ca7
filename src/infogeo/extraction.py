"""Finite-difference extraction of the metric and cubic expansion tensors.

Given any object exposing ``dimension``, ``contains(x)`` and
``divergence(p, q)`` (a classical family, its natural view, or a quantum
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

A plan, cached per (dimension, order), holds the index tuples, the distinct
integer offsets and a weight matrix W, so every stencil point is checked
against the domain first, then evaluated once, and T = W f / h^order.  Each
value fills every permutation of its index tuple, so the recorded
pre-symmetrization residual is structurally zero.

Richardson extrapolation is opt-in.  When enabled, the tensor is computed at
h, h/2 and h/4; the extrapolated value is (4 T(h/4) - T(h/2)) / 3 and a
ConditioningError is raised when the (h/2, h/4) disagreement exceeds ten
times the value truncation theory predicts from the (h, h/2) disagreement.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DomainError, NoisePanic, NumericalError

__all__ = [
    "MetricTensor",
    "CubicTensor",
    "AsymmetryProbe",
    "ConvergenceRung",
    "ConvergenceReport",
    "extract_metric",
    "extract_cubic",
    "asymmetry_probe",
    "convergence_report",
    "fit_loglog_slope",
]

_EPS = np.finfo(float).eps


@dataclass
class MetricTensor:
    components: np.ndarray  # (d, d), symmetric
    base_point: np.ndarray
    step: float
    method: str  # "central-2nd" or "central-2nd+richardson"
    family_id: str
    presym_residual: float
    min_eigenvalue: float
    richardson_disagreement: float | None = None


@dataclass
class CubicTensor:
    components: np.ndarray  # (d, d, d), fully symmetric
    base_point: np.ndarray
    step: float
    method: str
    family_id: str
    presym_residual: float
    noise_estimate: float
    richardson_disagreement: float | None = None


@dataclass
class AsymmetryProbe:
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


@dataclass
class ConvergenceRung:
    h: float
    metric: np.ndarray
    cubic: np.ndarray
    metric_error: float | None
    cubic_error: float | None


@dataclass
class ConvergenceReport:
    base_point: np.ndarray
    family_id: str
    rungs: list[ConvergenceRung] = field(default_factory=list)
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


@functools.lru_cache(maxsize=None)
def _stencil_plan(d: int, order: int):
    """Stencil of every order-``order`` partial derivative in ``d`` dimensions.

    Returns the sorted index tuples, the distinct integer offsets (one row
    each) and the weight matrix W with T[tuples[r]] = (W @ f)[r] / h^order,
    where f holds D(p || p + h offset) over the offsets.  A tuple's stencil
    is the tensor product of the 1-D rules of its distinct axes, the rule's
    order being how often the axis occurs.
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
    offsets = np.array(offsets, dtype=float)
    offsets.flags.writeable = weights.flags.writeable = False
    return tuples, offsets, weights


def _tensor_at(div, p: np.ndarray, h: float, order: int) -> np.ndarray:
    """Order-``order`` derivative tensor of D(p || .) at p, step h."""
    tuples, offsets, weights = _stencil_plan(div.dimension, order)
    points = p + h * offsets
    for q in points:
        if not div.contains(q):
            raise DomainError(
                f"{div.family_id}: finite-difference stencil leaves the domain "
                f"at {q}"
            )
    f = np.array([div.divergence(p, q) for q in points], dtype=float)
    values = weights @ f / h**order
    t = np.empty((div.dimension,) * order)
    for idx, value in zip(tuples, values):
        for perm in itertools.permutations(idx):
            t[perm] = value
    return t


def _richardson(div, p: np.ndarray, h: float, order: int):
    """Three-level Richardson for an O(h^2) stencil, with a sanity check."""
    t1, t2, t3 = (_tensor_at(div, p, s, order) for s in (h, h / 2.0, h / 4.0))
    d1 = float(np.max(np.abs(t1 - t2)))
    d2 = float(np.max(np.abs(t2 - t3)))
    # disagreements at the rounding-noise floor of the finest level carry no
    # information about the truncation ladder (zero tensors live there)
    noise_floor = 1e-16 / (h / 4.0) ** order
    # expected d2 ~ d1/4; tolerate 10x before declaring the ladder unusable
    if d2 > 2.5 * d1 and d2 > 10.0 * noise_floor:
        raise ConditioningError(
            f"step-halving disagreement grew from {d1:.3e} to {d2:.3e}; "
            "the step ladder is outside the asymptotic regime"
        )
    return (4.0 * t3 - t2) / 3.0, d2


def _extract(div, p, h: float, richardson: bool, order: int):
    """Shared prelude: (point, tensor, finest step, Richardson disagreement)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not div.contains(p):
        raise DomainError(f"{div.family_id}: base point {p} outside domain")
    if richardson:
        t, disagreement = _richardson(div, p, h, order)
        return p, t, h / 4.0, disagreement
    return p, _tensor_at(div, p, h, order), h, None


def extract_metric(div, p, h: float = 1e-2, richardson: bool = False) -> MetricTensor:
    """Quadratic coefficient g_ij of D(p || p + u), by central differences.

    Raises DomainError when the stencil leaves the domain, NumericalError
    when the result is not positive semidefinite within 1e-8, and
    ConditioningError when Richardson levels disagree implausibly.
    """
    p, g, _, disagreement = _extract(div, p, h, richardson, 2)
    min_eig = float(np.linalg.eigvalsh(g).min())
    if min_eig < -1e-8:
        raise NumericalError(
            f"extracted metric has eigenvalue {min_eig:.3e} < -1e-8"
        )
    return MetricTensor(
        components=g,
        base_point=p,
        step=h,
        method="central-2nd+richardson" if richardson else "central-2nd",
        family_id=div.family_id,
        presym_residual=0.0,
        min_eigenvalue=min_eig,
        richardson_disagreement=disagreement,
    )


def extract_cubic(div, p, h: float = 5e-2, richardson: bool = False) -> CubicTensor:
    """Cubic coefficient T_ijk of D(p || p + u), by central third differences.

    Raises NoisePanic when the rounding-noise estimate 1e-16 / h^3 exceeds 1%
    of the largest component of a clearly non-zero tensor; the remedy is a
    larger step.
    """
    p, t, h_min, disagreement = _extract(div, p, h, richardson, 3)
    noise = 1e-16 / h_min**3
    largest = float(np.max(np.abs(t)))
    if largest > 1e-9 and noise > 0.01 * largest:
        raise NoisePanic(
            f"rounding-noise estimate {noise:.3e} exceeds 1% of the largest "
            f"component {largest:.3e}; increase h"
        )
    return CubicTensor(
        components=t,
        base_point=p,
        step=h,
        method="central-3rd+richardson" if richardson else "central-3rd",
        family_id=div.family_id,
        presym_residual=0.0,
        noise_estimate=noise,
        richardson_disagreement=disagreement,
    )


def fit_loglog_slope(h_values, errors, floor: float = 100.0 * _EPS):
    """Least-squares slope of log(error) vs log(h), ignoring the noise floor."""
    h_values = np.asarray(h_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > floor
    if mask.sum() < 2:
        return None
    coeffs = np.polyfit(np.log(h_values[mask]), np.log(errors[mask]), 1)
    return float(coeffs[0])


def asymmetry_probe(div, p, v, steps, cubic_h: float | None = None) -> AsymmetryProbe:
    """Measure D(p || p + h v) - D(p + h v || p) across a ladder of steps.

    Fits the scaling slope (3 for any divergence with a non-vanishing cubic
    term), the cubic coefficient c in value ~ c h^3, and the ratio of c to
    the forward cubic contraction T_ijk v_i v_j v_k.  A divergence that is
    symmetric to machine precision is flagged degenerate rather than fitted.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    steps = np.asarray(steps, dtype=float)
    if steps.size < 4 or not np.all(np.diff(steps) < 0):
        raise ValueError("need at least 4 strictly decreasing step scales")
    if not div.contains(p):
        raise DomainError(f"{div.family_id}: base point {p} outside domain")
    values = np.empty_like(steps)
    for n, h in enumerate(steps):
        q = p + h * v
        if not div.contains(q):
            raise DomainError(f"{div.family_id}: probe point {q} outside domain")
        values[n] = div.divergence(p, q) - div.divergence(q, p)

    if np.max(np.abs(values)) < 1e-14:
        return AsymmetryProbe(
            base_point=p,
            direction=v,
            steps=steps,
            values=values,
            family_id=div.family_id,
            degenerate=True,
            slope=None,
            coefficient=None,
            cubic_vvv=None,
            ratio=None,
        )

    slope = fit_loglog_slope(steps, np.abs(values))
    # value/h^3 = c + O(h); a linear fit in h isolates the intercept c
    scaled = values / steps**3
    coeff = float(np.polyfit(steps, scaled, 1)[1])

    h_cubic = cubic_h if cubic_h is not None else float(steps[0])
    cubic = extract_cubic(div, p, h=h_cubic, richardson=True)
    tvvv = float(np.einsum("ijk,i,j,k->", cubic.components, v, v, v))
    ratio = coeff / tvvv if abs(tvvv) > 1e-12 else None
    return AsymmetryProbe(
        base_point=p,
        direction=v,
        steps=steps,
        values=values,
        family_id=div.family_id,
        degenerate=False,
        slope=slope,
        coefficient=coeff,
        cubic_vvv=tvvv,
        ratio=ratio,
    )


def _tensor_error(measured: np.ndarray, oracle: np.ndarray | None):
    if oracle is None:
        return None
    denom = float(np.max(np.abs(oracle)))
    diff = float(np.max(np.abs(measured - oracle)))
    return diff / denom if denom > 0 else diff


def convergence_report(
    div,
    p,
    ladder,
    metric_oracle=None,
    cubic_oracle=None,
    richardson: bool = False,
) -> ConvergenceReport:
    """Run metric and cubic extraction across a step ladder.

    Oracle tensors default to the divergence object's closed forms
    (``fisher`` / ``forward_cubic``) when it provides them; errors are then
    max-abs deviations normalized by the oracle's largest component (absolute
    when the oracle vanishes identically).
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    ladder = np.asarray(ladder, dtype=float)
    if metric_oracle is None and hasattr(div, "fisher"):
        metric_oracle = np.asarray(div.fisher(p), dtype=float)
    if cubic_oracle is None and hasattr(div, "forward_cubic"):
        cubic_oracle = np.asarray(div.forward_cubic(p), dtype=float)
    report = ConvergenceReport(
        base_point=p,
        family_id=div.family_id,
        metric_oracle=metric_oracle,
        cubic_oracle=cubic_oracle,
    )
    for h in ladder:
        m = extract_metric(div, p, h=h, richardson=richardson)
        c = extract_cubic(div, p, h=h, richardson=richardson)
        report.rungs.append(
            ConvergenceRung(
                h=float(h),
                metric=m.components,
                cubic=c.components,
                metric_error=_tensor_error(m.components, metric_oracle),
                cubic_error=_tensor_error(c.components, cubic_oracle),
            )
        )
    hs = [r.h for r in report.rungs]
    m_err = [r.metric_error for r in report.rungs]
    c_err = [r.cubic_error for r in report.rungs]
    if all(e is not None for e in m_err):
        report.metric_order = fit_loglog_slope(hs, m_err)
    if all(e is not None for e in c_err):
        report.cubic_order = fit_loglog_slope(hs, c_err)
    return report
