"""Result records: field order, repr and serialized form, pinned to literals.

The records are named tuples.  Each one's fields, the repr of a fixed
instance and its ``jsonable`` dict are compared with the literals the same
instances gave when the records were dataclasses, so a report, a replay or
a printed record reads as it did.
"""

import numpy as np
import pytest

from infogeo.extraction import AsymmetryProbe, ConvergenceReport, ConvergenceRung, CubicTensor, MetricTensor
from infogeo.gap import FidelityEstimate, gap_report
from infogeo.reports import jsonable
from infogeo.roundtrip import DemonReport, LegDistribution, SpreadReport, TradeSampler, TriangleReport

_NOTE = (
    "tabulated gap at N=1 is 0 (sequential and collective coincide for a single copy); the closed "
    "form 1/(N(N+1)) would give 1/2 and applies only for N >= 2"
)


def _rung():
    return ConvergenceRung(0.1, np.array([[1.0]]), np.array([[[-2.0]]]), 1e-3, None)


# (record, its fields, its repr, its jsonable dict)
CASES = {
    "MetricTensor": (
        lambda: MetricTensor(np.array([[2.0]]), np.array([0.5]), 0.01, "central-2nd", "bernoulli", 0.0, 2.0),
        ("components", "base_point", "step", "method", "family_id", "presym_residual", "min_eigenvalue",
         "richardson_disagreement"),
        "MetricTensor(components=array([[2.]]), base_point=array([0.5]), step=0.01, method='central-2nd', "
        "family_id='bernoulli', presym_residual=0.0, min_eigenvalue=2.0, richardson_disagreement=None)",
        {"components": [[2.0]], "base_point": [0.5], "step": 0.01, "method": "central-2nd",
         "family_id": "bernoulli", "presym_residual": 0.0, "min_eigenvalue": 2.0, "richardson_disagreement": None},
    ),
    "CubicTensor": (
        lambda: CubicTensor(
            np.array([[[-4.0]]]), np.array([0.5]), 0.05, "central-2nd+richardson", "bernoulli", 0.0, 1e-12, 3e-9
        ),
        ("components", "base_point", "step", "method", "family_id", "presym_residual", "noise_estimate",
         "richardson_disagreement"),
        "CubicTensor(components=array([[[-4.]]]), base_point=array([0.5]), step=0.05, "
        "method='central-2nd+richardson', family_id='bernoulli', presym_residual=0.0, noise_estimate=1e-12, "
        "richardson_disagreement=3e-09)",
        {"components": [[[-4.0]]], "base_point": [0.5], "step": 0.05, "method": "central-2nd+richardson",
         "family_id": "bernoulli", "presym_residual": 0.0, "noise_estimate": 1e-12,
         "richardson_disagreement": 3e-09},
    ),
    "AsymmetryProbe": (
        lambda: AsymmetryProbe(
            np.array([1.0]), np.array([1.0]), np.array([0.1, 0.05]), np.array([-1e-4, -1.25e-5]),
            "exponential", False, 3.0, -0.1, 0.6, -0.25,
        ),
        ("base_point", "direction", "steps", "values", "family_id", "degenerate", "slope", "coefficient",
         "cubic_vvv", "ratio"),
        "AsymmetryProbe(base_point=array([1.]), direction=array([1.]), steps=array([0.1 , 0.05]), "
        "values=array([-1.00e-04, -1.25e-05]), family_id='exponential', degenerate=False, slope=3.0, "
        "coefficient=-0.1, cubic_vvv=0.6, ratio=-0.25)",
        {"base_point": [1.0], "direction": [1.0], "steps": [0.1, 0.05], "values": [-0.0001, -1.25e-05],
         "family_id": "exponential", "degenerate": False, "slope": 3.0, "coefficient": -0.1, "cubic_vvv": 0.6,
         "ratio": -0.25},
    ),
    "ConvergenceRung": (
        _rung,
        ("h", "metric", "cubic", "metric_error", "cubic_error"),
        "ConvergenceRung(h=0.1, metric=array([[1.]]), cubic=array([[[-2.]]]), metric_error=0.001, "
        "cubic_error=None)",
        {"h": 0.1, "metric": [[1.0]], "cubic": [[[-2.0]]], "metric_error": 0.001, "cubic_error": None},
    ),
    "ConvergenceReport": (
        lambda: ConvergenceReport(np.array([1.0]), "exponential", [_rung()], 2.0, None, np.array([[1.0]]), None),
        ("base_point", "family_id", "rungs", "metric_order", "cubic_order", "metric_oracle", "cubic_oracle"),
        "ConvergenceReport(base_point=array([1.]), family_id='exponential', "
        "rungs=[ConvergenceRung(h=0.1, metric=array([[1.]]), cubic=array([[[-2.]]]), "
        "metric_error=0.001, cubic_error=None)], metric_order=2.0, cubic_order=None, "
        "metric_oracle=array([[1.]]), cubic_oracle=None)",
        {"base_point": [1.0], "family_id": "exponential",
         "rungs": [{"h": 0.1, "metric": [[1.0]], "cubic": [[[-2.0]]], "metric_error": 0.001, "cubic_error": None}],
         "metric_order": 2.0, "cubic_order": None, "metric_oracle": [[1.0]], "cubic_oracle": None},
    ),
    "LegDistribution": (
        lambda: LegDistribution("skewnormal", 0.0, 0.01, -4.0),
        ("kind", "location", "scale", "shape"),
        "LegDistribution(kind='skewnormal', location=0.0, scale=0.01, shape=-4.0)",
        {"kind": "skewnormal", "location": 0.0, "scale": 0.01, "shape": -4.0},
    ),
    "TriangleReport": (
        lambda: TriangleReport(
            1000, 1, ["gaussian:0,0.01"] * 3, 1e-5, 2e-6, 1.5e-5, 2e-6, 1.25e-5, 2e-6, -3e-7, 1e-7,
            [0.0, 0.1, -0.2], 0, 1e-16,
        ),
        ("samples", "seed", "legs", "exact_mean", "exact_se", "quadratic_mean", "quadratic_se", "cubic_mean",
         "cubic_se", "bare_cubic_mean", "bare_cubic_se", "leg_skewness", "rejected", "identity_max_error"),
        "TriangleReport(samples=1000, seed=1, legs=['gaussian:0,0.01', 'gaussian:0,0.01', "
        "'gaussian:0,0.01'], exact_mean=1e-05, exact_se=2e-06, quadratic_mean=1.5e-05, quadratic_se=2e-06, "
        "cubic_mean=1.25e-05, cubic_se=2e-06, bare_cubic_mean=-3e-07, bare_cubic_se=1e-07, "
        "leg_skewness=[0.0, 0.1, -0.2], rejected=0, identity_max_error=1e-16)",
        {"samples": 1000, "seed": 1, "legs": ["gaussian:0,0.01", "gaussian:0,0.01", "gaussian:0,0.01"],
         "exact_mean": 1e-05, "exact_se": 2e-06, "quadratic_mean": 1.5e-05, "quadratic_se": 2e-06,
         "cubic_mean": 1.25e-05, "cubic_se": 2e-06, "bare_cubic_mean": -3e-07, "bare_cubic_se": 1e-07,
         "leg_skewness": [0.0, 0.1, -0.2], "rejected": 0, "identity_max_error": 1e-16},
    ),
    "DemonReport": (
        lambda: DemonReport(
            "bernoulli", np.array([[0.2], [0.4]]), [1e-3], 1e-3, -1e-3, 0.0, "oracle", None, "start"
        ),
        ("family_id", "waypoints", "per_step", "total", "reversed_total", "reversal_sum", "method", "h",
         "tensor_at"),
        "DemonReport(family_id='bernoulli', waypoints=array([[0.2],\n"
        "       [0.4]]), per_step=[0.001], total=0.001, reversed_total=-0.001, reversal_sum=0.0, "
        "method='oracle', h=None, tensor_at='start')",
        {"family_id": "bernoulli", "waypoints": [[0.2], [0.4]], "per_step": [0.001], "total": 0.001,
         "reversed_total": -0.001, "reversal_sum": 0.0, "method": "oracle", "h": None, "tensor_at": "start"},
    ),
    "TradeSampler": (
        lambda: TradeSampler("gauss", (0.3, 1.2), (0.05,)),
        ("kind", "point", "step"),
        "TradeSampler(kind='gauss', point=(0.3, 1.2), step=(0.05,))",
        {"kind": "gauss", "point": [0.3, 1.2], "step": [0.05]},
    ),
    "SpreadReport": (
        lambda: SpreadReport("exponential", "gauss:1.2,0.05", 1000, 5, 1e-6, 1e-7, "fd", 0.05),
        ("family_id", "sampler_spec", "samples", "seed", "mean", "std_error", "method", "h"),
        "SpreadReport(family_id='exponential', sampler_spec='gauss:1.2,0.05', samples=1000, seed=5, "
        "mean=1e-06, std_error=1e-07, method='fd', h=0.05)",
        {"family_id": "exponential", "sampler_spec": "gauss:1.2,0.05", "samples": 1000, "seed": 5,
         "mean": 1e-06, "std_error": 1e-07, "method": "fd", "h": 0.05},
    ),
    "GapReport": (
        lambda: gap_report(1),
        ("n_copies", "spin", "f_col", "f_seq", "gap", "special_cased", "note"),
        "GapReport(n_copies=1, spin=Fraction(1, 2), f_col=Fraction(2, 3), f_seq=Fraction(2, 3), "
        f"gap=Fraction(0, 1), special_cased=True, note={_NOTE!r})",
        {"n_copies": 1, "spin": {"rational": "1/2", "decimal": 0.5},
         "f_col": {"rational": "2/3", "decimal": 0.6666666666666666},
         "f_seq": {"rational": "2/3", "decimal": 0.6666666666666666},
         "gap": {"rational": "0", "decimal": 0.0}, "special_cased": True, "note": _NOTE},
    ),
    "FidelityEstimate": (
        lambda: FidelityEstimate(0.66, 0.001, 10000, 1, "outcome"),
        ("mean", "std_error", "trials", "seed", "guess"),
        "FidelityEstimate(mean=0.66, std_error=0.001, trials=10000, seed=1, guess='outcome')",
        {"mean": 0.66, "std_error": 0.001, "trials": 10000, "seed": 1, "guess": "outcome"},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_record_keeps_its_fields_repr_and_serialized_form(name):
    make, fields, text, data = CASES[name]
    record = make()
    assert type(record).__name__ == name
    assert type(record)._fields == fields
    assert repr(record) == text
    assert jsonable(record) == data


def test_a_record_is_immutable():
    record = CASES["SpreadReport"][0]()
    with pytest.raises(AttributeError):
        record.mean = 0.0


def test_a_record_compares_and_unpacks_as_a_tuple():
    # a record is a tuple: it equals any tuple of the same values, a record
    # of another type among them, and it unpacks, indexes and hashes as one
    fields = (np.array([[2.0]]), np.array([0.5]), 0.01, "central-2nd", "bernoulli", 0.0, 2.0, None)
    metric, cubic = MetricTensor(*fields), CubicTensor(*fields)
    assert metric == cubic == fields
    assert tuple(metric) == fields and len(metric) == 8 and metric[2] == 0.01
    assert FidelityEstimate(0.66, 0.001, 10000, 1, "outcome") == (0.66, 0.001, 10000, 1, "outcome")
    assert hash(LegDistribution("gaussian", 0.0, 0.01)) == hash(("gaussian", 0.0, 0.01, None))
    # the dataclasses helpers do not apply; _replace and _asdict do their work
    import dataclasses

    with pytest.raises(TypeError):
        dataclasses.replace(metric, step=0.02)
    assert metric._replace(step=0.02).step == 0.02
    # a report with no rungs holds an empty tuple, shared by every such report
    assert ConvergenceReport(np.array([1.0]), "exponential").rungs == ()


@pytest.mark.parametrize(
    "args, message",
    [
        (("cauchy", 0.0, 0.01), "unknown leg kind 'cauchy'; use ('gaussian', 'skewnormal', 'shifted-lognormal')"),
        (("gaussian", 0.0, -0.01), "scale must be non-negative"),
        (("gaussian", 0.0, float("nan")), "scale must be non-negative"),
        (("skewnormal", 0.0, 0.01), "skewnormal needs a shape parameter"),
        (("gaussian", 0.0, 0.01, 2.0), "gaussian takes no shape parameter"),
        (("gaussian", float("inf"), 0.01), "leg gaussian:inf,0.01: parameters must be finite"),
        (("skewnormal", 0.0, 0.01, float("nan")), "leg skewnormal:0,0.01,nan: parameters must be finite"),
        (("skewnormal", 0.0, 0.01, 1e308), "leg skewnormal:0,0.01,1e+308: the shape's square overflows the float range"),
    ],
)
def test_a_leg_distribution_refuses_what_it_refused(args, message):
    with pytest.raises(ValueError) as refused:
        LegDistribution(*args)
    assert str(refused.value) == message
    # by keyword too, the form a caller may use
    with pytest.raises(ValueError) as by_name:
        LegDistribution(**dict(zip(("kind", "location", "scale", "shape"), args)))
    assert str(by_name.value) == message


def test_a_replaced_leg_is_checked_too():
    leg = LegDistribution("gaussian", 0.0, 0.01)
    assert leg._replace(scale=0.02) == LegDistribution("gaussian", 0.0, 0.02)
    with pytest.raises(ValueError, match="scale must be non-negative"):
        leg._replace(scale=-1.0)
    with pytest.raises(ValueError, match="gaussian takes no shape parameter"):
        LegDistribution._make(["gaussian", 0.0, 0.01, 2.0])


@pytest.mark.parametrize(
    "args, message",
    [
        (("bogus", (1.0,), (0.1,)), "unknown sampler kind 'bogus'"),
        (("fixed", (1.0,), (0.1, 0.1, 0.1)), "fixed sampler takes a step of 1 number(s), not 3"),
        (("signflip", (1.0, 2.0), (0.1,)), "signflip sampler takes a step of 2 number(s), not 1"),
        (("gauss", (1.0,), (0.1, 0.2)), "gauss sampler takes a step of 1 number(s), not 2"),
    ],
)
def test_a_trade_sampler_is_checked_where_it_is_built(args, message):
    # checked where it is built, as a leg is, and not first where it is sampled
    with pytest.raises(ValueError) as refused:
        TradeSampler(*args)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as replaced:
        TradeSampler("fixed", (1.0,), (0.1,))._replace(**dict(zip(("kind", "point", "step"), args)))
    assert str(replaced.value) == message


def test_jsonable_still_serializes_a_dataclass_and_an_exact_rational():
    import dataclasses
    from fractions import Fraction

    @dataclasses.dataclass
    class Point:
        x: float
        label: str

    assert jsonable(Point(0.5, "a")) == {"x": 0.5, "label": "a"}
    assert jsonable([Fraction(3, 4), np.int64(3), (1, 2)]) == [{"rational": "3/4", "decimal": 0.75}, 3, [1, 2]]
    with pytest.raises(TypeError):
        jsonable(Point)
