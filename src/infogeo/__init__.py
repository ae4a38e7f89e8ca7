"""Information-geometry numerics.

Divergence families with closed-form KL, finite-difference extraction of the
metric and cubic expansion tensors, quantum state geometry (Veronese
embedding, quantum divergences, loop holonomy), exact collective-vs-
sequential estimation fidelities, and Monte-Carlo round-trip cost engines.

``quantum`` and the names taken from it load on first use (PEP 562): only a
chart, a state or a loop needs it.  Result records are immutable named tuples (``rec._asdict()``).
"""

from .errors import (
    ConditioningError, DimensionMismatch, DomainError, InfoGeoError, NoisePanic, NumericalError, OrthogonalLink,
    RejectionOverflow, UnsupportedFamily, UsageError,
)
from .families import (
    Bernoulli, Categorical, ExponentialScale, GaussianFixedSigma, GaussianFull, NaturalView, bregman_divergence,
    make_family, natural_view, score_moment_tensor,
)
from .extraction import (
    AsymmetryProbe, CubicTensor, MetricTensor, asymmetry_probe, convergence_report, extract_cubic, extract_metric,
)
from .gap import GapReport, gap_report, gap_table, mc_single_copy_fidelity
from .roundtrip import (
    DemonReport, LegDistribution, SpreadReport, TradeSampler, TriangleReport, demon_work, spread_estimate,
    triangle_simulate, work_surcharge,
)

__version__ = "0.1.0"

# the names taken from quantum, which loads on first use
_QUANTUM = (
    "BlochChart", "ChartDivergence", "DensityMatrix", "DiagonalQutritChart", "PureState", "VeroneseChart",
    "bargmann_phase", "fubini_study_distance", "make_chart_divergence", "pure_density", "quantum_jsd",
    "quantum_relative_entropy", "veronese_embed", "von_neumann_entropy",
)

# the public names loaded so far, the modules among them, and quantum's
__all__ = sorted({name for name in globals() if not name.startswith("_")} | {"quantum", *_QUANTUM})


def __getattr__(name):
    if name != "quantum" and name not in _QUANTUM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    quantum = import_module(".quantum", __name__)
    value = quantum if name == "quantum" else getattr(quantum, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | {"quantum", *_QUANTUM})
