"""Information-geometry numerics.

Divergence families with closed-form KL, finite-difference extraction of the
metric and cubic expansion tensors, quantum state geometry (Veronese
embedding, quantum divergences, loop holonomy), exact collective-vs-
sequential estimation fidelities, and Monte-Carlo round-trip cost engines.

``import infogeo`` runs only ``errors``, and loads no numpy.  ``families``,
``extraction``, ``roundtrip`` and ``gap`` are registered in ``sys.modules``
and bound here through ``importlib.util.LazyLoader``: each module body runs
on the first use of one of its attributes.  ``quantum`` is imported on first
use.  The package's own
names are served on first use from the module they live in (PEP 562).
``LazyLoader`` takes a lock only in recent Python releases (not in 3.10 or
3.11), so there a module whose first use may race between threads should
be used once before they start.
Result records are immutable named tuples (``rec._asdict()``).
"""

from .errors import (
    ConditioningError, DimensionMismatch, DomainError, InfoGeoError, NoisePanic, NumericalError, OrthogonalLink,
    RejectionOverflow, UnsupportedFamily, UsageError,
)

__version__ = "0.1.0"

# the module each public name is served from on first use
_HOME = {
    name: module
    for module, names in {
        "families": (
            "Bernoulli", "Categorical", "ExponentialScale", "GaussianFixedSigma", "GaussianFull", "NaturalView",
            "bregman_divergence", "make_family", "natural_view", "score_moment_tensor",
        ),
        "extraction": (
            "AsymmetryProbe", "CubicTensor", "MetricTensor", "asymmetry_probe", "convergence_report",
            "extract_cubic", "extract_metric",
        ),
        "gap": ("GapReport", "gap_report", "gap_table", "mc_single_copy_fidelity"),
        "roundtrip": (
            "DemonReport", "LegDistribution", "SpreadReport", "TradeSampler", "TriangleReport", "demon_work",
            "spread_estimate", "triangle_simulate", "work_surcharge",
        ),
        "quantum": (
            "quantum", "BlochChart", "ChartDivergence", "DensityMatrix", "DiagonalQutritChart", "PureState",
            "VeroneseChart", "bargmann_phase", "fubini_study_distance", "make_chart_divergence", "pure_density",
            "quantum_jsd", "quantum_relative_entropy", "veronese_embed", "von_neumann_entropy",
        ),
    }.items()
    for name in names
}


def _register_lazily(*modules: str) -> None:
    """Put each module in ``sys.modules`` and bind it here, its body not yet run."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for module in modules:
        spec = find_spec(f"{__name__}.{module}")
        spec.loader = LazyLoader(spec.loader)
        lazy = module_from_spec(spec)
        sys.modules[spec.name] = lazy
        spec.loader.exec_module(lazy)
        globals()[module] = lazy


_register_lazily("families", "extraction", "roundtrip", "gap")

# every public name, including those not yet served
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_HOME))


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
