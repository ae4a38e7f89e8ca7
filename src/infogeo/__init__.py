"""Information-geometry numerics.

Divergence families with closed-form KL, finite-difference extraction of the
metric and cubic expansion tensors, quantum state geometry (Veronese
embedding, quantum divergences, loop holonomy), exact collective-vs-
sequential estimation fidelities, and Monte-Carlo round-trip cost engines.
"""

from .errors import (
    ConditioningError,
    DimensionMismatch,
    DomainError,
    InfoGeoError,
    NoisePanic,
    NumericalError,
    OrthogonalLink,
    RejectionOverflow,
    UnsupportedFamily,
    UsageError,
)
from .families import (
    Bernoulli,
    Categorical,
    ExponentialScale,
    GaussianFixedSigma,
    GaussianFull,
    NaturalView,
    bregman_divergence,
    make_family,
    natural_view,
    score_moment_tensor,
)
from .extraction import (
    AsymmetryProbe,
    CubicTensor,
    MetricTensor,
    asymmetry_probe,
    convergence_report,
    extract_cubic,
    extract_metric,
)
from .gap import GapReport, gap_report, gap_table, mc_single_copy_fidelity
from .quantum import (
    BlochChart,
    ChartDivergence,
    DensityMatrix,
    DiagonalQutritChart,
    PureState,
    VeroneseChart,
    bargmann_phase,
    fubini_study_distance,
    make_chart_divergence,
    pure_density,
    quantum_jsd,
    quantum_relative_entropy,
    veronese_embed,
    von_neumann_entropy,
)
from .roundtrip import (
    DemonReport,
    LegDistribution,
    SpreadReport,
    TradeSampler,
    TriangleReport,
    demon_work,
    spread_estimate,
    triangle_simulate,
    work_surcharge,
)

__version__ = "0.1.0"
