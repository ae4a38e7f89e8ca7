"""Import contract: a process loads the modules it uses, in fresh interpreters.

``import infogeo`` loads every module of the package but ``cli``, ``reports``
and ``quantum``; ``quantum`` and its names load on first use.  ``geo`` loads
``quantum`` only for a chart, a state or a loop.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infogeo

SRC = str(Path(infogeo.__file__).resolve().parents[1])

# the names ``from infogeo import *`` bound when every module loaded at import
STAR_NAMES = [
    "AsymmetryProbe", "Bernoulli", "BlochChart", "Categorical", "ChartDivergence", "ConditioningError",
    "CubicTensor", "DemonReport", "DensityMatrix", "DiagonalQutritChart", "DimensionMismatch", "DomainError",
    "ExponentialScale", "GapReport", "GaussianFixedSigma", "GaussianFull", "InfoGeoError", "LegDistribution",
    "MetricTensor", "NaturalView", "NoisePanic", "NumericalError", "OrthogonalLink", "PureState",
    "RejectionOverflow", "SpreadReport", "TradeSampler", "TriangleReport", "UnsupportedFamily", "UsageError",
    "VeroneseChart", "asymmetry_probe", "bargmann_phase", "bregman_divergence", "convergence_report",
    "demon_work", "errors", "extract_cubic", "extract_metric", "extraction", "families",
    "fubini_study_distance", "gap", "gap_report", "gap_table", "make_chart_divergence", "make_family",
    "mc_single_copy_fidelity", "natural_view", "pure_density", "quantum", "quantum_jsd",
    "quantum_relative_entropy", "roundtrip", "score_moment_tensor", "spread_estimate", "triangle_simulate",
    "veronese_embed", "von_neumann_entropy", "work_surcharge",
]


def _fresh(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter on this package's source."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


_LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('infogeo'))))"


def test_importing_the_package_loads_no_quantum_module():
    loaded = _fresh("import infogeo\n" + _LOADED)
    assert loaded == [
        "infogeo", "infogeo.errors", "infogeo.extraction", "infogeo.families", "infogeo.gap", "infogeo.roundtrip"
    ]


@pytest.mark.parametrize(
    "argv, quantum",
    [
        (None, False),  # the import alone
        (["divergence", "--family", "exponential", "--p", "1", "--q", "2"], False),
        (["gap", "--n", "2"], False),
        (["veronese", "--state", "1,0"], True),
        (["divergence", "--family", "qre:bloch", "--p", "0.1,0,0", "--q", "0.2,0,0"], True),
    ],
)
def test_the_command_line_loads_quantum_only_for_quantum_work(argv, quantum):
    code = (
        "import contextlib, io\n"
        "from infogeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert {argv!r} is None or main({argv!r}) == 0\n"
    )
    loaded = _fresh(code + _LOADED)
    assert ("infogeo.quantum" in loaded) is quantum


def test_the_command_line_loads_no_numpy_module_numpy_did_not():
    # numpy 2 imports numpy.random on first use; an evaluated annotation
    # naming it would make every process pay for it
    code = (
        "import json, sys, numpy\n"
        "before = set(sys.modules)\n"
        "import infogeo.cli\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith('numpy'))))"
    )
    assert _fresh(code) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["divergence", "--family", "exponential", "--p", "1", "--q", "2"], []),
        # the one report with exact rationals; fractions imports decimal
        (["gap", "--n", "2"], ["decimal", "fractions"]),
    ],
)
def test_only_a_gap_report_loads_fractions_and_no_process_loads_dataclasses(argv, loaded):
    code = (
        "import contextlib, io, json, sys, numpy\n"
        "before = set(sys.modules)\n"
        "from infogeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "watched = ('copy', 'dataclasses', 'decimal', 'fractions')\n"
        "print(json.dumps([m for m in watched if m in set(sys.modules) - before]))"
    )
    assert _fresh(code) == loaded


def test_every_public_name_resolves_and_loads_its_module():
    code = (
        "import json, sys, infogeo\n"
        "listed = [n for n in dir(infogeo) if not n.startswith('_')]\n"
        "missing = [n for n in infogeo.__all__ if getattr(infogeo, n, None) is None]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('infogeo.'))\n"
        "print(json.dumps([missing, loaded, sorted(infogeo.__all__), listed]))"
    )
    missing, loaded, names, listed = _fresh(code)
    assert missing == []
    assert "infogeo.quantum" in loaded
    assert names == STAR_NAMES
    assert listed == STAR_NAMES


def test_a_star_import_binds_the_names_it_always_bound():
    code = (
        "import json\nns = {}\nexec('from infogeo import *', ns)\n"
        "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))"
    )
    assert _fresh(code) == STAR_NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
        infogeo.nonsense  # noqa: B018


def test_no_module_defines_a_dataclass():
    code = (
        "import dataclasses, importlib, json, pkgutil, infogeo\n"
        "found = []\n"
        "for info in pkgutil.iter_modules(infogeo.__path__):\n"
        "    module = importlib.import_module('infogeo.' + info.name)\n"
        "    found += [f'{info.name}.{k}' for k, v in vars(module).items() if dataclasses.is_dataclass(v)]\n"
        "print(json.dumps(found))"
    )
    assert _fresh(code) == []
