"""Import contract: a process loads the modules it uses, in fresh interpreters.

``import infogeo`` runs only ``errors`` and loads no numpy.  ``families``,
``extraction``, ``roundtrip`` and ``gap`` are registered in ``sys.modules``
and run on first use; ``quantum`` and its names are imported on first use.
``geo`` runs only the modules its subcommand uses: ``geo gap``, its replay and
every usage error run with no numpy at all, as a ``numpy`` that refuses to
import, first on ``PYTHONPATH``, shows.  ``geo`` loads ``quantum`` only for a
chart, a state or a loop, and calls a function swapped on a registered module
before its first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infogeo
from infogeo.reports import strip_timestamp

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


# the registered modules whose bodies have not run; type() does not run them
_UNRUN = (
    "import json, sys, types\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('infogeo.')"
    " and type(sys.modules[m]) is not types.ModuleType)))"
)


def test_importing_the_package_loads_no_numpy_and_runs_no_engine():
    code = (
        "import json, sys, types, infogeo\n"
        "engines = ('families', 'extraction', 'roundtrip', 'gap')\n"
        "registered = [sys.modules['infogeo.' + m] is vars(infogeo)[m] for m in engines]\n"
        "unrun = [type(sys.modules['infogeo.' + m]) is not types.ModuleType for m in engines]\n"
        "again = [type(sys.modules['infogeo.' + m]) is not types.ModuleType for m in engines]\n"
        "print(json.dumps(['numpy' in sys.modules, registered, unrun, again]))"
    )
    numpy_loaded, registered, unrun, again = _fresh(code)
    assert not numpy_loaded
    assert registered == unrun == again == [True] * 4


def test_a_divergence_runs_no_engine_but_families():
    code = (
        "import contextlib, io\n"
        "from infogeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['divergence', '--family', 'exponential', '--p', '1', '--q', '2']) == 0\n"
    )
    assert _fresh(code + _UNRUN) == ["infogeo.extraction", "infogeo.gap", "infogeo.roundtrip"]


def test_the_command_line_calls_what_is_swapped_on_a_module_before_its_first_use():
    # the contract a tracer relies on: it wraps each function where it lives
    code = (
        "import json, sys\n"
        "from infogeo import cli\n"
        "called = []\n"
        "def swap(module, name):\n"
        "    home = sys.modules['infogeo.' + module]\n"
        "    original = getattr(home, name)\n"
        "    def spy(*args, **kwargs):\n"
        "        called.append(name)\n"
        "        return original(*args, **kwargs)\n"
        "    setattr(home, name, spy)\n"
        "swap('extraction', 'extract_cubic')\n"
        "swap('gap', 'gap_report')\n"
        "swap('roundtrip', 'demon_work')\n"
        "for argv in (['tensor', '--family', 'exponential', '--at', '1', '--order', 'cubic'], ['gap', '--n', '2'],\n"
        "             ['demon', '--family', 'exponential', '--waypoints', '1;1.5']):\n"
        "    cli.run_config(cli.build_config(cli.build_parser().parse_args(argv)))\n"
        "print(json.dumps(called))"
    )
    assert _fresh(code) == ["extract_cubic", "gap_report", "demon_work"]


_GEO = "import sys; from infogeo.cli import main; sys.exit(main())"


@pytest.fixture(scope="module")
def no_numpy(tmp_path_factory):
    """A directory whose ``numpy`` package refuses to import."""
    root = tmp_path_factory.mktemp("no_numpy")
    (root / "numpy").mkdir()
    (root / "numpy" / "__init__.py").write_text("raise ImportError('this numpy refuses to import')\n")
    return root


def _geo(argv, cwd, first=None):
    """Exit code, stdout without its timestamp, and stderr of ``geo argv``,
    with ``first`` (if given) ahead of this package's source on the path."""
    path = os.pathsep.join(filter(None, [first and str(first), SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", _GEO, *argv],
        cwd=cwd, capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    return res.returncode, strip_timestamp(res.stdout), res.stderr


def test_the_refusing_numpy_stops_array_work(no_numpy, tmp_path):
    code, _, err = _geo(["tensor", "--family", "exponential", "--at", "1"], tmp_path, first=no_numpy)
    assert code == 1 and "this numpy refuses to import" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gap", "--n", "5"], 0),
        (["gap", "--table", "3", "--format", "csv"], 0),
        (["gap", "--table", "4", "--format", "plot-csv"], 0),
        ([], 1),  # bare geo: the usage line
        (["gap", "--n", "five"], 1),  # an argparse error
        (["gap", "--n", "5", "--table", "5"], 1),
        (["estimate", "--trials", "10"], 1),  # no --seed
        (["estimate", "--trials", "1000000000000", "--seed", "1"], 1),  # a count cap
        (["gap", "--table", "100000000"], 1),
        (["spread", "--family", "exponential", "--sampler", "gauss:1,1", "--samples", "0", "--seed", "1"], 1),
    ],
)
def test_gap_and_usage_errors_run_without_numpy(no_numpy, tmp_path, argv, code):
    plain = _geo(argv, tmp_path)
    assert plain[0] == code
    if code:
        assert plain[1] == "\n"  # strip_timestamp's newline: nothing was printed
        assert plain[2].startswith("geo: " if argv else "usage: geo")
    assert _geo(argv, tmp_path, first=no_numpy) == plain


@pytest.mark.parametrize(
    "config, code",
    [
        ({}, 0),
        ({"n": None, "table": 3}, 0),
        ({"n": "5"}, 1),  # a field of the wrong type
        ({"format": "yaml"}, 1),
        ({"subcommand": "nonsense"}, 1),
    ],
)
def test_a_gap_replay_runs_without_numpy(no_numpy, tmp_path, config, code):
    report = tmp_path / "gap.json"
    assert _geo(["gap", "--n", "5", "--out", str(report)], tmp_path)[0] == 0
    doc = json.loads(report.read_text())
    doc["config"].update(config)
    report.write_text(json.dumps(doc))
    plain = _geo(["replay", str(report)], tmp_path)
    assert plain[0] == code
    if code:
        assert plain[2].startswith("geo: replay ") and len(plain[2].splitlines()) == 1
    assert _geo(["replay", str(report)], tmp_path, first=no_numpy) == plain
