"""Command-line contract: exit codes, formats, config echoing, replay."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infogeo
from infogeo.cli import SUBCOMMANDS, main
from infogeo.reports import strip_timestamp


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# --- basic subcommands -------------------------------------------------------


def test_gap_single_contains_exact_rational(capsys):
    code = main(["gap", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"gap": "1/6"' in out
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["kind"] == "gap"
    assert rep["result"]["f_seq"] == "7/12"


def test_gap_table_csv_columns(capsys):
    code = main(["gap", "--table", "5", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header = [l for l in out.splitlines() if not l.startswith("#")][0]
    assert header.split(",") == [
        "N", "s", "f_col", "f_seq", "gap", "f_col_dec", "f_seq_dec", "gap_dec",
    ]
    row2 = out.splitlines()[3].split(",")
    assert row2[0] == "2" and row2[4] == "1/6"


def test_divergence_coincidence_is_zero(capsys):
    rep = run_json(capsys, ["divergence", "--family", "exponential", "--p", "1", "--q", "1"])
    assert rep["result"]["value"] == 0.0


def test_divergence_quantum_chart(capsys):
    rep = run_json(
        capsys,
        ["divergence", "--family", "qre:bloch", "--p", "0,0,0.5", "--q", "0,0,-0.5",
         "--eps", "0.01"],
    )
    assert rep["result"]["value"] > 0.0
    assert rep["config"]["eps"] == 0.01


def test_asymmetry_report_flags_ratio_conventions(capsys):
    rep = run_json(
        capsys,
        ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1",
         "--steps", "0.1,0.05,0.025,0.0125"],
    )
    res = rep["result"]
    assert 2.8 <= res["slope"] <= 3.2
    assert res["ratio"] == pytest.approx(-1 / 6, rel=0.05)
    assert res["bregman_reference_ratio"] == pytest.approx(-1 / 6)
    assert res["naive_sign_flip_ratio"] == pytest.approx(1 / 3)
    assert abs(res["ratio_minus_naive"]) > 0.4
    assert "ratio_note" in res


def test_tensor_metric_with_oracle_delta(capsys):
    rep = run_json(
        capsys,
        ["tensor", "--family", "bernoulli", "--at", "0.5", "--order", "metric",
         "--richardson"],
    )
    res = rep["result"]
    assert res["components"][0][0] == pytest.approx(4.0, rel=1e-6)
    assert res["oracle_delta"] < 1e-6
    assert rep["config"]["h"] == 0.01  # default resolved explicitly


def test_tensor_natural_chart_view(capsys):
    rep = run_json(
        capsys,
        ["tensor", "--family", "natural:bernoulli", "--at", "0.0", "--order", "cubic",
         "--richardson"],
    )
    assert rep["result"]["family"] == "bernoulli:natural"
    assert abs(rep["result"]["components"][0][0][0]) < 1e-6  # p = 1/2 point


def test_convergence_plot_csv(capsys):
    code = main(
        ["convergence", "--family", "exponential", "--at", "1",
         "--steps", "0.2,0.1,0.05", "--format", "plot-csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "log10_h,log10_metric_error,log10_cubic_error"
    assert len(lines) == 5


def test_veronese_subcommand(capsys):
    rep = run_json(capsys, ["veronese", "--state", "1,1"])
    emb = rep["result"]["embedded"]
    assert emb[0][0] == pytest.approx(0.5)
    assert emb[1][0] == pytest.approx(1 / math.sqrt(2))


def test_holonomy_subcommand(tmp_path, capsys):
    loop = [[[1, 0], [0, 0]], [[1, 0], [1, 0]], [[1, 0], [0, 1]]]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    rep = run_json(capsys, ["holonomy", "--loop", str(path)])
    assert rep["result"]["phase"] == pytest.approx(-math.pi / 4)


def test_holonomy_accepts_string_amplitudes(tmp_path, capsys):
    loop = [["1,0".split(",")[0], "0"], ["0.7071+0i", "0.7071+0i"], ["0.7071", "0+0.7071i"]]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    rep = run_json(capsys, ["holonomy", "--loop", str(path)])
    assert rep["result"]["phase"] == pytest.approx(-math.pi / 4, abs=1e-6)


def test_triangle_sweep_plot_csv(capsys):
    code = main(
        ["triangle", "--legs", "skewnormal:0,0.01,-4", "gaussian:0,0.01",
         "gaussian:0,0.01", "--samples", "2000", "--seed", "3",
         "--sweep-shape=-4,4,3", "--format", "plot-csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "shape,bare_cubic_mean,bare_cubic_se"
    assert len(lines) == 4


def test_demon_subcommand_with_path_file(tmp_path, capsys):
    path = tmp_path / "path.csv"
    path.write_text("1.0\n1.1\n1.2\n")
    rep = run_json(
        capsys,
        ["demon", "--family", "exponential", "--path", str(path), "--method", "oracle"],
    )
    assert rep["result"]["total"] == pytest.approx(-5.838e-4, abs=1e-6)
    assert rep["config"]["waypoints"] == [[1.0], [1.1], [1.2]]


def test_spread_subcommand(capsys):
    rep = run_json(
        capsys,
        ["spread", "--family", "exponential", "--sampler", "fixed:1.0,0.1",
         "--samples", "200", "--seed", "1", "--method", "oracle"],
    )
    assert rep["result"]["mean"] == pytest.approx(-1.0 / 3.0 * 1e-3, rel=1e-9)


# --- exit codes and validation ----------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert main(["gap"]) == 1  # neither --n nor --table
    assert main(["gap", "--n", "2", "--table", "5"]) == 1
    assert main(["estimate", "--copies", "2", "--trials", "10000", "--seed", "1"]) == 1
    assert main(["triangle", "--legs", "gaussian:0,0.01", "gaussian:0,0.01",
                 "gaussian:0,0.01", "--samples", "2000"]) == 1  # seed mandatory
    assert main(["divergence", "--family", "weibull", "--p", "1", "--q", "1"]) == 1
    assert main(["nonsense"]) == 1
    err = capsys.readouterr().err
    assert "geo:" in err


def test_domain_error_exits_1(capsys):
    assert main(["divergence", "--family", "exponential", "--p", "-1", "--q", "1"]) == 1


def test_conditioning_errors_exit_2(capsys):
    code = main(["tensor", "--family", "exponential", "--at", "1", "--order", "cubic",
                 "--h", "1e-5"])
    assert code == 2
    assert "conditioning" in capsys.readouterr().err


def test_plot_csv_unsupported_kind_exits_1(capsys):
    code = main(["divergence", "--family", "exponential", "--p", "1", "--q", "2",
                 "--format", "plot-csv"])
    assert code == 1


def test_env_default_format_honored_and_echoed(capsys, monkeypatch):
    monkeypatch.setenv("GEO_DEFAULT_FORMAT", "csv")
    code = main(["gap", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("key,value")
    assert "config.format,csv" in out
    monkeypatch.setenv("GEO_DEFAULT_FORMAT", "yaml")
    assert main(["gap", "--n", "2"]) == 1


# --- output files and replay -------------------------------------------------


def test_out_file_written_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gap", "--n", "3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["result"]["gap"] == "1/12"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_replay_reproduces_bytes(tmp_path, capsys):
    first = tmp_path / "tri.json"
    second = tmp_path / "tri2.json"
    argv = ["triangle", "--legs", "gaussian:0,0.01", "gaussian:0,0.01",
            "gaussian:0,0.01", "--samples", "3000", "--seed", "21"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(["replay", str(first), "--out", str(second)]) == 0
    a = strip_timestamp(first.read_text())
    b = strip_timestamp(second.read_text())
    assert a == b


# one small JSON-emitting invocation per subcommand; {tmp} is the test's directory
REPLAY_CASES = {
    "gap": ["gap", "--table", "3"],
    "estimate": ["estimate", "--trials", "10000", "--seed", "5", "--guess", "fixed"],
    "divergence": ["divergence", "--family", "qre:bloch", "--p", "0,0,0.5", "--q", "0,0.2,0"],
    "tensor": ["tensor", "--family", "natural:bernoulli", "--at", "0.3", "--order", "cubic"],
    "asymmetry": ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1",
                  "--steps", "0.1,0.05,0.025,0.0125"],
    "convergence": ["convergence", "--family", "bernoulli", "--at", "0.3", "--steps", "0.1,0.05",
                    "--richardson"],
    "triangle": ["triangle", "--legs", "skewnormal:0,0.01,-4", "gaussian:0,0.01",
                 "gaussian:0,0.01", "--samples", "1000", "--seed", "3", "--sweep-shape=-1,1,2"],
    "demon": ["demon", "--family", "exponential", "--path", "{tmp}/path.csv"],
    "spread": ["spread", "--family", "exponential", "--sampler", "gauss:1.0,0.05",
               "--samples", "100", "--seed", "2"],
    "holonomy": ["holonomy", "--loop", "{tmp}/loop.json"],
    "veronese": ["veronese", "--state", "0.6,0.8i"],
}


@pytest.mark.parametrize("name", sorted(set(SUBCOMMANDS) - {"replay"}))
def test_every_subcommand_replays_byte_identically(tmp_path, capsys, name):
    assert name in REPLAY_CASES, f"no replay case for subcommand {name!r}"
    (tmp_path / "path.csv").write_text("1.0\n1.1\n1.2\n")
    (tmp_path / "loop.json").write_text(json.dumps([[[1, 0], [0, 0]], [[1, 0], [1, 0]], [[1, 0], [0, 1]]]))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = [arg.format(tmp=tmp_path) for arg in REPLAY_CASES[name]]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(["replay", str(first), "--out", str(second)]) == 0
    assert json.loads(first.read_text())["config"]["subcommand"] == name
    assert strip_timestamp(first.read_text()) == strip_timestamp(second.read_text())


def test_replay_missing_file_exits_1(capsys):
    assert main(["replay", "/nonexistent/report.json"]) == 1


DIVERGENCE_CONFIG = {
    "subcommand": "divergence", "format": "json", "family": "exponential",
    "p": [1.0], "q": [2.0], "eps": 1e-3, "margin": 1e-9,
}


@pytest.mark.parametrize(
    "document",
    [
        [1, 2],  # not an object
        {"schema_version": 1, "kind": "gap", "result": {}},  # no config
        {"config": dict(DIVERGENCE_CONFIG, family=3)},  # a field of the wrong type
        {"config": dict(DIVERGENCE_CONFIG, format="yaml")},  # no such format
    ],
)
def test_replay_of_non_report_exits_1(tmp_path, capsys, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert main(["replay", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("geo: replay "), err


def test_replay_of_config_missing_a_field_exits_1(tmp_path, capsys):
    path = tmp_path / "div.json"
    argv = ["divergence", "--family", "exponential", "--p", "1", "--q", "2"]
    assert main(argv + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    del doc["config"]["family"]
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("geo: replay "), err
    assert "'family'" in err[0]


# --- bounded time ------------------------------------------------------------


def _run_geo(argv, timeout):
    """Run ``geo`` in a child process against this package's source."""
    src = str(Path(infogeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from infogeo.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.mark.parametrize("leg", ["gaussian:-2,0", "gaussian:-5,0.1"])
def test_triangle_leg_without_mass_above_minus_one_exits_1(leg):
    res = _run_geo(
        ["triangle", "--legs", leg, "gaussian:0,0.01", "gaussian:0,0.01",
         "--samples", "1000", "--seed", "1"],
        timeout=20,
    )
    assert res.returncode == 1
    err = res.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("geo: "), err
