"""Command-line contract: exit codes, formats, config echoing, replay."""

import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import infogeo
from infogeo.cli import SUBCOMMANDS, main
from infogeo.families import Bernoulli, natural_view
from infogeo.reports import strip_timestamp
from infogeo.roundtrip import TradeSampler, demon_work, spread_estimate


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


def test_a_family_spec_prefix_is_read_in_any_case(capsys):
    # as make_family reads a family's name, and make_chart_divergence a chart's
    for spec, lower, points in [
        ("QRE:bloch", "qre:bloch", ["--p", "0,0,0.5", "--q", "0,0,-0.5"]),
        (" Natural :Bernoulli", "natural:bernoulli", ["--p", "0.2", "--q", "-0.3"]),
    ]:
        rep = run_json(capsys, ["divergence", "--family", spec, *points])
        assert rep["result"] == run_json(capsys, ["divergence", "--family", lower, *points])["result"]
        assert rep["config"]["family"] == spec


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


@pytest.mark.parametrize(
    "family, at, chart",
    [("bernoulli", "0.3", "default"), ("natural:bernoulli", "0.3", "natural"), ("qre:bloch", "0.1,0.2,0.3", "bloch")],
)
def test_a_tensor_report_names_its_chart_and_has_an_oracle_where_one_is_known(capsys, family, at, chart):
    result = run_json(capsys, ["tensor", "--family", family, "--at", at, "--order", "cubic"])["result"]
    assert result["chart"] == chart
    # a quantum chart has no closed forms
    assert ("oracle" in result) == ("oracle_delta" in result) == (chart != "bloch")


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


def test_demon_and_spread_take_a_natural_view(tmp_path, capsys):
    # the family spec resolves as it does for tensor, asymmetry and convergence,
    # and the reports carry the library's numbers and replay byte for byte
    view = natural_view(Bernoulli())
    runs = [
        (["demon", "--family", "natural:bernoulli", "--waypoints=-1;0;1"],
         "total", demon_work(view, [[-1.0], [0.0], [1.0]], h=0.05).total),
        (["spread", "--family", "natural:bernoulli", "--sampler", "signflip:0.5,0.1",
          "--samples", "1000", "--seed", "3", "--method", "oracle"],
         "mean", spread_estimate(view, TradeSampler.parse("signflip:0.5,0.1", 1), 1000, 3, method="oracle").mean),
    ]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for argv, name, value in runs:
        assert main(argv + ["--out", str(first)]) == 0
        result = json.loads(first.read_text())["result"]
        assert result["family_id"] == "bernoulli:natural" and result[name] == value
        assert main(["replay", str(first), "--out", str(second)]) == 0
        assert strip_timestamp(first.read_text()) == strip_timestamp(second.read_text())
    assert capsys.readouterr().err == ""


# --- exit codes and validation ----------------------------------------------


LADDER = ["--steps", "0.1,0.05,0.025,0.0125"]
USAGE_ERRORS = [
    ["gap"],  # neither --n nor --table
    ["gap", "--n", "2", "--table", "5"],
    # a table of no rows, or of more than the cap of 10000
    ["gap", "--table", "0"],
    ["gap", "--table", "100000000"],
    ["estimate", "--copies", "2", "--trials", "10000", "--seed", "1"],
    ["triangle", "--legs", "gaussian:0,0.01", "gaussian:0,0.01",
     "gaussian:0,0.01", "--samples", "2000"],  # seed mandatory
    ["divergence", "--family", "weibull", "--p", "1", "--q", "1"],
    # an argument to a family that takes none
    ["divergence", "--family", "bernoulli:0.3", "--p", "0.2", "--q", "0.3"],
    ["divergence", "--family", "natural:bernoulli:0.3", "--p", "0.2", "--q", "0.3"],
    ["tensor", "--family", "exponential:7", "--at", "1"],
    ["tensor", "--family", "gaussian-full:9", "--at", "0,1"],
    ["nonsense"],
    # empty or wrong-size point lists
    ["tensor", "--family", "exponential", "--at="],
    ["tensor", "--family", "qre:bloch", "--at", "0.1,0.2"],
    ["asymmetry", "--family", "exponential", "--at=", "--dir", "1", *LADDER],
    ["asymmetry", "--family", "exponential", "--at", "1", "--dir=", *LADDER],
    ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "0", *LADDER],  # zero direction
    ["asymmetry", "--family", "gaussian-full", "--at", "0,1", "--dir", "1", *LADDER],
    ["convergence", "--family", "exponential", "--at=,", "--steps", "0.1,0.05"],
    ["demon", "--family", "exponential", "--waypoints", "1,2;3,4"],
    # natural-view points outside the natural domain
    ["divergence", "--family", "natural:gaussian-full", "--p", "1,1", "--q", "1,-1"],
    ["divergence", "--family", "natural:gaussian-full", "--p", "1,0", "--q", "1,-1"],
    ["divergence", "--family", "natural:exponential", "--p", "-1", "--q", "1"],
    # step sizes that are zero, negative or infinite
    ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1", "--steps", "0.1,0.05,0.025,0"],
    ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1", "--steps", "0.1,0.05,0.025,-0.01"],
    ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1", "--steps=-0.1,-0.2,-0.3,-0.4"],
    ["tensor", "--family", "exponential", "--at", "1", "--h", "inf"],
    # spec parameters that are not finite, or whose legs draw infinities
    ["triangle", "--legs", "gaussian:nan,0.01", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1"],
    ["triangle", "--legs", "skewnormal:0,0.01,inf", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1"],
    ["triangle", "--legs", "shifted-lognormal:1000,1", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1"],
    ["divergence", "--family", "gaussian:inf", "--p", "0", "--q", "1"],
    ["divergence", "--family", "gaussian:1e200", "--p", "0", "--q", "1"],
    # a skew-normal shape whose square overflows, states that are not finite or
    # whose norm overflows, and sampled end points that overflow
    ["triangle", "--legs", "skewnormal:0,0.01,1e308", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1"],
    ["veronese", "--state", "nan,1"],
    ["veronese", "--state", "1e308,1e308"],
    ["spread", "--family", "exponential", "--sampler", "gauss:1,1e308", "--samples", "1000", "--seed", "1"],
    ["spread", "--family", "exponential", "--sampler", "fixed:1e308,1e308", "--samples", "1000", "--seed", "1"],
    # stencils over more coordinates than a plan is built for, refused before it is
    ["tensor", "--family", "categorical:30", "--at", "1", "--order", "cubic"],
    ["tensor", "--family", "categorical:14", "--at", ",".join(["0.05"] * 13), "--order", "cubic"],
    # and a ladder over them, refused before its closed forms, which take minutes here
    ["convergence", "--family", "categorical:201", "--at", ",".join(["0.001"] * 200), "--steps", "0.0001"],
    # a point of 12 coordinates, which numpy's text of an array wraps at 75 characters
    ["tensor", "--family", "categorical:13", "--at", ",".join(["0.005"] + ["0.07"] * 11), "--order", "metric"],
    # a sweep count that is not a finite integer
    ["triangle", "--legs", "skewnormal:0,0.01,1", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1", "--sweep-shape", "0,1,inf"],
    ["triangle", "--legs", "skewnormal:0,0.01,1", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1", "--sweep-shape", "0,1,nan"],
    # a sweep over more shapes than the cap of 1000
    ["triangle", "--legs", "skewnormal:0,0.01,1", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1", "--sweep-shape", "0,1,1001"],
    # quantum charts, whose smoothing demon and spread have no --eps for
    ["demon", "--family", "qre:bloch", "--waypoints", "0.1,0,0;0.2,0,0"],
    ["spread", "--family", "qjsd:bloch", "--sampler", "fixed:0.1,0,0,0.1,0,0", "--samples", "1000", "--seed", "1"],
    # Monte-Carlo counts outside 1 to the cap of 10^8 draws, and a sweep whose
    # simulations make more draws than that in all
    ["estimate", "--trials", "1000000000000", "--seed", "1"],
    ["estimate", "--trials", "0", "--seed", "1"],
    ["triangle", "--legs", "gaussian:0,0.01", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000000000000", "--seed", "1"],
    ["spread", "--family", "exponential", "--sampler", "gauss:1.2,0.05", "--samples", "100000001", "--seed", "5"],
    ["triangle", "--legs", "skewnormal:0,0.01,1", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000000", "--seed", "1", "--sweep-shape", "0,1,101"],
    # a sweep whose first leg has no shape, a demon with no path, and a margin
    # that leaves no categorical point
    ["triangle", "--legs", "gaussian:0,0.01", "gaussian:0,0.01", "gaussian:0,0.01",
     "--samples", "1000", "--seed", "1", "--sweep-shape", "0,1,3"],
    ["demon", "--family", "exponential"],
    ["divergence", "--family", "categorical:3", "--margin", "0.5", "--p", "0.2,0.3", "--q", "0.3,0.3"],
    # closed forms past the widest stencil, refused before they are built: an
    # oracle demon and spread, and an empty ladder
    ["demon", "--family", "categorical:201", "--method", "oracle",
     "--waypoints", ",".join(["0.001"] * 200) + ";" + ",".join(["0.0011"] * 200)],
    ["spread", "--family", "categorical:201", "--method", "oracle",
     "--sampler", "fixed:" + ",".join(["0.001"] * 200 + ["0.0001"] * 200), "--samples", "1000", "--seed", "1"],
    ["convergence", "--family", "categorical:201", "--at", ",".join(["0.001"] * 200), "--steps="],
]


# loop files that are not lists of lists of amplitudes
BAD_LOOPS = [[1, 2, 3], [[None, 1], [1, 0], [0, 1]], [[[1]], [1, 0], [0, 1]]]


def test_usage_errors_exit_1(tmp_path, capsys):
    loops = []
    for i, loop in enumerate(BAD_LOOPS):
        (tmp_path / f"loop{i}.json").write_text(json.dumps(loop))
        loops.append(["holonomy", "--loop", str(tmp_path / f"loop{i}.json")])
    for argv in USAGE_ERRORS + loops:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("geo: "), (argv, err)


@pytest.mark.parametrize(
    "argv, flag, value, want",
    [
        (["tensor", "--family", "gaussian-full", "--order", "metric"], "--at", "-0.5,1", 0),
        (["demon", "--family", "natural:bernoulli"], "--waypoints", "-1;0;1", 0),
        # negative steps are refused by the extraction, in one line, as with --steps=
        (["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1"], "--steps", "-0.1,-0.2,-0.3,-0.4", 1),
    ],
)
def test_an_option_value_may_start_with_a_dash(capsys, argv, flag, value, want):
    # a separate value that starts with '-' reads as the --flag=value form does
    results = []
    for given in ([flag, value], [f"{flag}={value}"]):
        assert main(argv + given) == want
        captured = capsys.readouterr()
        results.append((strip_timestamp(captured.out), captured.err))
    assert results[0] == results[1]
    assert len(results[0][1].splitlines()) == want  # no stderr, or the one line of a refusal


def test_an_option_followed_by_an_option_still_lacks_its_value(capsys):
    assert main(["tensor", "--family", "gaussian-full", "--at", "--order", "metric"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "geo: argument --at: expected one argument\n"


def test_domain_error_exits_1(capsys):
    assert main(["divergence", "--family", "exponential", "--p", "-1", "--q", "1"]) == 1


def test_natural_view_error_names_the_coordinate_given(capsys):
    assert main(["divergence", "--family", "natural:exponential", "--p", "-1", "--q", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "geo: exponential:natural: second argument [1.] outside domain\n"


def test_natural_view_passes_on_its_familys_refusals(capsys):
    # natural points whose mapped points the family refuses: the messages name
    # the view and the points it was given
    assert main(["divergence", "--family", "natural:bernoulli", "--p", "25", "--q", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "geo: bernoulli:natural: first argument [25.] outside domain\n"
    assert main(["divergence", "--family", "natural:gaussian-full", "--p", "1e200,-0.5", "--q", "0,-0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "geo: numerical conditioning: gaussian-full:natural: the divergence from [ 1.e+200 -5.e-001] to [ 0.  -0.5] "
        "overflows the float range\n"
    )


CONDITIONING_ERRORS = [
    ["tensor", "--family", "exponential", "--at", "1", "--order", "cubic", "--h", "1e-5"],
    # steps below the resolution of the base point
    ["tensor", "--family", "gaussian-full", "--at", "1e200,1"],
    ["tensor", "--family", "exponential", "--at", "1e300"],
    ["convergence", "--family", "gaussian-full", "--at", "1e200,1", "--steps", "0.1,0.05"],
    ["asymmetry", "--family", "gaussian-full", "--at", "1e15,1", "--dir", "1,0", *LADDER],
    # steps whose cubes underflow
    ["tensor", "--family", "gaussian-full", "--at", "0,1e-120", "--h", "1e-122", "--order", "cubic"],
    ["asymmetry", "--family", "gaussian-full", "--at", "0,1e-120", "--dir", "0,1",
     "--steps", "4e-122,2e-122,1e-122,5e-123"],
    ["convergence", "--family", "gaussian-full", "--at", "0,1e-120", "--steps", "4e-122,2e-122"],
    # the asymmetry's cubic coefficient, or T(v, v, v), overflows
    ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1e308", "--steps", "0.2,0.1,0.05,0.025"],
    ["asymmetry", "--family", "exponential", "--at", "1", "--dir", "1e200", "--steps", "0.2,0.1,0.05,0.025"],
    ["asymmetry", "--family", "exponential", "--at", "3", "--dir", "1.7e308", "--steps", "1,0.99,0.98,0.97"],
]


def test_conditioning_errors_exit_2(capsys):
    for argv in CONDITIONING_ERRORS:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("geo: numerical conditioning: "), (argv, err)


def test_steps_whose_powers_overflow(capsys):
    # the divergence overflows before any power of the step is taken
    assert main(["tensor", "--family", "gaussian", "--at", "0", "--h", "1e160"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "geo: numerical conditioning: gaussian:1: the divergence from [0.] to [1.e+160] "
        "overflows the float range\n"
    )
    assert main(["tensor", "--family", "gaussian", "--at", "0", "--h", "1e110", "--order", "cubic"]) == 2
    assert capsys.readouterr().err == (
        "geo: numerical conditioning: gaussian:1: a step of 1.000e+110 is too large: "
        "its cube overflows the float range\n"
    )
    # a symmetric probe divides by no power of its steps
    argv = ["asymmetry", "--family", "gaussian", "--at", "0", "--dir", "1", "--steps", "1e150,1e140,1e130,1e120"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["result"]["identically_symmetric"] is True


def test_closed_form_divergence_overflow_is_one_line(capsys):
    # an overflowing square, and the log of a ratio that underflowed to 0
    for argv, family in [
        (["divergence", "--family", "gaussian", "--p", "0", "--q", "1e200"], "gaussian:1"),
        (["divergence", "--family", "exponential", "--p", "1e-300", "--q", "1e300"], "exponential"),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"geo: numerical conditioning: {family}: the divergence from ")
        assert err[0].endswith(" overflows the float range")


@pytest.mark.parametrize(
    "argv",
    [
        # the cubic -10 / s^3 is -3.7e308 at s = 3e-103
        ["demon", "--family", "gaussian-full", "--waypoints", "0,3e-103;0,6e-103", "--method", "oracle"],
        ["convergence", "--family", "gaussian-full", "--at", "0,3e-103", "--steps", "2.4e-102,1.2e-102"],
    ],
)
def test_closed_form_tensor_overflow_is_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "geo: numerical conditioning: gaussian-full: the closed-form tensor at "
        "[0.e+000 3.e-103] overflows the float range\n"
    )


def test_gaussian_closed_forms_at_small_sigma_and_large_mean(tmp_path):
    # at s = 1e-100 the cubic is -1e301 and the metric's s^4 factors used to
    # underflow; at m/s = 1e8 the chain rule's (m/s)^2 terms cancelled g_22 to 0
    def report(name, argv):
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name).read_text())["result"]

    demon = report("demon", ["demon", "--family", "gaussian-full", "--waypoints", "0,1e-100;0,2e-100",
                             "--method", "oracle"])
    # (1/6) T_222 ds^3 with T_222 = -10 / s^3, walked up from 1e-100 and back from 2e-100
    assert demon["total"] == pytest.approx(-10.0 / 6.0, rel=1e-14)
    assert demon["reversed_total"] == pytest.approx(10.0 / 48.0, rel=1e-14)
    convergence = report("convergence", ["convergence", "--family", "gaussian-full", "--at", "0,1e-100",
                                         "--steps", "1e-102,5e-103"])
    assert convergence["cubic_oracle"][1][1][1] == pytest.approx(-1e301, rel=1e-14)
    for name, at in [("small-sigma", ["--at", "0,1e-100", "--h", "1e-102"]), ("large-mean", ["--at", "1e8,1"])]:
        tensor = report(name, ["tensor", "--family", "gaussian-full", *at])
        s = float(at[1].split(",")[1])
        assert np.array(tensor["oracle"]) == pytest.approx(np.diag([1.0, 2.0]) / s**2, rel=1e-14, abs=0)
        assert tensor["oracle_delta"] < 1e-3


def test_triangle_legs_whose_draws_overflow_are_refused(capsys):
    argv = ["triangle", "--legs", "gaussian:1e200,1", "gaussian:0,0.01", "gaussian:0,0.01",
            "--samples", "1000", "--seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "geo: leg gaussian:1e+200,1: draws as large as 1e+200 overflow the cycle's power sums\n"


def test_triangle_chunk_means_whose_difference_squared_overflows_are_refused(capsys):
    # chunk 0's mean and a later chunk's differ by more than sqrt(max float),
    # so the merge squares past the float range
    argv = ["triangle", "--legs", "shifted-lognormal:60,13", "gaussian:0,0.01", "gaussian:0,0.01",
            "--samples", "262144", "--seed", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("geo: "), err
    assert err[0].endswith("overflow the cycle's power sums")


def test_plot_csv_unsupported_kind_exits_1(capsys):
    code = main(["divergence", "--family", "exponential", "--p", "1", "--q", "2",
                 "--format", "plot-csv"])
    assert code == 1


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_writes_a_fifo_in_place(tmp_path, capsys):
    fifo = tmp_path / "report.pipe"
    os.mkfifo(fifo)
    # a reader must be open before a writer can open the FIFO without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["gap", "--n", "3", "--out", str(fifo)]) == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert json.loads(data)["result"]["gap"] == "1/12"
    assert capsys.readouterr().out == ""


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


def test_a_report_with_no_table_is_key_value_csv_and_replays_in_the_format_asked(tmp_path, capsys):
    argv = ["divergence", "--family", "exponential", "--p", "1", "--q", "2"]
    assert main(argv + ["--format", "csv"]) == 0
    direct = capsys.readouterr().out.splitlines()
    assert direct[0] == "key,value" and "result.value,0.3068528194400546" in direct
    path = tmp_path / "div.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert main(["replay", str(path), "--format", "csv"]) == 0
    replayed = capsys.readouterr().out.splitlines()
    assert [line for line in replayed if not line.startswith("generated_at,")] == [
        line for line in direct if not line.startswith("generated_at,")
    ]


def test_replay_missing_file_exits_1(capsys):
    assert main(["replay", "/nonexistent/report.json"]) == 1


GAP_CONFIG = {"subcommand": "gap", "format": "json", "n": None, "table": 3}
ESTIMATE_CONFIG = {"subcommand": "estimate", "format": "json", "trials": 10000, "seed": 1, "guess": "outcome"}
DIVERGENCE_CONFIG = {
    "subcommand": "divergence", "format": "json", "family": "exponential",
    "p": [1.0], "q": [2.0], "eps": 1e-3, "margin": 1e-9,
}
TENSOR_CONFIG = {
    "subcommand": "tensor", "format": "json", "family": "exponential", "at": [1.0],
    "order": "metric", "h": 0.01, "richardson": False, "eps": 1e-3, "margin": 1e-9,
}
ASYMMETRY_CONFIG = {
    "subcommand": "asymmetry", "format": "json", "family": "exponential", "at": [1.0],
    "direction": [1.0], "steps": [0.1, 0.05, 0.025, 0.0125], "eps": 1e-3, "margin": 1e-9,
}
TRIANGLE_CONFIG = {
    "subcommand": "triangle", "format": "json",
    "legs": ["skewnormal:0,0.01,-4", "gaussian:0,0.01", "gaussian:0,0.01"],
    "samples": 1000, "seed": 1, "sweep_shape": [-1.0, 1.0, 2],
}


@pytest.mark.parametrize(
    "document",
    [
        [1, 2],  # not an object
        {"schema_version": 1, "kind": "gap", "result": {}},  # no config
        {"config": dict(DIVERGENCE_CONFIG, family=3)},  # a field of the wrong type
        {"config": dict(DIVERGENCE_CONFIG, format="yaml")},  # no such format
        {"config": dict(TENSOR_CONFIG, at=[])},  # empty point lists
        {"config": dict(ASYMMETRY_CONFIG, direction=[])},
        {"config": dict(TRIANGLE_CONFIG, legs=[])},  # not three legs
        # a sweep whose count is not finite or is over the cap, or that has no count
        {"config": dict(TRIANGLE_CONFIG, sweep_shape=[0, 1, math.inf])},
        {"config": dict(TRIANGLE_CONFIG, sweep_shape=[0, 1, 1001])},
        {"config": dict(TRIANGLE_CONFIG, sweep_shape=[0, 1])},
        {"config": dict(GAP_CONFIG, table=100000000)},  # a table over the cap
        # Monte-Carlo counts over the cap of 10^8 draws, or below 1
        {"config": dict(TRIANGLE_CONFIG, samples=10**12)},
        {"config": dict(TRIANGLE_CONFIG, samples=0)},
        {"config": dict(ESTIMATE_CONFIG, trials=10**12)},
        pytest.param("family,value\nexponential,0.5\n", id="csv-report"),
    ],
)
def test_replay_of_non_report_exits_1(tmp_path, capsys, document):
    path = tmp_path / "bad.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    assert main(["replay", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("geo: replay "), err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--trials", "1000000000000", "--seed", "1"], "geo: --trials wants a count from 1 to 100000000"),
        (["triangle", "--legs", "gaussian:0,0.01", "gaussian:0,0.01", "gaussian:0,0.01",
          "--samples", "1000000000000", "--seed", "1"], "geo: --samples wants a count from 1 to 100000000"),
        (["spread", "--family", "exponential", "--sampler", "gauss:1.2,0.05", "--samples", "1000000000000",
          "--seed", "5"], "geo: --samples wants a count from 1 to 100000000"),
        (["triangle", "--legs", "skewnormal:0,0.01,1", "gaussian:0,0.01", "gaussian:0,0.01",
          "--samples", "1000000", "--seed", "1", "--sweep-shape", "0,1,1000"],
         "geo: --sweep-shape runs 1000 simulations of --samples draws; at most 100000000 draws in all"),
    ],
)
def test_a_monte_carlo_count_over_the_cap_is_refused_in_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


def test_a_replayed_sweep_over_the_draw_cap_is_refused_in_one_line(tmp_path, capsys):
    # each field passes its own test; together they ask for 10^9 draws
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"config": dict(TRIANGLE_CONFIG, samples=10**6, sweep_shape=[0.0, 1.0, 1000])}))
    assert main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "geo: --sweep-shape runs 1000 simulations of --samples draws; at most 100000000 draws in all\n"
    assert captured.err == message
    # under the cap it runs
    path.write_text(json.dumps({"config": dict(TRIANGLE_CONFIG, samples=1000, sweep_shape=[0.0, 1.0, 2])}))
    assert main(["replay", str(path)]) == 0


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


def test_base_point_outside_domain_prints_one_line():
    # the closed-form oracles at p = 1 divide by zero; the base point is
    # checked first, so no numpy warning reaches stderr
    res = _run_geo(
        ["convergence", "--family", "bernoulli", "--at", "1", "--steps", "0.1,0.05"], timeout=20
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["geo: bernoulli: base point [1.] outside domain"]


@pytest.mark.parametrize(
    "at, direction, steps, named",
    [
        # the values over h^3 overflowed with a RuntimeWarning, and the coefficient read NaN
        ("1", "1e308", "0.2,0.1,0.05,0.025", "[1.e+308]"),
        # T(v, v, v) read -inf, with no warning
        ("1", "1e200", "0.2,0.1,0.05,0.025", "[1.e+200]"),
        # math.fsum overflowed in the fit, with a traceback
        ("3", "1.7e308", "1,0.99,0.98,0.97", "[1.7e+308]"),
    ],
)
def test_an_asymmetry_whose_cubic_term_overflows_prints_one_line(at, direction, steps, named):
    argv = ["asymmetry", "--family", "exponential", "--at", at, "--dir", direction, "--steps", steps]
    res = _run_geo(argv, timeout=20)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == (
        f"geo: numerical conditioning: exponential: the cubic term of the asymmetry along {named} "
        "overflows the float range\n"
    )


def test_convergence_with_coincident_steps_gives_no_order_and_no_warning():
    # a log-log fit needs two distinct log-steps: equal steps have none, and
    # so have steps one ulp apart at 1e10, whose logs round to one value
    for at, steps in [("1", "0.05,0.05"), ("1e12", "1e10,1.0000000000000002e10")]:
        res = _run_geo(
            ["convergence", "--family", "exponential", "--at", at, "--steps", steps], timeout=20
        )
        assert res.returncode == 0
        assert res.stderr == ""
        result = json.loads(res.stdout)["result"]
        assert result["metric_order"] is None and result["cubic_order"] is None


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
