"""Command line interface: exit codes, file outputs, round-trips."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import darboux7r
from darboux7r import DarbouxParams, darboux_c, factor_fi, factor_fii, factor_fiii, serialize
from darboux7r.cli import PAIR_TYPES, SINGLE_TYPES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_fiv_prints_json(capsys):
    code, out, _ = run(capsys, "factor", "--type", "FIV")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "FIV"
    assert len(doc["factors"]) == 5
    assert doc["cofactor"] == ["1", "0", "1"]


def test_factor_fi_specializes_to_fiv_chain(capsys):
    code, out, _ = run(capsys, "factor", "--type", "FI", "--a", "1", "--b", "2", "--c", "0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["factors"]) == 3
    # first FIV-side value: t + 4/5 j - 3/5 k - 3/2 eps j - 2 eps k
    assert doc["factors"][0][0] == ["0", "0", "4/5", "-3/5", "0", "0", "-3/2", "-2"]


def test_factor_rejects_vertical_params(capsys):
    code, _, err = run(capsys, "factor", "--type", "FI", "--a", "0", "--b", "1", "--c", "1")
    assert code == 2
    assert "vertical" in err


def test_fiv_takes_no_parameter_flags(capsys):
    # FIV is one fixed instance, in factor and verify as in the loop commands.
    for command in ("factor", "verify", "linkage", "simulate"):
        code, out, err = run_exiting(capsys, command, "--type", "FIV", "--a", "0", "--b", "5")
        assert (code, out) == (2, "")
        assert f"error: {command} --type FIV does not use --a, --b\n" in err


def test_verify_examples(capsys):
    code, out, _ = run(
        capsys, "verify", "--type", "FIII", "--a", "3/2", "--b=-1", "--c", "2/5", "--x", "1/3", "--y", "0"
    )
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "verify", "--type", "FII", "--a", "1", "--b", "0", "--c", "0")
    assert code == 0
    assert "PASS" in out


def test_verify_random_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--type", "FI", "--random", "20", "--seed", "7")
    assert code == 0
    assert "20/20" in out
    code, out, _ = run(capsys, "verify", "--type", "FI", "--random", "3")
    assert (code, out) == (0, "PASS: FI exact for 3/3 random parameter sets (seed 0)\n")


def test_verify_needs_type_or_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_factor_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "f.json"
    code, _, _ = run(
        capsys, "factor", "--type", "FIII", "--a", "3/2", "--b=-1", "--c", "2/5",
        "--x", "1/3", "--y=-2/7", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--from-file", str(path))
    assert code == 0
    assert "PASS" in out
    # re-encoding the stored document is identity-stable
    doc = json.loads(path.read_text())
    back = serialize.factorization_from_json(doc)
    assert serialize.factorization_to_json(back) == doc


def test_verify_tampered_file_fails(tmp_path, capsys):
    path = tmp_path / "f.json"
    run(capsys, "factor", "--type", "FI", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["factors"][1][0][6] = "123"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--from-file", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "residual" in out
    # free_xy and the label must match the factors, whose product still passes.
    fi = serialize.factorization_to_json(factor_fi(PARAMS))
    fiii = serialize.factorization_to_json(factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)))
    for bad, failure in (
        (dict(fiii, free_xy=["5", "7"]),
         "FIII doubled last factor is not t - k - x eps i - y eps j at free_xy (5, 7)"),
        (dict(fiii, free_xy=None), "FIII needs free_xy, a pair x, y"),
        (dict(fi, free_xy=["5", "7"]), "FI has free_xy; the label needs null"),
        (dict(fiii, label="FIV"), "FIV is the instance (a, b, c, x, y) = (1, 2, 0, 0, 0) only"),
    ):
        code, out, _ = verify_doc(tmp_path, capsys, bad)
        assert (code, out) == (1, f"max |residual coefficient|: 0\nFAIL: {failure}\n")


def test_linkage_json(tmp_path, capsys):
    path = tmp_path / "l.json"
    code, _, _ = run(capsys, "linkage", "--type", "FIV", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["parallel_groups"] == [[1, 2, 6, 7], [3, 4, 5]]
    assert doc["four_bar_runs"] == [[6, 7, 1, 2]]
    assert sorted(s["fixed_joint"] for s in doc["sarrus"]) == [2, 6]
    assert doc["linkage"]["joint_count"] == 7


def test_simulate_csv(tmp_path, capsys):
    path = tmp_path / "sim.csv"
    code, _, _ = run(
        capsys, "simulate", "--type", "FI+FIII", "--t-min", "-5", "--t-max", "5",
        "--samples", "9", "--out", str(path),
    )
    assert code == 0
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 10
    for row in rows[1:]:
        assert float(row.split(",")[-1]) < 1e-12


def test_mobility_dof_columns(capsys):
    code, out, _ = run(capsys, "mobility", "--type", "FIV", "--samples", "10", "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 10
    assert all(row.split(",")[2] == "2" for row in rows)
    # generic parameters: the defaults (1,2,0,0,0) are the FIV special case
    code, out, _ = run(
        capsys, "mobility", "--type", "FI+FIII", "--a", "3/2", "--b=-1", "--c", "2/5",
        "--x", "1/3", "--y=-2/7", "--samples", "10", "--format", "csv",
    )
    assert code == 0
    assert all(row.split(",")[2] == "1" for row in out.strip().split("\n")[1:])


def test_trace_ellipse(capsys):
    code, out, _ = run(
        capsys, "trace", "--type", "FI+FIII", "--a", "1", "--b", "2", "--c", "1",
        "--point", "0,0,0", "--samples", "24",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["conic_class"] == "Ellipse"
    assert doc["plane_ok"] is True
    assert doc["plane_residual"] < 1e-9 * doc["diameter"]


def test_plot_svg(tmp_path, capsys):
    path = tmp_path / "plot.svg"
    code, _, _ = run(capsys, "plot", "--type", "FIV", "--samples", "11", "--out", str(path))
    assert code == 0
    svg = path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("data-frame") == 11
    assert "<circle" in svg  # axes parallel to the view direction render as points


def test_plot_single_home_frame(capsys):
    code, out, _ = run(capsys, "plot", "--samples", "1")
    assert code == 0
    assert out.count("data-frame") == 1
    assert "t = 0" in out


def test_plot_view_flag(capsys):
    code, out, _ = run(capsys, "plot", "--type", "FI+FIII", "--samples", "4", "--view", "xz")
    assert code == 0
    assert out.count("data-frame") == 4


def test_verify_random_needs_at_least_one_set(capsys):
    # N < 1 checks nothing, so it must not print PASS.
    for value in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--type", "FI", f"--random={value}")
        assert (code, out, err) == (2, "", "error: --random must be at least 1\n")
    code, out, _ = run(capsys, "verify", "--type", "FIII", "--random", "1")
    assert (code, out) == (0, "PASS: FIII exact for 1/1 random parameter sets (seed 0)\n")


def test_type_choices_keep_their_order():
    assert SINGLE_TYPES == ("FI", "FII", "FIII", "FIV")
    assert PAIR_TYPES == ("FI+FIII", "FI+FII", "FIV")


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--type", "NOPE"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mobility", "--type", "FI"])  # single factorization is not a linkage
    assert exc.value.code == 2


def test_sampling_flags_must_pair(capsys):
    code, _, err = run(capsys, "simulate", "--t-min", "-2", "--samples", "4")
    assert code == 2
    assert "t-min" in err or "t-max" in err


def test_plot_point_overlay_one_orbit_per_frame(capsys):
    code, out, _ = run(capsys, "plot", "--type", "FIV", "--samples", "3", "--point", "1,1/2,0")
    assert code == 0
    frames = out.split("<g data-frame=")[1:]
    assert len(frames) == 3
    for frame in frames:
        paths = re.findall(r'<path d="([^"]*) Z"', frame)
        assert len(paths) == 1
        assert len(re.findall(r"[ML]-?\d", paths[0])) == 120  # svgplot._TRACE_SAMPLES vertices
    # Pinned SVG of this input, so changes to the orbit sampler stay byte-stable.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "be913cfe58e1dd31276d97bca79825944c28b5e44a24aa3660b73bc0c6ceb337"
    )


PARAMS = DarbouxParams(Fraction(3, 2), Fraction(-1), Fraction(2, 5))


def verify_doc(tmp_path, capsys, doc):
    path = tmp_path / "f.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return run(capsys, "verify", "--from-file", str(path))


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_file_not_json_exits_two(tmp_path, capsys):
    assert_input_error(*verify_doc(tmp_path, capsys, "{not json"))


def test_verify_file_nested_too_deep_exits_two(tmp_path, capsys):
    # The JSON decoder recurses once per level and gives up with RecursionError.
    code, out, err = verify_doc(tmp_path, capsys, "[" * 100_000)
    assert_input_error(code, out, err)
    assert "RecursionError" in err


def test_verify_file_missing_key_exits_two(tmp_path, capsys):
    doc = serialize.factorization_to_json(factor_fi(PARAMS))
    del doc["cofactor"]
    code, out, err = verify_doc(tmp_path, capsys, doc)
    assert_input_error(code, out, err)
    assert "cofactor" in err


def test_verify_file_wrong_field_type_exits_two(tmp_path, capsys):
    doc = serialize.factorization_to_json(factor_fi(PARAMS))
    assert_input_error(*verify_doc(tmp_path, capsys, dict(doc, factors=5)))
    assert_input_error(*verify_doc(tmp_path, capsys, dict(doc, identical_adjacent=[["0", "1"]])))
    assert_input_error(*verify_doc(tmp_path, capsys, [doc]))
    for label in ([], {"FI": 1}, 3, None):
        assert_input_error(*verify_doc(tmp_path, capsys, dict(doc, label=label)))
    code, out, err = verify_doc(tmp_path, capsys, dict(doc, cofactor=["1/0"]))
    assert_input_error(code, out, err)
    assert "'1/0' has a zero denominator" in err
    # A string or an object in place of a list is not read one character or
    # key at a time, and free_xy holds exactly two scalars.
    fiii = serialize.factorization_to_json(factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)))
    row_as_string = json.loads(json.dumps(fiii))
    row_as_string["factors"][0][1] = "".join(row_as_string["factors"][0][1])  # "10000000"
    for bad in (
        dict(fiii, cofactor="101"),
        dict(fiii, free_xy="00"),
        dict(fiii, free_xy=["1/3", "-2/7", "0"]),
        row_as_string,
        dict(doc, identical_adjacent=""),
        dict(doc, factors=""),
        dict(doc, cofactor={"0": "1"}),
    ):
        code, out, err = verify_doc(tmp_path, capsys, bad)
        assert_input_error(code, out, err)
        assert "TypeError: expected" in err


def test_verify_file_float_scalars_exit_two(tmp_path, capsys):
    def to_floats(v):
        if isinstance(v, str):
            return float(Fraction(v))
        if isinstance(v, list):
            return [to_floats(x) for x in v]
        return v

    doc = serialize.factorization_to_json(factor_fi(PARAMS))
    for key in ("params", "cofactor", "factors"):
        bad = dict(doc)
        bad[key] = (
            {k: to_floats(v) for k, v in doc[key].items()} if key == "params" else to_floats(doc[key])
        )
        code, out, err = verify_doc(tmp_path, capsys, bad)
        assert_input_error(code, out, err)
        assert "float" in err


def test_verify_file_rejects_c_as_single_factor(tmp_path, capsys):
    doc = serialize.factorization_to_json(factor_fi(PARAMS))
    doc["factors"] = [serialize.motionpoly_to_json(darboux_c(PARAMS))]
    code, out, _ = verify_doc(tmp_path, capsys, doc)
    assert code == 1
    assert "max |residual coefficient|: 0" in out  # the product alone would pass
    assert "FAIL: FI factor 0 is not monic linear" in out


def test_verify_file_rejects_non_rotation_root(tmp_path, capsys):
    doc = serialize.factorization_to_json(factor_fi(PARAMS))
    doc["factors"][0][0][4] = "1"  # dual scalar part: the root is no longer a rotation
    code, out, _ = verify_doc(tmp_path, capsys, doc)
    assert code == 1
    assert "FAIL: FI factor 0 root is not a rotation quaternion" in out


def test_verify_file_rejects_wrong_identical_adjacent(tmp_path, capsys):
    doc = serialize.factorization_to_json(factor_fii(PARAMS))
    assert doc["identical_adjacent"] == [[1, 2]]
    for pairs in ([[0, 1]], [[1, 3]], [[4, 5]]):
        code, out, _ = verify_doc(tmp_path, capsys, dict(doc, identical_adjacent=pairs))
        assert code == 1
        assert f"FAIL: FII identical_adjacent pair ({pairs[0][0]}, {pairs[0][1]})" in out


def test_verify_file_label_must_match_factor_count(tmp_path, capsys):
    fiii = serialize.factorization_to_json(factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)))
    code, out, _ = verify_doc(tmp_path, capsys, dict(fiii, label="FI"))
    assert code == 1
    assert "max |residual coefficient|: 0" in out  # the product alone would pass
    assert "FAIL: FI has 5 factors with identical_adjacent [(3, 4)]; the label needs 3" in out
    fi = serialize.factorization_to_json(factor_fi(PARAMS))
    for label in ("FII", "FIII", "FIV"):
        code, out, _ = verify_doc(tmp_path, capsys, dict(fi, label=label))
        assert code == 1
        assert f"FAIL: {label} has 3 factors" in out
    code, out, _ = verify_doc(tmp_path, capsys, dict(fiii, label="FII"))  # doubled factor last
    assert code == 1
    assert "the label needs 5 factors with [(1, 2)]" in out
    code, out, _ = verify_doc(tmp_path, capsys, dict(fi, label="F9"))
    assert code == 1
    assert "FAIL: F9 label is not one of FI, FII, FIII, FIV" in out


def assert_flag_error(capsys, flag, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_tol_must_be_finite_and_positive(capsys):
    for command in ("mobility", "trace"):
        for value in ("-1", "0", "inf", "nan"):
            assert_flag_error(capsys, "--tol", command, "--type", "FIV", f"--tol={value}")


def test_t_min_must_be_finite_and_bounded(capsys):
    for value in ("inf", "-inf", "nan", "-1e308"):
        for command in ("simulate", "mobility", "trace", "plot"):
            assert_flag_error(capsys, "--t-min", command, f"--t-min={value}", "--t-max=1")


def test_t_max_must_be_finite_and_bounded(capsys):
    for value in ("inf", "nan", "1e308"):
        for command in ("simulate", "mobility", "trace", "plot"):
            assert_flag_error(capsys, "--t-max", command, "--t-min=0", f"--t-max={value}")


def run_exiting(capsys, *argv):
    """run, but an argparse exit (usage error, --help) gives its exit code too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh_process(env, *argv):
    script = "import sys; from darboux7r.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    return done.returncode, done.stdout, done.stderr


def test_reused_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # main keeps one parser per process; no parsed value may leak from one
    # call into the next.
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps usage and help to it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(darboux7r.__file__)))
    sequence = [
        ("trace", "--type", "FIV", "--samples", "8", "--point", "1,0,0", "--point", "0,1/2,0"),
        ("trace", "--type", "FIV", "--samples", "8"),  # the --point list must not carry over
        ("simulate", "--samples", "three"),  # usage error, exit 2
        ("simulate", "--type", "FIV", "--samples", "3"),
        ("verify", "--type", "FI", "--a", "3/2"),
        ("verify",),  # neither --type nor --from-file
        ("--help",),
        ("mobility", "--help"),
    ]
    reused = [run_exiting(capsys, *argv) for argv in sequence]
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0, 2, 0, 0]
    for argv, result in zip(sequence, reused):
        assert result == run_fresh_process(env, *argv), argv


@pytest.mark.parametrize("command", ["trace", "plot"])
def test_point_beyond_float_range_exits_two(capsys, command):
    code, out, err = run_exiting(capsys, command, "--type", "FIV", "--point=1e400,0,0")
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        f"darboux7r {command}: error: argument --point: '1e400,0,0' is beyond the float64 range"
    ]


@pytest.mark.parametrize(
    "argv, error",
    [
        (("factor", "--type", "FI", "--a", "1/0"), "argument --a: invalid _rational value: '1/0'"),
        (("linkage", "--b=-1/0"), "argument --b: invalid _rational value: '-1/0'"),
        (("trace", "--point=1/0,0,0"), "argument --point: invalid _point3 value: '1/0,0,0'"),
        (("plot", "--point=0,0,-2/0"), "argument --point: invalid _point3 value: '0,0,-2/0'"),
    ],
)
def test_zero_denominator_exits_two(capsys, argv, error):
    code, out, err = run_exiting(capsys, *argv)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"darboux7r {argv[0]}: error: {error}"
    ]


@pytest.mark.parametrize(
    "flags, error",
    [
        (
            ("--random", "3"),
            "darboux7r verify: error: argument --random: not allowed with argument --from-file",
        ),
        (("--type", "FII"), "darboux7r: error: verify takes --type or --from-file, not both"),
        (
            ("--a", "5"),
            "darboux7r: error: verify --from-file sets its own parameters and does not take --a",
        ),
        (("--seed", "4"), "darboux7r: error: verify --seed needs --random"),
    ],
    ids=["random", "type", "params", "seed"],
)
def test_verify_from_file_refuses_conflicting_flags(tmp_path, capsys, flags, error):
    # The file names its type and parameters; a flag that would be ignored
    # is a usage error, not a silent PASS.
    path = tmp_path / "f.json"
    run(capsys, "factor", "--type", "FI", "--out", str(path))
    code, out, err = run_exiting(capsys, "verify", "--from-file", str(path), *flags)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [error]


@pytest.mark.parametrize(
    "flags, error",
    [
        (
            ("--type", "FI", "--random", "2", "--b=-1/2", "--y", "1"),
            "verify --random sets its own parameters and does not take --b, --y",
        ),
        (("--type", "FI", "--seed", "4"), "verify --seed needs --random"),
        (
            ("--type", "FIV", "--random", "3"),
            "verify --type FIV is one fixed instance and does not take --random",
        ),
    ],
    ids=["params", "seed", "fiv-random"],
)
def test_verify_type_refuses_flags_it_would_ignore(capsys, flags, error):
    code, out, err = run_exiting(capsys, "verify", *flags)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [f"darboux7r: error: {error}"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (("factor", "--type", "FI", "--x", "3", "--y=-5"), "factor --type FI does not use --x, --y"),
        (("factor", "--type", "FIV", "--x", "3"), "factor --type FIV does not use --x"),
        (("verify", "--type", "FII", "--y", "3"), "verify --type FII does not use --y"),
        (("verify", "--type", "FIV", "--a", "3"), "verify --type FIV does not use --a"),
        (("linkage", "--type", "FIV", "--a", "5"), "linkage --type FIV does not use --a"),
        (("simulate", "--type", "FIV", "--b", "7"), "simulate --type FIV does not use --b"),
        (("mobility", "--type", "FI+FII", "--x", "1"), "mobility --type FI+FII does not use --x"),
        (("trace", "--type", "FI+FII", "--y", "1"), "trace --type FI+FII does not use --y"),
        (("plot", "--type", "FIV", "--c", "1"), "plot --type FIV does not use --c"),
    ],
)
def test_parameter_flags_the_type_does_not_use_exit_two(capsys, argv, error):
    code, out, err = run_exiting(capsys, *argv)
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [f"darboux7r: error: {error}"]


EXACT_LANE_SCRIPT = """
import sys
import darboux7r, darboux7r.cli
from darboux7r.cli import main

def numpy_modules():
    return [name for name in sys.modules if name.startswith("numpy.")]

path = sys.argv[1]
for kind in ("FI", "FII", "FIII", "FIV"):
    main(["factor", "--type", kind, "--out", path])
    main(["verify", "--type", kind])
main(["verify", "--type", "FIII", "--random", "2"])
main(["verify", "--from-file", path])
print(numpy_modules())
main(["simulate", "--type", "FIV", "--samples", "3", "--out", path])
print(bool(numpy_modules()))
"""


def test_exact_lane_loads_no_numpy(tmp_path):
    # factor and verify run on int and Fraction alone; numpy loads with the
    # first float-lane command.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(darboux7r.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", EXACT_LANE_SCRIPT, str(tmp_path / "f.json")],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-2:] == ["[]", "True"]


@pytest.mark.parametrize("command", ["simulate", "mobility", "trace", "plot", "linkage"])
def test_parameter_beyond_float_range_exits_two(capsys, command):
    code, out, err = run(capsys, command, "--a", "1e400")
    assert code == 2
    assert out == ""
    assert err == "error: an exact coefficient of about 1e+400 is beyond the float64 range\n"


def test_exact_commands_take_parameters_beyond_float_range(capsys):
    code, out, _ = run(capsys, "factor", "--type", "FI", "--a", "1e400")
    assert code == 0
    assert json.loads(out)["params"]["a"] == str(10**400)
    code, out, _ = run(capsys, "verify", "--type", "FIII", "--a", "1e400", "--x", "1/3")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("mobility", "--x", "1e300"),
        ("simulate", "--x", "1e300"),
        ("plot", "--x", "1e300"),
        ("linkage", "--x", "1e300"),
        ("trace", "--b", "1e200"),
        ("trace", "--c", "1e300"),
    ],
)
def test_coefficients_whose_squares_overflow_float64_exit_two(capsys, argv):
    size = argv[-1].split("e")[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: an exact coefficient of about 1e+{size} overflows float64 when squared\n"


def test_samples_that_overflow_float64_exit_two(capsys):
    argv = ("simulate", "--a", "1e100", "--t-min=-1e16", "--t-max=1e16", "--samples", "5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: float64 overflow on the float lane (")
    assert err.count("\n") == 1


def test_exact_values_with_too_many_digits_exit_two(capsys):
    code, out, err = run(capsys, "factor", "--type", "FI", "--a", "1e5000")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: an exact value of about 1e+5000 has more digits than the {limit} "
        "that can be written\n"
    )
    for kind, free in (("FI", ()), ("FIII", ("--x", "1/3"))):
        code, out, _ = run(capsys, "verify", "--type", kind, "--a", "1e5000", *free)
        assert code == 0
        assert out.splitlines() == [
            "max |residual coefficient|: 0",
            f"PASS: {kind} factors multiply to cofactor * C exactly",
        ]


def test_home_axes_are_transported_only_for_linkage(capsys, monkeypatch):
    # The exact t = 0 axes serve only the linkage JSON and its substructure
    # report, which share one computation; the sampling commands never form them.
    calls = []
    original = darboux7r.linkage.axes_at

    def counted(linkage, t):
        calls.append(t)
        return original(linkage, t)

    monkeypatch.setattr(darboux7r.linkage, "axes_at", counted)
    for kind in PAIR_TYPES:
        loop = ["--type", kind, "--samples", "8"]
        for argv in (["simulate", *loop], ["mobility", *loop], ["trace", *loop], ["plot", *loop]):
            assert run(capsys, *argv)[0] == 0
            assert calls == [], argv
        code, out, _ = run(capsys, "linkage", "--type", kind)
        assert code == 0
        assert calls == [0], kind
        calls.clear()


def test_verify_residual_with_too_many_digits_exits_two(tmp_path, capsys):
    path = tmp_path / "f.json"
    run(capsys, "factor", "--type", "FI", "--out", str(path))
    doc = json.loads(path.read_text())
    huge = "1" + "0" * 3000
    doc["factors"][0][0][0] = huge
    doc["factors"][1][0][4] = huge  # their product has about 6000 digits
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--from-file", str(path))
    assert_input_error(code, out, err)
    assert err.startswith("error: an exact value of about 1e+6000 has more digits")


def test_plot_takes_one_point(capsys):
    code, out, err = run(capsys, "plot", "--type", "FIV", "--point", "0,0,0", "--point", "1,0,0")
    assert_input_error(code, out, err)
    assert "--point" in err


@pytest.mark.parametrize(
    "command, b",
    [("simulate", "1e8"), ("mobility", "1e8"), ("trace", "1e8"), ("plot", "1e8"), ("linkage", "1e9")],
)
def test_float_lane_refuses_rounded_norms_of_large_parameters(capsys, command, b):
    # At --b 1e8 the rounded poses no longer close the loop in float64
    # (a closure residual near 1.4 with the real-norm bound lifted).
    code, out, err = run(capsys, command, "--b", b)
    assert_input_error(code, out, err)
    assert err == "error: norm has a nonzero dual part\n"
